"""High-precision oracles for the frozen constants used in the test suite.

Run from the repository root:

    python tools/derive_oracles.py

Each printed value is pasted as a literal into the tests next to a comment
naming the oracle. Recompute here if a tolerance ever looks suspicious.
"""

import mpmath as mp

mp.mp.dps = 40


def coefficient_cap(order, S, kappa):
    k = mp.mpf(order)
    return mp.mpf(S) ** k * k ** (-mp.mpf(kappa) * k)


def degree_rule_raw(n, kappa):
    n = mp.mpf(n)
    return mp.log(n) / (8 * mp.mpf(kappa) * mp.log(mp.log(n / 4)))


def series_f(u, kappa, d, terms=60):
    u, kappa = mp.mpf(u), mp.mpf(kappa)
    return mp.nsum(lambda m: (m + d / kappa) ** (-kappa * m) * u**m, [1, terms])


def series_psi(x, d, kappa, terms=80):
    x, kappa = mp.mpf(x), mp.mpf(kappa)
    return mp.nsum(lambda m: m**d * x**m * m**(-kappa * m), [1, terms])


def bump_mass():
    return mp.quad(lambda s: mp.exp(-1 / (1 - s * s)), [-1, 1])


def cosine_kernel_base():
    # integral of (1+cos y)/(pi^2-y^2)^2 over the real line, singularities at
    # |y| = pi removable
    def f(y):
        eps = abs(y) - mp.pi
        if abs(eps) < mp.mpf("0.1"):
            return (1 - mp.cos(eps)) / (eps * (2 * mp.pi + eps)) ** 2
        return (1 + mp.cos(y)) / (mp.pi**2 - y * y) ** 2

    pieces = [-mp.inf, -mp.pi, 0, mp.pi, mp.inf]
    return mp.quad(f, pieces)


def axis_moment(k, omega, x):
    # integral over [-omega, omega] of t^k e^{-itx} dt
    re = mp.quad(lambda t: t**k * mp.cos(t * x), [-omega, omega])
    im = -mp.quad(lambda t: t**k * mp.sin(t * x), [-omega, omega])
    return mp.mpc(re, im)


def main():
    print("coefficient cap, order 3, S=1.5, kappa=0.55:",
          mp.nstr(coefficient_cap(3, "1.5", "0.55"), 20))
    print("degree rule raw, n=e^100, kappa=1:",
          mp.nstr(degree_rule_raw(mp.e**100, 1), 20))
    print("degree rule raw, n=1e6, kappa=0.55:",
          mp.nstr(degree_rule_raw(10**6, "0.55"), 20))
    ck = 2 * mp.exp(mp.mpf(-11) / 2)
    print("window cap 2*exp(-11/2):", mp.nstr(ck, 20))
    print("window, m=2, kappa=1, S=1:", mp.nstr(ck * 2, 20))
    print("series f at u=1, kappa=1, d=2:", mp.nstr(series_f(1, 1, 2), 20))
    print("psi series at x=1, d=1, kappa=1:", mp.nstr(series_psi(1, 1, 1), 20))
    mass = bump_mass()
    print("bump raw mass:", mp.nstr(mass, 20))
    print("bump normalizer:", mp.nstr(1 / mass, 20))
    print("cosine kernel base integral:", mp.nstr(cosine_kernel_base(), 20))
    print("sin(1):", mp.nstr(mp.sin(1), 20))
    print("exp(-1/2):", mp.nstr(mp.exp(mp.mpf(-1) / 2), 20))
    for k in range(5):
        v = axis_moment(k, mp.mpf("0.5"), mp.mpf("0.3"))
        print(f"axis moment k={k}, omega=0.5, x=0.3:", mp.nstr(v, 20))
    for k in range(5):
        v = axis_moment(k, mp.mpf("0.5"), 3)
        print(f"axis moment k={k}, omega=0.5, x=3:", mp.nstr(v, 20))
    for k in range(5):
        # a large |omega*x| (= 10), for the large-argument moment test
        v = axis_moment(k, 2, 5)
        print(f"axis moment k={k}, omega=2, x=5:", mp.nstr(v, 20))
    print("uniform(-1,1) cf at 1 (=sin(1)/1):", mp.nstr(mp.sin(1), 20))


if __name__ == "__main__":
    main()
