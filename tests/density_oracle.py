"""Freeze 30-digit values of log f_beta, the one-sided stable density, with mpmath.

Run from the repository root to rewrite ``tests/density_oracle.json``:

    python3 tests/density_oracle.py

f_beta has Laplace transform exp(-a^beta).  Each value comes from one of two
independent representations, evaluated at 30 digits plus guard digits:

* ``series``: the power series
      f(lam) = (1/pi) sum_{k>=1} (-1)^(k+1) Gamma(1+k beta)/k! sin(pi k beta) lam^(-1-k beta),
  which converges for every lam > 0 but cancels badly unless its terms fall
  from the start; it is used where the term ratio k^(beta-1) beta^beta e^(1-beta)
  lam^(-beta) is below e^(-0.05), with the working precision raised by the
  digits the largest term cancels.
* ``quad``: the Zolotarev integral
      f(lam) = (beta/(1-beta)) lam^(-1/(1-beta)) (1/pi) int_0^pi A(u) exp(-A(u) s) du,
  s = lam^(-beta/(1-beta)), by ``mp.quad`` (tanh-sinh) split at the u = 0
  layer and around the integrand's peak near u = pi, where it is integrated in
  v = log(pi - u).

Where both apply (lam in [1, 4]) the script checks that they agree to 1e-28.
The lam of each beta cover the left tail down to where f leaves the normal
floats (the saddle-point estimate of log f reaches -700), both sides of
a0 s = 500 (a0 = A(0)), the Zolotarev range, both sides of lam = 2 and the
series range up to 1e6.
"""

from __future__ import annotations

import json
import math
import pathlib

import mpmath as mp

DIGITS = 30
BETAS = (0.05, 0.2, 0.36, 0.63, 0.75, 0.88, 0.95, 0.975, 0.99)
OUT = pathlib.Path(__file__).with_name("density_oracle.json")


def series_log_pdf(beta: float, lam: float) -> mp.mpf:
    b, x = mp.mpf(beta), mp.mpf(lam)
    # log of each term's magnitude, to find the last term needed and the largest
    log_terms, k = [], 1
    while True:
        log_terms.append(float(mp.loggamma(1 + k * b) - mp.loggamma(k + 1) - k * b * mp.log(x)))
        top = max(log_terms)
        if k > 5 and log_terms[-1] < top - 2.31 * (DIGITS + 25) and log_terms[-1] < log_terms[-2]:
            break
        k += 1
    with mp.workdps(DIGITS + 25 + int(max(0.0, top) / 2.3)):
        b, x = mp.mpf(beta), mp.mpf(lam)
        total = mp.fsum(
            (-1) ** (j + 1) * mp.exp(mp.loggamma(1 + j * b) - mp.loggamma(j + 1)) * mp.sinpi(j * b) * x ** (-1 - j * b)
            for j in range(1, k + 1)
        )
        return mp.log(total / mp.pi)


def quad_log_pdf(beta: float, lam: float) -> mp.mpf:
    with mp.workdps(DIGITS + 15):
        b, x = mp.mpf(beta), mp.mpf(lam)
        c = b / (1 - b)
        s = x ** (-c)
        a0 = b**c * (1 - b)

        def log_a(sin_bu, sin_cu, sin_u):
            return (b * mp.log(sin_bu) + (1 - b) * mp.log(sin_cu) - mp.log(sin_u)) / (1 - b)

        # the factor e^(-a0 s) is taken out of the integrand
        def in_u(u):
            if u == 0:
                return a0
            a = mp.exp(log_a(mp.sin(b * u), mp.sin((1 - b) * u), mp.sin(u)))
            return a * mp.exp(-(a - a0) * s)

        def in_v(v):
            # u = pi - eps, with every sine formed from eps so that none loses its digits
            eps = mp.exp(v)
            a = mp.exp(log_a(mp.sin((1 - b) * mp.pi + b * eps), mp.sin(b * mp.pi + (1 - b) * eps), mp.sin(eps)))
            return a * mp.exp(-(a - a0) * s) * eps

        # u in [0, pi/2]: split geometrically from the width of the u = 0 layer
        width = 1 / mp.sqrt(a0 * s * b + 1)
        u_pts = [mp.mpf(0)]
        u = width / 4
        while u < mp.pi / 2:
            u_pts.append(u)
            u *= 2
        u_pts.append(mp.pi / 2)
        # v in (-inf, log(pi/2)]: A ~ (sin(pi b)/eps)^(1/(1-b)) there, so the
        # integrand peaks near A s = b, at v_peak, on the scale 1 - b in v; above
        # the peak A varies on the scale eps in u, so the pieces grow like eps
        top = mp.log(mp.pi / 2)
        step = 1 - b
        v_peak = min(mp.log(mp.sinpi(b)) + step * mp.log(s / b), top)
        v_pts = [v_peak - 200 * step]
        v = v_peak - 60 * step
        while v < top:
            v_pts.append(v)
            v += max(step, mp.exp(v) / 4)
        v_pts.append(top)
        integral = mp.quad(in_u, u_pts) + mp.quad(in_v, v_pts)
        return mp.log(b / (1 - b)) - mp.log(x) / (1 - b) - mp.log(mp.pi) + mp.log(integral) - a0 * s


def series_converges(beta: float, lam: float) -> bool:
    return lam >= 1.0 and beta * math.log(beta) + (1.0 - beta) - beta * math.log(lam) < -0.05


def lam_points(beta: float) -> list[float]:
    c = beta / (1.0 - beta)
    a0 = beta**c * (1.0 - beta)

    def lam_at(a0s: float) -> float:
        return (a0s / a0) ** (-1.0 / c)

    def saddle_log_f(a0s: float) -> float:
        log_s = math.log(a0s / a0)
        return (
            math.log(beta / (1.0 - beta))
            + 0.5 * (math.log(a0) - math.log(2.0 * math.pi * beta) - log_s)
            + log_s / beta
            - a0s
        )

    # the a0 s at which the saddle-point log f reaches -700, by bisection
    lo, hi = 1.0, 1e6
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if saddle_log_f(mid) > -700.0 else (lo, mid)
    lams = [lam_at(lo), lam_at(500.0 * 1.01), lam_at(500.0 / 1.01)]
    start = lam_at(400.0)
    lams += [start * (1.999 / start) ** (k / 11) for k in range(12)]
    lams += [1.2, 1.6, 2.0, 2.001, 2.5, 4.0, 10.0, 100.0, 1e6]
    return sorted({float(f"{x:.6g}") for x in lams})


def main() -> None:
    rows = []
    for beta in BETAS:
        for lam in lam_points(beta):
            method = "series" if series_converges(beta, lam) else "quad"
            value = series_log_pdf(beta, lam) if method == "series" else quad_log_pdf(beta, lam)
            if method == "series" and lam <= 4.0:
                other = quad_log_pdf(beta, lam)
                assert abs(other - value) < mp.mpf(10) ** (2 - DIGITS), (beta, lam, other - value)
            rows.append({"beta": beta, "lam": lam, "log_f": mp.nstr(value, DIGITS), "method": method})
            print(f"{beta:6} {lam:12.6g} {method:6} {rows[-1]['log_f']}", flush=True)
    OUT.write_text(json.dumps({"digits": DIGITS, "rows": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
