"""Acceptance checks: one callable per criterion, shared by pytest and `kscrit verify`.

Each check returns CheckItem rows with the measured value, the expectation and
its tolerance, so the verify table is self-describing.  All checks are
deterministic (fixed grids and fixed case lists).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .criteria import (
    blowup_constant_fractional,
    classify,
    criterion_constants,
    criterion_curve,
)
from .errors import ValidationError
from .kernels import build_kernel_table, radial_kernel, validate_kernel
from .radial import (
    Chandrasekhar,
    ExplicitBlowupDatum,
    Gaussian,
    ShellAtom,
    TruncatedChandrasekhar,
    mass_profile,
    scale_profile,
    sphere_area,
)
from .solver import SolverControls, build_grid, comparison_check, gaussian_moment, run, truncation_scaling

__all__ = ["CheckItem", "REGISTRY", "run_acceptance"]


@dataclass(frozen=True)
class CheckItem:
    criterion: str
    name: str
    expected: str
    actual: str
    tolerance: str
    passed: bool


def _item(criterion, name, expected, actual, tolerance, passed) -> CheckItem:
    return CheckItem(criterion, name, str(expected), str(actual), str(tolerance), bool(passed))


def ac1() -> list[CheckItem]:
    """Blowup constant: C(2) = 2 exactly; C(d) in [1, 2) for d = 3..30."""
    items = []
    c2 = blowup_constant_fractional(2, 2.0)[0]
    items.append(_item("AC-1", "C(2)", "2", f"{c2!r}", "1e-10", abs(c2 - 2.0) <= 1e-10))
    vals = {d: blowup_constant_fractional(d, 2.0)[0] for d in range(3, 31)}
    ok = all(1.0 <= v < 2.0 for v in vals.values())
    items.append(
        _item(
            "AC-1",
            "C(d) range d=3..30",
            "[1, 2)",
            f"min={min(vals.values()):.6f} max={max(vals.values()):.6f}",
            "exact",
            ok,
        )
    )
    return items


def ac2() -> list[CheckItem]:
    """Singular stationary datum: t * e^{tL} u_C(0) = 1 for all t, d."""
    items = []
    for d in (3, 5, 10):
        curve = criterion_curve(mass_profile(Chandrasekhar(d, 1.0)), 2.0, T_range=(1e-3, 1e3))
        worst = float(np.max(np.abs(curve.values - 1.0)))
        items.append(
            _item("AC-2", f"t*W(u_C) d={d}, t in [1e-3,1e3]", "1", f"1{worst:+.2e}", "1e-8", worst <= 1e-8)
        )
    return items


@lru_cache(maxsize=1)
def _fractional_tables() -> tuple:
    """(d, alpha, table, validation) for each AC-3/AC-4 case, built once for both."""
    rows = []
    for a in (0.5, 1.0, 1.5):
        for d in (3, 5):
            tab = build_kernel_table(d, a)
            rows.append((d, a, tab, validate_kernel(tab)))
    return tuple(rows)


def ac3() -> list[CheckItem]:
    """Subordination pin: alpha=1 kernel is the Poisson kernel; normalizations hold."""
    items = []
    k = radial_kernel(3, 1.0)
    rho = np.linspace(0.0, 10.0, 401)
    poisson = (1.0 / math.pi**2) * (1.0 + rho**2) ** -2.0
    err = float(np.max(np.abs(k.R(rho) - poisson) / poisson))
    items.append(_item("AC-3", "alpha=1, d=3 vs Poisson kernel", "0", f"{err:.2e}", "1e-6", err <= 1e-6))
    for d, a, tab, val in _fractional_tables():
        r1 = abs(tab.residuals["norm_R"])
        r2 = abs(tab.residuals["norm_Rp"])
        checks = {name: ok for name, ok, _ in val.checks}
        items.append(
            _item(
                "AC-3",
                f"normalizations d={d} alpha={a}",
                "1",
                f"|dR|={r1:.2e} |dRp|={r2:.2e}",
                "1e-6",
                checks["normalization_R"] and checks["normalization_Rp"],
            )
        )
    return items


def ac4() -> list[CheckItem]:
    """Kernel structure: algebraic tails, sign and convexity relations."""
    items = []
    for d, a, tab, val in _fractional_tables():
        structural = {name: ok for name, ok, _ in val.checks}
        fits = {k: tab.tail_fits[k][1] for k in ("R", "Rp", "Rpp")}
        expect = (-(d + a), -(d + 1 + a), -(d + 2 + a))
        items.append(
            _item(
                "AC-4",
                f"tail exponents d={d} alpha={a}",
                f"{expect}",
                f"({fits['R']:.3f}, {fits['Rp']:.3f}, {fits['Rpp']:.3f})",
                "2%",
                all(structural[f"tail_exponent_{k}"] for k in fits),
            )
        )
        ok = (
            structural["Rp_negative"]
            and structural["rho_Rpp_minus_Rp_nonneg"]
            and structural["weighted_gradient_decreasing"]
        )
        items.append(
            _item(
                "AC-4",
                f"sign/convexity d={d} alpha={a}",
                "R'<0, rho R''-R'>=0, rho^(1-d)|R'| decreasing",
                "all hold" if ok else f"failed: {val.failures()}",
                "exact",
                ok,
            )
        )
    return items


def ac5() -> list[CheckItem]:
    """Fractional constant sandwich K <= C <= 2d/(d-2) with 1e-6 slack."""
    items = []
    for a in (0.5, 1.0, 1.5):
        for d in (4, 6, 10):
            cc = criterion_constants(d, a)
            ok = cc.K <= cc.C + 1e-6 and cc.C <= cc.upper_bound + 1e-6
            items.append(
                _item(
                    "AC-5",
                    f"K<=C<=2d/(d-2) d={d} alpha={a}",
                    f"K={cc.K:.6f} <= C <= {cc.upper_bound:.6f}",
                    f"C={cc.C:.6f}",
                    "1e-6 slack",
                    ok,
                )
            )
    return items


def ac6() -> list[CheckItem]:
    """Shell threshold asymptotics: N(d)/(4 sigma_d sqrt(pi(d-2))) <= 1.1, decreasing."""
    ratios = {}
    for d in (20, 50, 100):
        n = criterion_constants(d, 2.0).N_threshold
        ratios[d] = n / (4.0 * sphere_area(d) * math.sqrt(math.pi * (d - 2)))
    ok_bound = all(v <= 1.1 for v in ratios.values())
    ok_dec = ratios[20] > ratios[50] > ratios[100]
    return [
        _item(
            "AC-6",
            "N/(4 sigma sqrt(pi(d-2))) at d=20,50,100",
            "<= 1.1 and decreasing",
            "(" + ", ".join(f"{ratios[d]:.4f}" for d in (20, 50, 100)) + ")",
            "1.1",
            ok_bound and ok_dec,
        )
    ]


def ac7() -> list[CheckItem]:
    """Exact blowing-up solution: trajectory, blowup time, moment identity."""
    d, T = 3, 1.0
    sig = sphere_area(d)
    datum = ExplicitBlowupDatum(d, T)
    grid = build_grid(r_max=40.0, n=4000, inner_fraction=0.5)
    controls = SolverControls(
        t_end=1.2,
        stride=100,
        moment_target=T,
        snapshot_times=(0.2, 0.4, 0.5, 0.6, 0.7, 0.8),
    )
    res = run(datum, grid, controls)

    def exact(r, t):
        return 4.0 * sig * r**d / (r**2 + 2.0 * (d - 2) * (T - t))

    worst = max(
        float(np.max(np.abs(M - exact(grid.r, s)) / exact(grid.r, s)))
        for s, M in res.snapshots.items()
    )
    items = [
        _item("AC-7", "sup rel error vs closed form, t<=0.8", "0", f"{worst:.2e}", "1e-2", worst <= 1e-2)
    ]
    t_det = res.event.detected_time if res.event else math.inf
    items.append(
        _item("AC-7", "detected blowup time", "1.0", f"{t_det:.5f}", "5%", abs(t_det - T) <= 0.05 * T)
    )
    c3 = blowup_constant_fractional(3, 2.0)[0]
    worst_w = 0.0
    for s in (0.2, 0.5, 0.7):
        w = gaussian_moment(grid.r, res.snapshots[s], d, s, T)
        worst_w = max(worst_w, abs(w * (T - s) / c3 - 1.0))
    items.append(
        _item("AC-7", "moment identity W=C(3)/(1-t) at t=0.2,0.5,0.7", "0", f"{worst_w:.2e}", "3e-2", worst_w <= 3e-2)
    )
    return items


def ac8() -> list[CheckItem]:
    """Dichotomy, simulation-backed: global branch, shell blowup, d=2 mass rule."""
    items = []
    d = 3
    # (a) 0.9 u_C truncated: global to t = 10
    prof = TruncatedChandrasekhar(d, 0.9, 0.0, 50.0)
    grid = build_grid(r_max=100.0, n=1200, inner_fraction=0.35, breakpoints=(50.0,))
    times = tuple(0.5 * np.arange(1, 21))
    res = run(prof, grid, SolverControls(t_end=10.0, stride=100, snapshot_times=times))
    rho = [d * res.snapshots[s][0] / (sphere_area(d) * grid.r[0] ** d) for s in times if s in res.snapshots]
    decays = len(rho) == len(times) and bool(np.all(np.diff(rho) <= 1e-9 * res.origin_density[0]))
    items.append(
        _item(
            "AC-8",
            "0.9 u_C truncated: no blowup to t=10",
            "no event, origin density decays",
            f"event={res.event}, decays={decays}",
            "qualitative",
            res.event is None and decays,
        )
    )
    # (b) shell 5% above the sufficient threshold
    n_mass = 1.05 * criterion_constants(d, 2.0).N_threshold
    rep = classify(ShellAtom(d, n_mass, 1.0), d, 2.0)
    t_star = rep.verdict.t_star
    grid = build_grid(r_max=8.0, n=1500, inner_fraction=0.6, breakpoints=(1.0,))
    res = run(ShellAtom(d, n_mass, 1.0), grid, SolverControls(t_end=2.0 * t_star, stride=100))
    t_det = res.event.detected_time if res.event else math.inf
    items.append(
        _item(
            "AC-8",
            "shell N=1.05*C/L blows up by 1.2*T*",
            f"<= {1.2 * t_star:.4f}",
            f"{t_det:.4f} (verdict {rep.verdict.kind})",
            "1.2*T*",
            rep.verdict.kind == "blowup" and t_det <= 1.2 * t_star,
        )
    )
    # (c) d=2 Gaussians either side of mass 8 pi
    hi = classify(Gaussian(2, 8.0 * math.pi * 1.01), 2, 2.0)
    lo = classify(Gaussian(2, 8.0 * math.pi * 0.99), 2, 2.0)
    ok = hi.verdict.kind == "blowup" and lo.verdict.kind == "global"
    items.append(
        _item(
            "AC-8",
            "d=2 Gaussians at 8 pi (1 +- 0.01)",
            "blowup / global",
            f"{hi.verdict.kind} / {lo.verdict.kind}",
            "exact",
            ok,
        )
    )
    return items


def ac9() -> list[CheckItem]:
    """Comparison principle: ordered pairs stay ordered to t = 5."""
    d = 3
    grid = build_grid(r_max=30.0, n=900, inner_fraction=0.4, breakpoints=(1.0, 20.0))
    controls = SolverControls(t_end=5.0, stride=200)
    pairs = [
        ("zero vs 0.9 u_C trunc", Gaussian(d, 0.0), TruncatedChandrasekhar(d, 0.9, 0.0, 20.0)),
        (
            "0.5 vs 0.9 u_C trunc",
            TruncatedChandrasekhar(d, 0.5, 0.0, 20.0),
            TruncatedChandrasekhar(d, 0.9, 0.0, 20.0),
        ),
        ("shell N vs 2N", ShellAtom(d, 20.0, 1.0), ShellAtom(d, 40.0, 1.0)),
    ]
    items = []
    for name, lo, hi in pairs:
        rep = comparison_check(lo, hi, grid, controls)
        items.append(
            _item(
                "AC-9",
                f"ordering: {name}",
                f"<= {rep.tolerance:.2e}",
                f"max violation {rep.max_violation:.2e}",
                "1e-6 * scale",
                rep.ordered,
            )
        )
    return items


def ac10() -> list[CheckItem]:
    """Truncation scaling: blowup time ~ R^2 for inner-truncated 4 u_C."""
    grid = build_grid(r_max=25.0, n=1400, inner_fraction=0.5)
    res = truncation_scaling(4.0, (0.25, 0.5, 1.0), grid=grid, t_end=60.0, d=3)
    ok = 1.6 <= res.exponent <= 2.4
    return [
        _item(
            "AC-10",
            "fitted exponent of T_blowup vs R",
            "2",
            f"{res.exponent:.4f} (T = {', '.join(f'{t:.4f}' for t in res.blowup_times)})",
            "[1.6, 2.4]",
            ok,
        )
    ]


_SCALING_CASES = [
    # (profile, alpha, lambda): fixed deterministic case list
    (Chandrasekhar(3, 2.5), 2.0, 0.13),
    (Chandrasekhar(3, 2.5), 2.0, 7.7),
    (Chandrasekhar(3, 0.9), 2.0, 0.4),
    (Chandrasekhar(3, 1.6), 2.0, 3.1),
    (ShellAtom(3, 80.0, 1.0), 2.0, 0.25),
    (ShellAtom(3, 80.0, 1.0), 2.0, 4.9),
    (ShellAtom(3, 30.0, 2.0), 2.0, 1.7),
    (ShellAtom(3, 140.0, 0.5), 2.0, 0.61),
    (Gaussian(3, 120.0, 1.0), 2.0, 2.3),
    (Gaussian(3, 120.0, 1.0), 2.0, 0.37),
    (Gaussian(3, 5.0, 1.0), 2.0, 5.2),
    (TruncatedChandrasekhar(3, 4.0, 1.0, 50.0), 2.0, 1.9),
    (TruncatedChandrasekhar(3, 4.0, 1.0, 50.0), 2.0, 0.52),
    (ExplicitBlowupDatum(3, 1.0), 2.0, 2.8),
    (ExplicitBlowupDatum(3, 2.0), 2.0, 0.33),
    (Gaussian(2, 8.0 * math.pi * 1.2), 2.0, 3.4),
    (ShellAtom(4, 5.0, 1.0), 1.5, 2.2),
    (ShellAtom(4, 60.0, 1.0), 1.5, 0.48),
    (Chandrasekhar(4, 2.0, 1.5), 1.5, 3.0),
    (Chandrasekhar(4, 0.7, 1.5), 1.5, 0.8),
]


def ac11() -> list[CheckItem]:
    """Verdicts invariant and T* covariant (lambda^-alpha) under datum rescaling.

    The time comparison applies to data whose criterion curve crosses the
    threshold at an interior time; exactly scale-invariant data (eta * u_C)
    exceed it from the start of any window, so only their verdict is checked.
    """
    worst_ratio = 0.0
    mismatches = []
    interior_blowups = 0
    for prof, alpha, lam in _SCALING_CASES:
        d = prof.d
        rep1 = classify(prof, d, alpha)
        rep2 = classify(scale_profile(prof, lam, alpha), d, alpha)
        if rep1.verdict.kind != rep2.verdict.kind:
            mismatches.append((repr(prof), lam, rep1.verdict.kind, rep2.verdict.kind))
            continue
        if rep1.verdict.kind != "blowup":
            continue
        t1, t2 = rep1.verdict.t_star, rep2.verdict.t_star
        immediate = t1 is None or t1 <= rep1.curve.T[0] * (1.0 + 1e-9)
        if immediate or t2 is None:
            continue
        interior_blowups += 1
        ratio = t2 * lam**alpha / t1
        worst_ratio = max(worst_ratio, abs(ratio - 1.0))
    ok = not mismatches and worst_ratio <= 0.05 and interior_blowups >= 5
    return [
        _item(
            "AC-11",
            f"scaling covariance, {len(_SCALING_CASES)} cases ({interior_blowups} timed)",
            "verdicts invariant, T* * lam^alpha invariant",
            f"mismatches={len(mismatches)}, worst T* deviation={worst_ratio:.2e}",
            "5%",
            ok,
        )
    ]


REGISTRY = {
    "AC-1": ac1,
    "AC-2": ac2,
    "AC-3": ac3,
    "AC-4": ac4,
    "AC-5": ac5,
    "AC-6": ac6,
    "AC-7": ac7,
    "AC-8": ac8,
    "AC-9": ac9,
    "AC-10": ac10,
    "AC-11": ac11,
}


def run_acceptance(only: str | None = None):
    """Run all (or one) acceptance criteria serially; returns (items, runtimes)."""
    names = [only] if only else list(REGISTRY)
    for name in names:
        if name not in REGISTRY:
            raise ValidationError(
                f"unknown acceptance criterion {name!r}; known: {list(REGISTRY)}"
            )
    runtimes: dict[str, float] = {}
    results: dict[str, list[CheckItem]] = {}
    for name in names:
        start = time.perf_counter()
        results[name] = REGISTRY[name]()
        runtimes[name] = time.perf_counter() - start
    ordered = [item for name in names for item in results[name]]
    return ordered, runtimes
