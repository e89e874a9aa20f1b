"""Direct integration of the radial mass equation (classical diffusion).

The cumulative mass M(r, t) of a radial solution closes into the 1-D equation

    M_t = M_rr - (d-1)/r M_r + sigma_d^{-1} r^{1-d} M M_r,
    M(0, t) = 0,

whose linear part is discretized in divergence form
r^{d-1} d/dr (r^{1-d} dM/dr) (an M-matrix on any grid, so the scheme is
monotone wherever advection is resolved) and whose nonlinear term uses a
second-order centered gradient.  The stiff system is stepped one step at a
time by scipy's BDF on the analytic tridiagonal Jacobian, with its Newton
matrices I - c J factored by LAPACK's tridiagonal LU (gttrf/gttrs) in place of
BDF's SuperLU; a step that breaks nonnegativity or radial monotonicity of M
restarts it at half the step.
Blowup is witnessed discretely: either the origin density M(r_1) d/(sigma_d
r_1^d) crosses a cap, or the step collapses to the floor (or BDF fails) while
that density has grown far past its initial scale.  Both thresholds are
configurable and the detected time must be insensitive to them (that
insensitivity is part of the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.integrate import BDF
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import NumericsError, ResolutionError, ValidationError
from .radial import MassProfile, RadialProfile, TruncatedChandrasekhar, check_dimension, mass_profile, sphere_area

__all__ = [
    "SolverGrid",
    "build_grid",
    "SolverControls",
    "BlowupEvent",
    "SimResult",
    "run",
    "gaussian_moment",
    "comparison_check",
    "ComparisonReport",
    "truncation_scaling",
    "TruncationScalingResult",
]

#: local error control: relative tolerance, and absolute tolerance per unit of max M
_RTOL = 1e-6
_ATOL_FACTOR = 1e-9
_MAX_STEPS = 50_000_000
#: M is recorded at these multiples of the datum's characteristic radius
_PROBE_FACTORS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True, eq=False)
class SolverGrid:
    """Strictly increasing nodes r_1 < ... < r_n with r_1 > 0.

    Default construction is a uniform inner patch continued geometrically,
    with spacing continuous at the switch radius; ``inner_fraction = 0``
    falls back to a pure geometric grid starting at r_max * 1e-4.
    """

    r: np.ndarray
    r_switch: float

    @property
    def n(self) -> int:
        return self.r.size


def build_grid(
    r_max: float,
    n: int,
    inner_fraction: float = 0.5,
    breakpoints: tuple[float, ...] = (),
) -> SolverGrid:
    if r_max <= 0 or n < 16:
        raise ValidationError("need r_max > 0 and n >= 16")
    if not 0.0 <= inner_fraction <= 1.0:
        raise ValidationError("inner_fraction must be in [0, 1]")
    n_in = int(round(n * inner_fraction))
    if n_in >= n:
        r = np.linspace(r_max / n, r_max, n)
        r_switch = r_max
    elif n_in < 2:
        r = np.geomspace(r_max * 1e-4, r_max, n)
        r_switch = r[0]
    else:
        n_out = n - n_in
        # spacing-continuous switch: h = r_sw/n_in and ratio q = 1 + 1/n_in
        r_switch = r_max * (1.0 + 1.0 / n_in) ** (-n_out)
        inner = r_switch * np.arange(1, n_in + 1) / n_in
        outer = r_switch * (1.0 + 1.0 / n_in) ** np.arange(1, n_out + 1)
        r = np.concatenate([inner, outer])
        r[-1] = r_max
    for b in breakpoints:
        if 0.0 < b < r_max:
            k = int(np.argmin(np.abs(r - b)))
            r[k] = b
    r = np.unique(r)
    if np.any(np.diff(r) <= 0) or r[0] <= 0:
        raise ValidationError("grid construction produced non-increasing nodes")
    return SolverGrid(r=r, r_switch=float(r_switch))


@dataclass(frozen=True)
class SolverControls:
    t_end: float = 1.0
    #: origin-density blowup cap; None = 1e8 x initial origin density
    #: (1e8 absolute when the datum has zero density at the origin)
    density_cap: float | None = None
    #: None = 1e-12 * t_end
    dt_floor: float | None = None
    stride: int = 1
    #: target horizon for moment tracking (enables the W column)
    moment_target: float | None = None
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValidationError("t_end must be positive")


@dataclass(frozen=True)
class BlowupEvent:
    detected_time: float
    trigger: str  # "origin_density_cap" | "step_floor"
    origin_density: float


@dataclass(frozen=True, eq=False)
class SimResult:
    grid: SolverGrid
    t: np.ndarray
    dt: np.ndarray
    origin_density: np.ndarray
    W: np.ndarray
    probes: np.ndarray
    probe_radii: tuple[float, ...]
    M_final: np.ndarray
    t_final: float
    event: BlowupEvent | None
    snapshots: dict
    n_steps: int
    #: monotonicity restarts and BDF failures (its error-test rejections stay internal)
    n_rejected: int
    n_rhs: int  # rhs evaluations, Jacobians and LU factorizations, summed over restarts
    n_jac: int
    n_lu: int
    warnings: tuple[str, ...]

    @property
    def blew_up(self) -> bool:
        return self.event is not None


class _Discretization:
    """Precomputed spatial operator on a fixed grid.

    The linear part r^(d-1) d/dr(r^(1-d) dM/dr) is a finite volume scheme in
    the measure r^(1-d) dr: interface coefficients d/(r_i^d - r_{i-1}^d) make
    the flux exact on the operator kernel A + B r^d (so smooth data, whose
    mass grows like r^d at the axis, see no spurious near-axis source), and
    cell volumes are the exact integrals of r^(1-d).  The advection
    coefficient is then calibrated per node so that the singular steady state
    M = 2 sigma_d r^(d-2) is an exact discrete fixed point (well-balanced at
    the global/blowup threshold); the calibration is a 1 + O(h^2/r^2)
    correction of sigma_d^(-1) r^(1-d).
    """

    def __init__(self, grid: SolverGrid, d: int, pinned: bool):
        self.d = check_dimension(d)
        self.sigma = sphere_area(d)
        self.pinned = pinned
        r = grid.r
        if d * math.log(max(float(r[-1]), 1.0)) > 600.0 or d * math.log(float(r[0])) < -600.0:
            raise ValidationError("r^d overflows in this (grid, dimension) combination")
        self.r = r
        r_prev = np.concatenate([[0.0], r[:-1]])
        h = r - r_prev  # gap widths, h[0] = r[0]
        self.c_flux = d / (r**d - r_prev**d)
        edge = np.concatenate([[0.5 * r[0]], 0.5 * (r[1:] + r[:-1]), [r[-1]]])
        if d == 2:
            vol = np.log(edge[1:] / edge[:-1])
        else:
            vol = (edge[:-1] ** (2 - d) - edge[1:] ** (2 - d)) / (d - 2)
        self.inv_vol = 1.0 / vol
        self.half_rpow = 0.5 * r ** (d - 1)
        self.h = h
        self._flux = np.zeros(r.size + 1)
        self.adv_coef = self._calibrated_advection()
        # constant bands (sub, main, super) of d div / dM and d grad / dM (one-sided last row)
        c, c_out, half_rpow = self.c_flux, np.concatenate([self.c_flux[1:], [0.0]]), self.half_rpow
        self.div_bands = (self.inv_vol * c, -self.inv_vol * (c + c_out), self.inv_vol * c_out)
        self.grad_bands = (-half_rpow * c, half_rpow * (c - c_out), half_rpow * c_out)
        self.grad_bands[0][-1], self.grad_bands[1][-1] = -1.0 / h[-1], 1.0 / h[-1]

    def _div_grad(self, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Divergence term and node gradient from one pass over the interface fluxes."""
        # flux[i] = r^(1-d) M_r at the interface between nodes i-1 and i; flux[n] = 0
        flux = self._flux
        flux[0] = M[0]
        np.subtract(M[1:], M[:-1], out=flux[1:-1])
        flux[:-1] *= self.c_flux
        div = (flux[1:] - flux[:-1]) * self.inv_vol
        # interface-flux average: exact on A + B r^d, the leading behavior
        # of any smooth mass profile at the axis
        grad = self.half_rpow * (flux[:-1] + flux[1:])
        grad[-1] = (M[-1] - M[-2]) / self.h[-1]
        return div, grad

    def _calibrated_advection(self) -> np.ndarray:
        base = self.r ** (1 - self.d) / self.sigma
        if self.d < 3:
            return base
        m_c = 2.0 * self.sigma * self.r ** (self.d - 2)
        lin, grad = self._div_grad(m_c)
        prod = m_c * grad
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = np.where(prod > 0.0, -lin / np.maximum(prod, 1e-300), base)
        bad = ~np.isfinite(kappa) | (kappa <= 0.0)
        return np.where(bad, base, kappa)

    def rhs(self, M: np.ndarray) -> np.ndarray:
        div, grad = self._div_grad(M)
        out = div + self.adv_coef * M * grad
        if self.pinned:
            out[-1] = 0.0
        return out

    def jacobian(self, M: np.ndarray) -> sparse.csc_matrix:
        """d rhs / dM: div + diag(a grad) + diag(a M) d grad, tridiagonal."""
        am = self.adv_coef * M
        lower, main, upper = (dv + am * dg for dv, dg in zip(self.div_bands, self.grad_bands))
        main += self.adv_coef * self._div_grad(M)[1]
        if self.pinned:
            lower[-1] = main[-1] = 0.0
        return sparse.diags([lower[1:], main, upper[:-1]], [-1, 0, 1], format="csc")

    def origin_density(self, M: np.ndarray) -> float:
        return float(M[0]) * self.d / (self.sigma * self.r[0] ** self.d)


def _factor_tridiagonal(A: sparse.spmatrix) -> tuple:
    """LAPACK gttrf LU of a tridiagonal matrix, in the form ``_solve_tridiagonal`` takes."""
    *lu, info = dgttrf(A.diagonal(-1), A.diagonal(0), A.diagonal(1),
                       overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info > 0:
        raise NumericsError(f"BDF Newton matrix is singular (zero pivot in row {info})")
    return tuple(lu)


def _solve_tridiagonal(lu: tuple, b: np.ndarray) -> np.ndarray:
    return dgttrs(*lu, b)[0]


def gaussian_moment(r: np.ndarray, M: np.ndarray, d: int, t: float, target: float) -> float:
    """Moment W(t) = int M(r) r/(2(T-t)) G(r, T-t) dr against the backward heat weight."""
    if t >= target:
        raise ValidationError("moment weight needs t < target time")
    tau = target - t
    g = (4.0 * math.pi * tau) ** (-0.5 * d) * np.exp(-(r**2) / (4.0 * tau))
    return float(np.trapezoid(M * r / (2.0 * tau) * g, r))


def run(
    datum: RadialProfile | MassProfile,
    grid: SolverGrid,
    controls: SolverControls,
) -> SimResult:
    """Integrate the mass equation from the datum until t_end or blowup."""
    mass = datum if isinstance(datum, MassProfile) else mass_profile(datum)
    d = mass.d

    warnings_list: list[str] = []
    pinned = not math.isfinite(mass.total_mass)
    if pinned:
        warnings_list.append(
            "outer boundary pins M(r_max) at its initial value: finite-domain "
            "approximation of the whole-space problem for unbounded-mass data"
        )
    disc = _Discretization(grid, d, pinned)
    M = np.asarray(mass.fn(disc.r), dtype=float)
    rho0, cap = disc.origin_density(M), controls.density_cap
    if cap is None:
        cap = 1e8 * rho0 if rho0 > 0 else 1e8
    floor = controls.dt_floor if controls.dt_floor is not None else 1e-12 * controls.t_end
    if np.any(np.diff(M) < 0) or np.any(M < 0):
        raise ValidationError("initial mass profile is not nondecreasing and nonnegative")

    probe_radii = tuple(f * mass.r_char for f in _PROBE_FACTORS)
    snapshots_due = sorted(set(controls.snapshot_times))
    snapshots: dict[float, np.ndarray] = {}

    mono_tol = 1e-11 * max(float(np.max(M)), 1.0)
    # largest initial cell-average density; a step collapse witnesses blowup
    # only when the origin density has grown far beyond it
    cell_density0 = (
        d * np.diff(M, prepend=0.0) / (disc.sigma * np.diff(disc.r**d, prepend=0.0))
    )
    density_scale0 = max(float(np.max(cell_density0)), 1e-300)
    rec: dict[str, list] = {k: [] for k in ("t", "dt", "rho", "W", "probes")}

    def record(t: float, dt: float) -> None:
        if rec["t"] and rec["t"][-1] == t:
            return
        rec["t"].append(t)
        rec["dt"].append(dt)
        rec["rho"].append(disc.origin_density(M))
        if controls.moment_target is not None and t < controls.moment_target:
            rec["W"].append(gaussian_moment(disc.r, M, d, t, controls.moment_target))
        else:
            rec["W"].append(math.nan)
        rec["probes"].append(np.interp(probe_radii, disc.r, M))

    atol = _ATOL_FACTOR * max(float(np.max(M)), 1e-14)
    counts = np.zeros(3, dtype=int)  # rhs evaluations, Jacobians, LU factorizations

    def start(t0: float, y0: np.ndarray, first_step: float | None = None) -> BDF:
        solver = BDF(lambda _t, y: disc.rhs(y), t0, y0, controls.t_end, rtol=_RTOL, atol=atol,
                     jac=lambda _t, y: disc.jacobian(y), first_step=first_step)

        def lu(A: sparse.spmatrix) -> tuple:
            solver.nlu += 1
            return _factor_tridiagonal(A)

        # the Newton matrix I - c J is tridiagonal: LAPACK's banded LU, not BDF's SuperLU
        solver.lu, solver.solve_lu = lu, _solve_tridiagonal
        return solver

    def retire(solver: BDF) -> None:
        counts[:] += (solver.nfev, solver.njev, solver.nlu)
        vars(solver).clear()  # its closures refer back to it: free the LU factors now

    def collapse_event(t: float) -> BlowupEvent | None:
        rho = disc.origin_density(M)
        return BlowupEvent(t, "step_floor", rho) if rho > 100.0 * density_scale0 else None

    t = 0.0
    solver = start(t, M)
    event: BlowupEvent | None = None
    n_steps = n_rejected = 0
    record(0.0, float(solver.h_abs))

    while t < controls.t_end and event is None:
        if n_steps >= _MAX_STEPS:
            raise NumericsError(f"exceeded max_steps={_MAX_STEPS}")
        message = solver.step()
        y = solver.y
        if solver.status == "failed" or not (
            np.all(np.isfinite(y)) and np.all(np.diff(y) >= -mono_tol) and np.all(y >= -mono_tol)
        ):
            # restart from the last accepted state at half the step
            n_rejected += 1
            dt = 0.0 if message else 0.5 * float(solver.step_size)
            if dt < floor:
                event = collapse_event(t)
                if event is None:
                    raise ResolutionError(
                        f"{message or 'monotonicity failures'} at t={t:.6g} below dt={floor:.3e} "
                        "without density growth; the grid is too coarse for this datum"
                    )
                break
            retire(solver)
            solver = start(t, M, first_step=dt)
            continue

        dt = float(solver.step_size)
        while snapshots_due and snapshots_due[0] <= solver.t:
            s = snapshots_due.pop(0)
            snapshots[s] = M.copy() if s <= t else np.maximum(solver.dense_output()(s), 0.0)
        t = float(solver.t)
        M = np.maximum(y, 0.0)
        n_steps += 1
        if n_steps % controls.stride == 0:
            record(t, dt)
        rho = disc.origin_density(M)
        if rho > cap:
            event = BlowupEvent(t, "origin_density_cap", rho)
        elif dt < floor:
            event = collapse_event(t)

    retire(solver)
    record(t, dt)

    return SimResult(
        grid=grid,
        t=np.array(rec["t"]),
        dt=np.array(rec["dt"]),
        origin_density=np.array(rec["rho"]),
        W=np.array(rec["W"]),
        probes=np.array(rec["probes"]),
        probe_radii=probe_radii,
        M_final=M,
        t_final=t,
        event=event,
        snapshots=snapshots,
        n_steps=n_steps,
        n_rejected=n_rejected,
        n_rhs=int(counts[0]),
        n_jac=int(counts[1]),
        n_lu=int(counts[2]),
        warnings=tuple(warnings_list),
    )


@dataclass(frozen=True)
class ComparisonReport:
    ordered: bool
    max_violation: float
    tolerance: float
    first_violation: tuple[float, float] | None  # (time, radius)
    times_checked: tuple[float, ...]


def comparison_check(
    datum_low: RadialProfile | MassProfile,
    datum_high: RadialProfile | MassProfile,
    grid: SolverGrid,
    controls: SolverControls,
) -> ComparisonReport:
    """Co-integrate an ordered pair and verify M_low <= M_high stays true.

    Orderedness is checked at 20 evenly spaced checkpoint times on the shared
    grid with tolerance 1e-6 * max M; if either run blows up, only checkpoints
    before the first blowup are compared.
    """
    mass_low = datum_low if isinstance(datum_low, MassProfile) else mass_profile(datum_low)
    mass_high = datum_high if isinstance(datum_high, MassProfile) else mass_profile(datum_high)
    m0_low = np.asarray(mass_low.fn(grid.r))
    m0_high = np.asarray(mass_high.fn(grid.r))
    if np.any(m0_low > m0_high + 1e-12 * max(float(np.max(m0_high)), 1.0)):
        raise ValidationError("data are not ordered at t = 0")

    times = tuple(np.linspace(0.0, controls.t_end, 21)[1:])
    ctl = replace(controls, snapshot_times=times)
    res_low = run(mass_low, grid, ctl)
    res_high = run(mass_high, grid, ctl)
    t_cut = min(
        res_low.event.detected_time if res_low.event else math.inf,
        res_high.event.detected_time if res_high.event else math.inf,
    )
    shared = [s for s in times if s in res_low.snapshots and s in res_high.snapshots and s < t_cut]
    scale = max(float(np.max(m0_high)), 1.0)
    tol = 1e-6 * scale
    worst = -math.inf
    first: tuple[float, float] | None = None
    for s in shared:
        diff = res_low.snapshots[s] - res_high.snapshots[s]
        v = float(np.max(diff))
        worst = max(worst, v)
        if v > tol and first is None:
            first = (s, float(grid.r[int(np.argmax(diff))]))
    return ComparisonReport(
        ordered=first is None,
        max_violation=worst,
        tolerance=tol,
        first_violation=first,
        times_checked=tuple(shared),
    )


@dataclass(frozen=True)
class TruncationScalingResult:
    radii: tuple[float, ...]
    blowup_times: tuple[float, ...]
    exponent: float
    prefactor: float


def truncation_scaling(
    eta: float,
    radii: tuple[float, ...],
    d: int = 3,
    grid: SolverGrid | None = None,
    controls: SolverControls | None = None,
) -> TruncationScalingResult:
    """Blowup time versus inner truncation radius for eta*u_C restricted to r > R.

    Runs each truncation, requires every run to blow up, and least-squares
    fits log T_blowup against log R; the scale invariance of the system makes
    the exact exponent 2.
    """
    radii = tuple(sorted(float(x) for x in radii))
    if len(radii) < 3:
        raise ValidationError("truncation scaling needs at least 3 radii")
    if grid is None:
        grid = build_grid(r_max=40.0 * max(radii), n=1600, inner_fraction=0.5)
    times = []
    for r_in in radii:
        datum = TruncatedChandrasekhar(d, eta, r_in=r_in)
        ctl = controls or SolverControls(t_end=50.0 * r_in**2)
        g = build_grid(
            r_max=float(grid.r[-1]), n=grid.n, inner_fraction=0.5, breakpoints=(r_in,)
        )
        res = run(datum, g, ctl)
        if res.event is None:
            raise NumericsError(
                f"truncation run R={r_in} did not blow up by t={ctl.t_end}; "
                "experiment inconclusive"
            )
        times.append(res.event.detected_time)
    slope, intercept = np.polyfit(np.log(radii), np.log(times), 1)
    return TruncationScalingResult(
        radii=radii,
        blowup_times=tuple(times),
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
    )
