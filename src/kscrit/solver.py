"""Direct integration of the radial mass equation (classical diffusion).

The cumulative mass M(r, t) of a radial solution closes into the 1-D equation

    M_t = M_rr - (d-1)/r M_r + sigma_d^{-1} r^{1-d} M M_r,
    M(0, t) = 0,

whose linear part is discretized in divergence form
r^{d-1} d/dr (r^{1-d} dM/dr) (an M-matrix on any grid, so the scheme is
monotone wherever advection is resolved) and whose nonlinear term uses a
second-order centered gradient.  The stiff system is stepped one step at a
time by VODE's variable-coefficient BDF (Brown, Byrne & Hindmarsh 1989,
through ``scipy.integrate.ode``), which takes the analytic tridiagonal
Jacobian in LAPACK band layout and reuses it across steps (chord iteration).
A step that passes t_end, and each snapshot time, is read back by VODE's
interpolation inside its last step.  A run ends in one of three ways: at
t_end; at a blowup, witnessed when the origin density M(r_1) d/(sigma_d r_1^d)
crosses a cap; or with a ``ResolutionError`` when VODE fails or a step breaks
finiteness, nonnegativity or radial monotonicity of M.  The cap is derived,
not set (``_origin_density_cap``), and the absolute tolerance is set per node,
so VODE controls the near-axis masses that the cap reads.  The detected time
must be insensitive to the cap (that insensitivity is part of the test suite).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

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
#: growth of the origin density past its initial scale that a blowup event needs, so no
#: datum that starts above the resolution limit blows up at t = 0
_GROWTH_FACTOR = 100.0
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
    # a breakpoint moves its nearest node onto itself, unless that node is r_max or
    # already holds a breakpoint: then it is inserted as a node of its own
    taken, inserted = {r.size - 1}, []
    for b in breakpoints:
        if 0.0 < b < r_max:
            k = int(np.argmin(np.abs(r - b)))
            if k in taken:
                inserted.append(b)
            else:
                r[k] = b
                taken.add(k)
    r = np.unique(np.concatenate([r, inserted]))
    if np.any(np.diff(r) <= 0) or r[0] <= 0:
        raise ValidationError("grid construction produced non-increasing nodes")
    return SolverGrid(r=r, r_switch=float(r_switch))


@dataclass(frozen=True)
class SolverControls:
    t_end: float = 1.0
    #: record every stride-th accepted step
    stride: int = 1
    #: target horizon for moment tracking (enables the W column)
    moment_target: float | None = None
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValidationError("t_end must be positive")
        if self.stride < 1:
            raise ValidationError("stride must be >= 1")


@dataclass(frozen=True)
class BlowupEvent:
    detected_time: float
    trigger: str  # always "origin_density_cap", the one blowup witness
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
    #: VODE's error-test and Newton convergence failures, each retried by VODE at a
    #: smaller step; a step that breaks a check of ``run`` ends the run instead
    n_rejected: int
    n_rhs: int  # rhs evaluations, Jacobians and LU factorizations of the run's one VODE
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
        self._flux, self._div, self._grad = np.zeros(r.size + 1), np.empty(r.size), np.empty(r.size)
        self.adv_coef = self._calibrated_advection()
        # constant bands of d div / dM and d grad / dM (one-sided last row), laid out as
        # ``jacobian`` returns them: row i's entries right and left of the diagonal sit in
        # columns i + 1 and i - 1
        c, c_out, half_rpow = self.c_flux, np.append(self.c_flux[1:], 0.0), self.half_rpow
        self.div_bands = np.array(
            [np.roll(self.inv_vol * c_out, 1), -self.inv_vol * (c + c_out), np.roll(self.inv_vol * c, -1)]
        )
        self.grad_bands = np.array(
            [np.roll(half_rpow * c_out, 1), half_rpow * (c - c_out), np.roll(-half_rpow * c, -1)]
        )
        self.grad_bands[1, -1], self.grad_bands[2, -2] = 1.0 / h[-1], -1.0 / h[-1]
        self.div_bands[2, -1] = self.grad_bands[2, -1] = 0.0

    def _div_grad(self, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Divergence term and node gradient from the interface fluxes, into reused buffers."""
        # flux[i] = r^(1-d) M_r at the interface between nodes i-1 and i; flux[n] = 0
        flux, div, grad = self._flux, self._div, self._grad
        flux[0] = M[0]
        np.subtract(M[1:], M[:-1], out=flux[1:-1])
        flux[:-1] *= self.c_flux
        np.subtract(flux[1:], flux[:-1], out=div)
        div *= self.inv_vol
        # interface-flux average: exact on A + B r^d, the leading behavior
        # of any smooth mass profile at the axis
        np.add(flux[:-1], flux[1:], out=grad)
        grad *= self.half_rpow
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
        """div + a M grad, in a new array: VODE and callers may hold earlier results."""
        div, grad = self._div_grad(M)
        out = self.adv_coef * M
        out *= grad
        out += div
        if self.pinned:
            out[-1] = 0.0
        return out

    def jacobian(self, M: np.ndarray) -> np.ndarray:
        """d rhs / dM: div + diag(a M) d grad + diag(a grad), in LAPACK band layout.

        ``J[1 + i - j, j]`` is d rhs_i / d M_j, a (3, n) array; the corners ``J[0, 0]``
        and ``J[2, -1]`` lie outside the tridiagonal matrix and are 0.
        """
        # row k of the layout holds entries of matrix row j + k - 1, so it takes a M from there
        aM = np.concatenate([[0.0], self.adv_coef * M, [0.0]])
        J = self.div_bands + self.grad_bands * np.lib.stride_tricks.sliding_window_view(aM, M.size)
        J[1] += self.adv_coef * self._div_grad(M)[1]
        if self.pinned:
            J[1, -1] = J[2, -2] = 0.0
        return J

    def origin_density(self, M: np.ndarray) -> float:
        return float(M[0]) * self.d / (self.sigma * self.r[0] ** self.d)


def gaussian_moment(r: np.ndarray, M: np.ndarray, d: int, t: float, target: float) -> float:
    """Moment W(t) = int M(r) r/(2(T-t)) G(r, T-t) dr against the backward heat weight."""
    if t >= target:
        raise ValidationError("moment weight needs t < target time")
    tau = target - t
    g = (4.0 * math.pi * tau) ** (-0.5 * d) * np.exp(-(r**2) / (4.0 * tau))
    return float(np.trapezoid(M * r / (2.0 * tau) * g, r))


def _origin_density_cap(d: int, r_1: float, density_scale0: float) -> float:
    """Blowup cap on the origin density: the grid's resolution limit d / r_1^2, where the
    core sqrt(2(d-2)(T-t)) of the explicit solution is two inner cells wide, raised to
    ``_GROWTH_FACTOR`` x the initial density scale where the datum starts above it."""
    return max(d / r_1**2, _GROWTH_FACTOR * density_scale0)


def _step_fault(y: np.ndarray, dy: np.ndarray, tol: float) -> tuple[str, int] | None:
    """None if y is finite with y >= -tol and diff(y) >= -tol (taken into ``dy``), else the
    broken property and its first node.  NaN fails both ``min`` tests, -inf the first, and a
    +inf before y[-1] makes some difference -inf or NaN: y[-1] is the one entry left to test."""
    with np.errstate(invalid="ignore"):  # inf - inf, where the check fails anyway
        np.subtract(y[1:], y[:-1], out=dy)
    if y.min() >= -tol and dy.min() >= -tol and math.isfinite(y[-1]):
        return None
    faults = {"non-finite": ~np.isfinite(y), "negative beyond tol": y < -tol,
              "decreasing beyond tol": np.append(False, dy < -tol)}
    what = next(k for k, bad in faults.items() if bad.any())
    return what, int(np.argmax(faults[what]))


def run(
    datum: RadialProfile | MassProfile,
    grid: SolverGrid,
    controls: SolverControls,
) -> SimResult:
    """Integrate the mass equation from the datum until t_end or blowup."""
    # here, so importing kscrit loads no scipy: the integrator loads with the first simulation
    from scipy.integrate import ode

    mass = datum if isinstance(datum, MassProfile) else mass_profile(datum)
    d = mass.d

    pinned = not math.isfinite(mass.total_mass)
    warnings_list = [
        "outer boundary pins M(r_max) at its initial value: finite-domain "
        "approximation of the whole-space problem for unbounded-mass data"
    ] if pinned else []
    disc = _Discretization(grid, d, pinned)
    M = np.asarray(mass.fn(disc.r), dtype=float)
    if np.any(np.diff(M) < 0) or np.any(M < 0):
        raise ValidationError("initial mass profile is not nondecreasing and nonnegative")

    probe_radii = tuple(f * mass.r_char for f in _PROBE_FACTORS)
    snapshots_due = sorted(set(controls.snapshot_times))
    snapshots: dict[float, np.ndarray] = {}

    mono_tol = 1e-11 * max(float(np.max(M)), 1.0)
    ball = disc.sigma * disc.r**d / d  # |B_r|, the volume inside each node
    # largest initial cell-average density; the cap lies far beyond it
    density_scale0 = max(float(np.max(np.diff(M, prepend=0.0) / np.diff(ball, prepend=0.0))), 1e-300)
    cap = _origin_density_cap(d, float(disc.r[0]), density_scale0)
    rows: list[tuple] = []  # (t, dt, origin density, W, probes) of each recorded state
    target = controls.moment_target

    def record(t: float, dt: float) -> None:
        if rows and rows[-1][0] == t:
            return
        W = gaussian_moment(disc.r, M, d, t, target) if target is not None and t < target else math.nan
        rows.append((t, dt, disc.origin_density(M), W, np.interp(probe_radii, disc.r, M)))

    # per node, at most rtol x the mass of B_r at the initial density scale: at high d the
    # axis masses lie far below 1e-9 max M.  Kept positive: VODE divides by atol where M = 0
    atol = np.maximum(
        np.minimum(_ATOL_FACTOR * max(float(np.max(M)), 1e-14), _RTOL * ball * density_scale0),
        np.finfo(float).tiny,
    )
    solver = ode(lambda _t, y: disc.rhs(y), lambda _t, y: disc.jacobian(y))
    solver.set_integrator("vode", method="bdf", rtol=_RTOL, atol=atol, lband=1, uband=1)
    solver.set_initial_value(M, 0.0)

    t = 0.0
    event: BlowupEvent | None = None
    n_steps = 0
    record(0.0, 0.0)  # no step precedes the datum
    t_end, stride, integrate, dy = controls.t_end, controls.stride, solver.integrate, np.empty(M.size - 1)

    with warnings.catch_warnings():
        # scipy reports a VODE failure as a UserWarning "vode: <message>"; raised here, it
        # ends the run below whatever the caller's warning filters say
        warnings.filterwarnings("error", category=UserWarning, message="vode:")
        while t < t_end and event is None:
            if n_steps >= _MAX_STEPS:
                raise NumericsError(f"exceeded max_steps={_MAX_STEPS}")
            try:
                y = integrate(t_end, step=True)
                # VODE steps past t_end; a step that does is read back at t_end
                t_new = min(solver.t, t_end)
                if solver.t > t_new:
                    y = integrate(t_new)
            except UserWarning as exc:
                raise ResolutionError(
                    f"VODE failed at t={t:.6g} with istate={solver.get_return_code()} ({exc})"
                ) from None
            if (fault := _step_fault(y, dy, mono_tol)) is not None:
                what, i = fault
                raise ResolutionError(
                    f"a step left M {what} (tol {mono_tol:.3g}) at node {i} (r={disc.r[i]:.6g}) "
                    f"at t={t:.6g} with r_1={disc.r[0]:.6g}; the grid is too coarse for this datum"
                )
            M_new = np.maximum(y, 0.0)
            while snapshots_due and snapshots_due[0] <= t_new:
                s = snapshots_due.pop(0)
                # VODE interpolates inside its last step
                snapshots[s] = M.copy() if s <= t else np.maximum(integrate(s), 0.0)
            dt, t, M = t_new - t, t_new, M_new
            n_steps += 1
            if n_steps % stride == 0:
                record(t, dt)
            rho = disc.origin_density(M)
            if rho > cap:
                event = BlowupEvent(t, "origin_density_cap", rho)

    record(t, dt)
    # VODE's counters IWORK(12), (13) and (19), and its error-test plus convergence
    # failures, IWORK(22) + IWORK(21)
    iwork = solver._integrator.iwork
    n_rhs, n_jac, n_lu = int(iwork[11]), int(iwork[12]), int(iwork[18])
    n_rejected = int(iwork[21] + iwork[20])

    return SimResult(
        grid,
        *(np.array(column) for column in zip(*rows)),  # t, dt, origin_density, W, probes
        probe_radii=probe_radii,
        M_final=M,
        t_final=t,
        event=event,
        snapshots=snapshots,
        n_steps=n_steps,
        n_rejected=n_rejected,
        n_rhs=n_rhs,
        n_jac=n_jac,
        n_lu=n_lu,
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
    mass_low, mass_high = (x if isinstance(x, MassProfile) else mass_profile(x) for x in (datum_low, datum_high))
    m0_low, m0_high = np.asarray(mass_low.fn(grid.r)), np.asarray(mass_high.fn(grid.r))
    if np.any(m0_low > m0_high + 1e-12 * max(float(np.max(m0_high)), 1.0)):
        raise ValidationError("data are not ordered at t = 0")

    times = tuple(np.linspace(0.0, controls.t_end, 21)[1:])
    ctl = replace(controls, snapshot_times=times)
    res_low = run(mass_low, grid, ctl)
    res_high = run(mass_high, grid, ctl)
    t_cut = min(res.event.detected_time if res.event else math.inf for res in (res_low, res_high))
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
    grid: SolverGrid,
    t_end: float,
    d: int = 3,
) -> TruncationScalingResult:
    """Blowup time versus inner truncation radius for eta*u_C restricted to r > R.

    Runs each truncation to ``t_end`` on ``grid``'s r_max and n with R as a node,
    requires every run to blow up, and least-squares fits log T_blowup against
    log R; the scale invariance of the system makes the exact exponent 2.
    """
    radii = tuple(sorted(float(x) for x in radii))
    if len(radii) < 3:
        raise ValidationError("truncation scaling needs at least 3 radii")
    ctl = SolverControls(t_end=t_end)
    times = []
    for r_in in radii:
        datum = TruncatedChandrasekhar(d, eta, r_in=r_in)
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
