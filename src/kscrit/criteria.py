"""Criterion constants and the global/blowup dichotomy classifier.

The sufficient blowup condition is sup_T T W0(T) > C, where W0(T) is the
diffusion semigroup of the datum evaluated at the origin and C the explicit
Cauchy-inequality constant

    C(d)      = 16/Gamma(d/2) int rho^(d+1) (2(d-2)+4 rho^2)^(-1) e^(-rho^2) drho
    C_alpha(d) = 2 sigma_d int |R'|^2 / |d/drho (rho^(1-d) R'(rho))| drho,

with C(2) = 2 and C(d) in [1, 2) for d >= 3.  The Gauss-Weierstrass kernel
R = (4 pi)^(-d/2) e^(-rho^2/4) turns the second form into the first, so one
quadrature gives C_alpha for every 0 < alpha <= 2.  Against it stand two test data:
the singular stationary density s(alpha,d)/r^alpha, whose criterion value is

    K_alpha(d) = s(alpha,d) sigma_d int R(rho) rho^(d-1-alpha) drho
               = Gamma(alpha)/(Gamma(alpha/2) Gamma(1+alpha/2))
                 * Gamma((d-alpha)/2+1) Gamma((d-alpha)/2)
                   / (Gamma(d/2-alpha+1) Gamma(d/2))            (K_2 = 1),

and the unit shell, whose criterion value is L_alpha(d) = sup_rho rho^(d-alpha)
R(rho) (closed form 1/4 pi^(-d/2) ((d-2)/2)^(d/2-1) e^(1-d/2) for alpha = 2).
A shell of mass N therefore forces blowup once N > C/L, the implementable
sufficient threshold; data strictly below the singular density are global.
In two dimensions the classical sharp rule applies: blowup iff
sup_r M(r) > 8 pi, and indeed C(2)/L_2(2) = 8 pi.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import IntegrabilityError, NumericsError, ValidationError
from .kernels import (
    RHO_CUT,
    _cut_trapezoid_weights,
    radial_kernel,
    tail_moment,
)
from .radial import (
    ConcentrationValue,
    MassProfile,
    RadialProfile,
    check_alpha,
    check_dimension,
    check_singular_domain,
    mass_profile,
    radial_concentration,
    refine_max,
    scan_max,
    singular_coefficient,
    sphere_area,
)

__all__ = [
    "blowup_constant_fractional",
    "singular_semigroup_value",
    "shell_semigroup_peak",
    "CriterionConstants",
    "criterion_constants",
    "CriterionCurve",
    "criterion_curve",
    "Verdict",
    "CriterionReport",
    "classify",
]

_T_DECADES = (-4.0, 4.0)
#: a T whose offset from the first T, in lattice steps, is this close to an integer
#: lies on the first T's lattice; a T of ``np.geomspace`` misses by about 1e-12
_LATTICE_TOL = 1e-9
#: decimal exponents of the smallest and largest normal floats
_LOG10_NORMAL = (math.log10(sys.float_info.min), math.log10(sys.float_info.max))
_MASS_2D_THRESHOLD = 8.0 * math.pi


def blowup_constant_fractional(d: int, alpha: float) -> tuple[float, float]:
    """C_alpha(d) = 2 sigma_d int rho^(d-1) R'^2 / ((d-1)|R'|/rho + R'') drho.

    For alpha = 2 this is the classical C(d), with C(2) = 2 and C(d) in
    [1, 2) for d >= 3.  It is read from ``SubordinatedKernel.rho_integrals``,
    one quadrature shared with the kernel normalizations.  The denominator,
    the expanded form of |d/drho(rho^(1-d) R')|, is positive for d >= 2
    wherever the kernel sums are finite: its guard, which runs at every node
    the quadrature evaluates (the window's probe pieces included), catches only
    non-finite sums, or an exp that underflows at d = 2.
    Returns (C, abserr) with the quadrature's error estimate for C.
    """
    values, errors = radial_kernel(check_dimension(d), check_alpha(alpha)).rho_integrals
    return float(values[2]), float(errors[2])


def singular_semigroup_value(d: int, alpha: float = 2.0) -> float:
    """K_alpha(d): the criterion value of the singular stationary density.

    Closed form through the subordinator Mellin moment; equals 1 for
    alpha = 2 and tends to Gamma(alpha)/(Gamma(alpha/2) Gamma(1+alpha/2))
    as d -> infinity.
    """
    d = check_dimension(d)
    alpha = check_alpha(alpha)
    check_singular_domain(d, alpha)
    if alpha == 2.0:
        return 1.0
    return math.exp(
        math.lgamma(alpha)
        - math.lgamma(0.5 * alpha)
        - math.lgamma(1.0 + 0.5 * alpha)
        + math.lgamma(0.5 * (d - alpha) + 1.0)
        + math.lgamma(0.5 * (d - alpha))
        - math.lgamma(0.5 * d - alpha + 1.0)
        - math.lgamma(0.5 * d)
    )


def shell_semigroup_peak(d: int, alpha: float = 2.0) -> tuple[float, float]:
    """L_alpha(d) = sup_t t P_t(unit shell)(0) = sup_rho rho^(d-alpha) R(rho).

    Returns (value, maximizing time); the time for a unit-radius shell is
    rho*^(-alpha).  Closed form for alpha = 2; otherwise the log of
    rho^(d-alpha) R is row 0 (rho^d R) of the kernel's ``rho_window`` less
    alpha log(rho), 4 nodes per unit of log(rho), so L evaluates no probe of
    its own; ``refine_max`` refines that maximum by Brent's method on one
    radius per call, with a range error if it lands on the window's boundary.
    """
    d = check_dimension(d)
    alpha = check_alpha(alpha)
    if alpha == 2.0:
        if d == 2:
            # sup only in the limit t -> inf
            return 0.25 / math.pi, math.inf
        log_l = (
            math.log(0.25)
            - 0.5 * d * math.log(math.pi)
            + (0.5 * d - 1.0) * math.log(0.5 * (d - 2))
            + 1.0
            - 0.5 * d
        )
        return math.exp(log_l), 1.0 / (2.0 * (d - 2))
    kernel = radial_kernel(d, alpha)
    x, rows = kernel.rho_window
    log_shell = rows[0] - alpha * x
    if int(np.argmax(log_shell)) in (0, x.size - 1):
        raise NumericsError("shell peak maximizer at the window boundary; extend the rho range")
    rho_star, log_l = refine_max(lambda rho: (d - alpha) * np.log(rho) + kernel.log_R(rho), np.exp(x), log_shell)
    return math.exp(log_l), rho_star**-alpha


@dataclass(frozen=True)
class CriterionConstants:
    d: int
    alpha: float
    sigma_d: float
    C: float
    K: float | None
    L: float
    N_threshold: float
    upper_bound: float | None
    #: quadrature diagnostics (C_abserr, the error estimate for C),
    #: read-only because the record is shared through the cache
    residuals: Mapping = field(default_factory=lambda: MappingProxyType({}))


@lru_cache(maxsize=32)
def criterion_constants(d: int, alpha: float = 2.0) -> CriterionConstants:
    """All criterion constants for (d, alpha) in one immutable record.

    Memoized per (d, alpha), like ``radial_kernel``.
    """
    d = check_dimension(d)
    alpha = check_alpha(alpha)
    if alpha == 2.0:
        k = 1.0 if d >= 3 else None
        upper = None
    else:
        k = singular_semigroup_value(d, alpha)
        upper = 2.0 * d / (d - 2.0) if d > 2 else None  # the bound is infinite at d = 2
    c, c_abserr = blowup_constant_fractional(d, alpha)
    l_val, _ = shell_semigroup_peak(d, alpha)
    return CriterionConstants(
        d=d,
        alpha=alpha,
        sigma_d=sphere_area(d),
        C=c,
        K=k,
        L=l_val,
        N_threshold=c / l_val,
        upper_bound=upper,
        residuals=MappingProxyType({"C_abserr": c_abserr}),
    )


# ---------------------------------------------------------------------------
# Criterion curve T -> T * W0(T)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CriterionCurve:
    T: np.ndarray
    values: np.ndarray
    sup: float
    T_at_sup: float
    #: False when the scan rises again after falling: ``scan_max`` refines only
    #: around the scanned argmax, so the sup may then be a local maximum
    unimodal: bool = True


def _discretely_unimodal(vals: np.ndarray) -> bool:
    tol = 1e-9 * max(float(np.max(np.abs(vals))), 1e-300)
    d = np.diff(vals)
    falls = np.flatnonzero(d < -tol)
    return not (falls.size and np.any(d[falls[0] + 1 :] > tol))


class _CurveEvaluator:
    """T * W0(T) for a whole scan of T as one correlation on a shared log-lattice.

    W0(T) = T^(-d/alpha) int M(T^(1/alpha) rho) |R'(rho)| rho dlog(rho), a
    trapezoid sum over the kernel's ``gradient_nodes``, uniform in log(rho)
    with spacing h.  ``values`` takes T ascending, as every scan is.  A T whose
    log(T)/alpha lies a whole number of steps h past the first T's has its
    products T^(1/alpha) rho on the first T's lattice, so M is evaluated once
    per lattice point and every such T's sum is one output of ``np.correlate``
    of those values with the end-halved weights.  The scan's step is k steps h,
    and every k-th output is kept.  Any other T, such as a refinement
    point of ``scan_max``, is a one-row lattice of its own.  For
    alpha < 2 the mass past the last node RHO_CUT is continued as
    M(s RHO_CUT) (rho/RHO_CUT)^p with p the datum's tail exponent, which
    ``tail_moment`` integrates against |R'| and adds to the last weight.  Like
    every trapezoid sum in log(rho), the sum ends in Gregory's weights for
    that cut (``_cut_trapezoid_weights``).  Point masses are split off and
    added in closed form.
    """

    def __init__(self, mass: MassProfile, alpha: float):
        self.mass = mass
        self.alpha = alpha
        self.d = mass.d
        self.kernel = radial_kernel(mass.d, alpha)
        rho, self.h, weight = self.kernel.gradient_nodes
        self.x0 = math.log(rho[0])
        #: rho-part of the lattice, e^(x0 + h m), grown to the longest lattice asked for
        self._lattice = np.exp(self.x0 + self.h * np.arange(rho.size))
        self.weights = _cut_trapezoid_weights(rho.size, self.h) * weight
        if alpha < 2.0:
            p = max(mass.tail_exponent, 0.0)
            self.weights[-1] += RHO_CUT**-p * tail_moment(self.d, alpha, p + 1.0, True)
        self.atoms = mass.atoms

    def values(self, T: np.ndarray) -> np.ndarray:
        log_scale = np.log(T) / self.alpha
        steps = (log_scale - log_scale[0]) / self.h
        offsets = np.rint(steps)
        on = np.abs(steps - offsets) <= _LATTICE_TOL
        out = np.empty(T.size)
        out[on] = self._lattice_values(T[0], T[on], offsets[on].astype(np.intp))
        for i in np.flatnonzero(~on):
            out[i] = self._lattice_values(T[i], T[i : i + 1], np.zeros(1, np.intp))[0]
        return out

    def _lattice_values(self, t0: float, T: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """T * W0(T) for T = t0 e^(alpha h offsets), offsets >= 0."""
        size = int(offsets[-1]) + self.weights.size
        if self._lattice.size < size:
            self._lattice = np.exp(self.x0 + self.h * np.arange(size))
        # overflow at extreme T shows up as a non-finite value, which criterion_curve rejects
        with np.errstate(over="ignore", invalid="ignore"):
            scale = T ** (1.0 / self.alpha)
            r = t0 ** (1.0 / self.alpha) * self._lattice[:size]
            mvals = self.mass.fn(r)
            for r_atom, m_atom in self.atoms:
                mvals = mvals - m_atom * (r >= r_atom)
            t_factor = T ** (1.0 - self.d / self.alpha)
            out = t_factor * np.correlate(mvals, self.weights)[offsets]
            # point masses in closed form: N * t^(1-d/alpha) R(R0 t^(-1/alpha))
            for r_atom, m_atom in self.atoms:
                out = out + m_atom * t_factor * np.exp(self.kernel.log_R(r_atom / scale))
        return out


def check_integrability(mass: MassProfile, alpha: float) -> None:
    """Gate int u0 (1+|x|)^(-d-alpha) dx < inf, i.e. M(r) = o(r^(d+alpha))."""
    if mass.tail_exponent >= mass.d + alpha:
        raise IntegrabilityError(
            f"datum grows like r^{mass.tail_exponent}, too fast for alpha={alpha}"
        )


def criterion_curve(
    mass: MassProfile,
    alpha: float = 2.0,
    T_range: tuple[float, float] | None = None,
) -> CriterionCurve:
    """Scan T |-> T * W0(T) and refine its supremum, both by ``scan_max``.

    The window defaults to [1e-4, 1e4] times the datum's characteristic
    radius to the power alpha.
    """
    alpha = check_alpha(alpha)
    check_integrability(mass, alpha)
    if T_range is None:
        # formed in logs first: r_char^alpha itself may over- or underflow
        log10_t = alpha * math.log10(mass.r_char)
        lo, hi = log10_t + _T_DECADES[0], log10_t + _T_DECADES[1]
        if not _LOG10_NORMAL[0] <= lo < hi <= _LOG10_NORMAL[1]:
            raise NumericsError(
                f"the default T window 10^[{lo:.4g}, {hi:.4g}] around r_char^alpha is not "
                f"representable in floats (r_char = {mass.r_char:.6g}, alpha = {alpha})"
            )
        t_char = mass.r_char**alpha
        T_range = (10.0 ** _T_DECADES[0] * t_char, 10.0 ** _T_DECADES[1] * t_char)
    T, vals, t_at, sup = scan_max(_CurveEvaluator(mass, alpha).values, *T_range)
    if not (np.all(np.isfinite(vals)) and math.isfinite(sup)):
        raise NumericsError(
            f"criterion curve is not finite on T in [{T[0]:.3g}, {T[-1]:.3g}] "
            f"(d={mass.d}, alpha={alpha})"
        )
    return CriterionCurve(T=T, values=vals, sup=sup, T_at_sup=t_at, unimodal=_discretely_unimodal(vals))


def _first_above(curve: CriterionCurve, level: float) -> float | None:
    """The smallest scanned T whose curve value exceeds ``level`` (None if none does)."""
    above = np.flatnonzero(curve.values > level)
    return float(curve.T[above[0]]) if above.size else None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionTest:
    """One sufficient condition that applies to the datum: ``value`` against
    ``threshold``, and the verdict kind it certifies (None when it decides nothing)."""

    name: str  # "curve" | "density" | "mass_8pi"
    value: float
    threshold: float
    certifies: str | None


def _test(
    name: str, value: float, threshold: float, above: str | None = None, below: str | None = None
) -> CriterionTest:
    certifies = above if value > threshold else below if value < threshold else None
    return CriterionTest(name, value, threshold, certifies)


@dataclass(frozen=True)
class Verdict:
    """One of blowup (with the criterion time), global, or indeterminate, and the tests behind it."""

    kind: str  # "blowup" | "global" | "indeterminate"
    t_star: float | None = None
    margin: float | None = None
    epsilon: float | None = None
    tests: tuple[CriterionTest, ...] = ()


@dataclass(frozen=True, eq=False)
class CriterionReport:
    d: int
    alpha: float
    datum: str
    constants: CriterionConstants
    concentration: ConcentrationValue
    total_mass: float
    curve: CriterionCurve
    verdict: Verdict
    warnings: tuple[str, ...] = ()


def classify(datum: RadialProfile | MassProfile, d: int, alpha: float = 2.0) -> CriterionReport:
    """Render the global/blowup/indeterminate verdict for a radial datum.

    Each test that applies is one ``CriterionTest``: ``curve``, the scanned
    supremum of T*W0(T) against C, certifies blowup above it; ``density``, the
    datum's ratio to the singular stationary density (density data only),
    certifies global below 1.  For d = 2, alpha = 2 the sharp mass rule
    ``mass_8pi``, sup_r M(r) / 8 pi against 1, replaces both.  The verdict is
    the one kind the tests certify, or indeterminate when none does; by the
    comparison principle no two certify opposite kinds, and this is asserted.
    """
    d = check_dimension(d)
    alpha = check_alpha(alpha)
    profile: RadialProfile | None
    if isinstance(datum, MassProfile):
        profile, mass = None, datum
    else:
        profile, mass = datum, mass_profile(datum)
    if mass.d != d:
        raise ValidationError(f"datum has d={mass.d}, classifier asked for d={d}")

    constants = criterion_constants(d, alpha)
    curve = criterion_curve(mass, alpha)
    conc = radial_concentration(mass, alpha)
    warnings_list = list(radial_kernel(d, alpha).warnings)
    if not curve.unimodal:
        warnings_list.append(
            "criterion curve is not discretely unimodal over the scan; the refined "
            "supremum may be a local maximum"
        )

    plane = d == 2 and alpha == 2.0
    if plane:
        # sharp classical rule; sup_r M(r) is the total mass by monotonicity
        tests = [_test("mass_8pi", mass.total_mass / _MASS_2D_THRESHOLD, 1.0, above="blowup", below="global")]
    else:
        tests = [_test("curve", curve.sup, constants.C, above="blowup")]
        if profile is not None and not profile.is_measure:
            density_ratio = profile.weighted_sup(alpha) / singular_coefficient(d, alpha)
            tests.append(_test("density", density_ratio, 1.0, below="global"))
    kinds = {test.certifies for test in tests} - {None}
    if len(kinds) > 1:
        raise NumericsError(
            "criterion consistency violated: datum both below the singular "
            "density and above the blowup threshold"
        )
    kind = kinds.pop() if kinds else "indeterminate"

    t_star = margin = epsilon = None
    if kind == "blowup":
        decisive = next(test for test in tests if test.certifies == "blowup")
        margin = decisive.value / decisive.threshold - 1.0
        t_star = _first_above(curve, constants.C)
        if plane:
            t_hi = float(curve.T[-1])
            # each window must end at a finite float for the scan to size its grid
            while t_star is None and t_hi < 1e16 * mass.r_char**alpha and math.isfinite(t_hi * 1e4):
                ext = criterion_curve(mass, alpha, T_range=(t_hi, t_hi * 1e4))
                t_star, t_hi = _first_above(ext, constants.C), float(ext.T[-1])
            if t_star is None:
                warnings_list.append(
                    f"criterion curve stays at or below C up to T = {t_hi:.6g}, the last T "
                    "scanned: no t_star; the 8 pi mass rule alone decides blowup"
                )
        elif t_star is None:
            warnings_list.append(
                f"only the refined supremum {curve.sup:.10g} of the criterion curve exceeds "
                f"C = {constants.C:.10g}, no scanned T does: no t_star"
            )
    else:
        epsilon = next((test.value for test in tests if test.name != "curve"), None)
    verdict = Verdict(kind, t_star, margin, epsilon, tuple(tests))

    return CriterionReport(
        d=d,
        alpha=alpha,
        datum=repr(profile) if profile is not None else mass.kind or "mass-profile",
        constants=constants,
        concentration=conc,
        total_mass=mass.total_mass,
        curve=curve,
        verdict=verdict,
        warnings=tuple(warnings_list),
    )
