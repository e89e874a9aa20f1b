"""Radial geometry, canonical initial data, and concentration norms.

Everything here lives on the half line r > 0 in dimension d >= 2.  A datum is
either a nonnegative radial density u(r) or, more generally, its radial
distribution function

    M(R) = integral of u over the ball {|y| <= R},

which is the object the mass equation evolves and the only representation in
which shell atoms (mass N concentrated on a sphere) make sense.  The key
scalar functionals are the d/alpha-radial concentration

    sup_{R>0} R^(alpha-d) M(R),

its all-centers Morrey relaxation (estimated by sampling centers on a ray),
and the radial potential-gradient identity grad v(x).x = -r^(2-d) M(r)/sigma_d
for the Poisson coupling.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import betainc, gammainc, gammaln

from .errors import DivergenceError, MeasureDataError, ValidationError

__all__ = [
    "sphere_area",
    "singular_coefficient",
    "Chandrasekhar",
    "TruncatedChandrasekhar",
    "Gaussian",
    "ShellAtom",
    "ExplicitBlowupDatum",
    "Tabulated",
    "RadialProfile",
    "MassProfile",
    "ConcentrationValue",
    "density",
    "mass_profile",
    "radial_concentration",
    "morrey_estimate",
    "potential_gradient",
    "scale_profile",
    "parse_profile",
]

#: Dimension cap; Gamma-laden prefactors lose accuracy slowly above ~60.
MAX_DIMENSION = 200

# Concentration sup scan: points per decade and half-width in decades around
# the characteristic radius.
_CONC_PER_DECADE = 64
_CONC_DECADES = 6


def check_dimension(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise ValidationError(f"dimension must be an integer, got {d!r}")
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    if d > MAX_DIMENSION:
        raise ValidationError(f"dimension capped at {MAX_DIMENSION}, got {d}")
    return int(d)


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"alpha must be in (0, 2], got {alpha}")
    return alpha


def sphere_area(d: int) -> float:
    """Area of the unit sphere in R^d, 2*pi^(d/2)/Gamma(d/2), via log-Gamma."""
    d = check_dimension(d)
    return math.exp(math.log(2.0) + 0.5 * d * math.log(math.pi) - gammaln(0.5 * d))


def singular_coefficient(d: int, alpha: float = 2.0) -> float:
    """Coefficient s(alpha, d) of the singular stationary density s/r^alpha.

    For alpha = 2 (classical diffusion) this is 2(d-2), defined for d >= 3.
    For alpha < 2 the Gamma-product form requires 2*alpha < d; the same
    expression reproduces 2(d-2) in the alpha -> 2 limit.
    """
    d = check_dimension(d)
    alpha = check_alpha(alpha)
    if alpha == 2.0:
        if d < 3:
            raise ValidationError("the singular stationary density needs d >= 3 when alpha = 2")
        return 2.0 * (d - 2)
    if 2.0 * alpha >= d:
        raise ValidationError(
            f"singular_coefficient requires 2*alpha < d, got alpha={alpha}, d={d}"
        )
    log_val = (
        alpha * math.log(2.0)
        + gammaln(0.5 * (d - alpha) + 1.0)
        + gammaln(alpha)
        - gammaln(0.5 * d - alpha + 1.0)
        - gammaln(0.5 * alpha)
    )
    return math.exp(log_val)


# ---------------------------------------------------------------------------
# Profile kinds
# ---------------------------------------------------------------------------


def _check_finite(**params: float) -> None:
    """Reject NaN and infinite profile parameters (NaN slips through every < test)."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValidationError(f"parameter {name} must be finite, got {value}")


@dataclass(frozen=True)
class Chandrasekhar:
    """Scaled singular stationary density eta * s(gamma, d) / r^gamma.

    ``gamma`` is the singularity exponent of the datum itself (gamma = 2 for
    the classical case); it need not equal the diffusion order used later to
    evaluate criteria against this datum.
    """

    d: int
    eta: float
    gamma: float = 2.0

    def __post_init__(self):
        check_dimension(self.d)
        _check_finite(eta=self.eta)
        if self.eta <= 0:
            raise ValidationError("eta must be positive")
        # validates gamma against d as well
        singular_coefficient(self.d, self.gamma)


@dataclass(frozen=True)
class TruncatedChandrasekhar:
    """eta * u_C restricted to the annulus r_in <= r <= r_out."""

    d: int
    eta: float
    r_in: float = 0.0
    r_out: float = math.inf
    gamma: float = 2.0

    def __post_init__(self):
        check_dimension(self.d)
        _check_finite(eta=self.eta, r_in=self.r_in)
        if math.isnan(self.r_out):
            raise ValidationError("parameter r_out must be a number, got nan")
        if self.eta <= 0:
            raise ValidationError("eta must be positive")
        if self.r_in < 0 or self.r_out <= self.r_in:
            raise ValidationError("need 0 <= r_in < r_out")
        singular_coefficient(self.d, self.gamma)
        if self.r_in == 0.0 and self.gamma >= self.d:
            raise DivergenceError("mass diverges at the origin: gamma >= d")


@dataclass(frozen=True)
class Gaussian:
    """Smooth bump of total mass ``mass`` and width ``width``."""

    d: int
    mass: float
    width: float = 1.0

    def __post_init__(self):
        check_dimension(self.d)
        _check_finite(mass=self.mass, width=self.width)
        if self.mass < 0 or self.width <= 0:
            raise ValidationError("need mass >= 0 and width > 0")


@dataclass(frozen=True)
class ShellAtom:
    """Mass ``mass`` spread uniformly on the sphere of radius ``radius``.

    A pure measure: it has a distribution function (a step) but no pointwise
    density, so density-level operations reject it.
    """

    d: int
    mass: float
    radius: float = 1.0
    is_measure: bool = field(default=True, init=False)

    def __post_init__(self):
        check_dimension(self.d)
        _check_finite(mass=self.mass, radius=self.radius)
        if self.mass < 0 or self.radius <= 0:
            raise ValidationError("need mass >= 0 and radius > 0")


@dataclass(frozen=True)
class ExplicitBlowupDatum:
    """Initial datum of the explicit infinite-mass solution blowing up at time T.

    The mass profile is M(r) = 4*sigma_d*r^d/(r^2 + 2(d-2)T) and the density is
    its radial derivative 4(d-2)(r^2 + 2dT)/(r^2 + 2(d-2)T)^2.  Requires d >= 3.
    """

    d: int
    T: float

    def __post_init__(self):
        check_dimension(self.d)
        if self.d < 3:
            raise ValidationError("the explicit blowing-up solution needs d >= 3")
        _check_finite(T=self.T)
        if self.T <= 0:
            raise ValidationError("T must be positive")


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Density sampled on a strictly increasing radius grid (r > 0).

    Below the first gridpoint the density is extended by its first value;
    beyond the last it is zero.
    """

    d: int
    r: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        check_dimension(self.d)
        r = np.asarray(self.r, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if r.ndim != 1 or r.shape != u.shape or r.size < 2:
            raise ValidationError("tabulated profile needs matching 1-d arrays of length >= 2")
        if not np.all(np.isfinite(r)) or r[0] <= 0 or np.any(np.diff(r) <= 0):
            raise ValidationError(
                "tabulated radii must be finite, strictly increasing and start at r > 0"
            )
        if np.any(u < 0) or not np.all(np.isfinite(u)):
            raise ValidationError("tabulated density values must be finite and >= 0")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)


RadialProfile = (
    Chandrasekhar
    | TruncatedChandrasekhar
    | Gaussian
    | ShellAtom
    | ExplicitBlowupDatum
    | Tabulated
)


def density(profile: RadialProfile, r):
    """Pointwise density u(r); vectorized over r.

    Raises MeasureDataError for shell atoms.  Untruncated Chandrasekhar data
    return inf at r = 0 (the singularity is genuine).
    """
    if isinstance(profile, ShellAtom):
        raise MeasureDataError("a shell atom has no pointwise density")
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    if np.any(r_arr < 0):
        raise ValidationError("radius must be >= 0")
    d = profile.d
    if isinstance(profile, Chandrasekhar):
        coef = profile.eta * singular_coefficient(d, profile.gamma)
        with np.errstate(divide="ignore"):
            out = np.where(r_arr > 0, coef / np.maximum(r_arr, 1e-300) ** profile.gamma, np.inf)
    elif isinstance(profile, TruncatedChandrasekhar):
        coef = profile.eta * singular_coefficient(d, profile.gamma)
        inside = (r_arr >= profile.r_in) & (r_arr <= profile.r_out)
        with np.errstate(divide="ignore"):
            vals = coef / np.maximum(r_arr, 1e-300) ** profile.gamma
        vals = np.where((r_arr == 0) & inside, np.inf, vals)
        out = np.where(inside, vals, 0.0)
    elif isinstance(profile, Gaussian):
        w = profile.width
        out = profile.mass * np.exp(-((r_arr / w) ** 2)) / (math.pi ** (d / 2) * w**d)
    elif isinstance(profile, ExplicitBlowupDatum):
        b = 2.0 * (d - 2) * profile.T
        out = 4.0 * (d - 2) * (r_arr**2 + d * b / (d - 2)) / (r_arr**2 + b) ** 2
    elif isinstance(profile, Tabulated):
        out = np.where(
            r_arr <= profile.r[-1],
            np.interp(r_arr, profile.r, profile.u, left=profile.u[0], right=0.0),
            0.0,
        )
    else:
        raise ValidationError(f"unknown profile kind {type(profile).__name__}")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Mass profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MassProfile:
    """Radial distribution function M(r) with the metadata the sups need.

    ``head_exponent``/``head_coefficient`` describe M(r) ~ c r^p as r -> 0;
    the tail pair describes r -> inf (exponent 0 means M -> total_mass).
    Breakpoints are radii where the datum changes character (shell radius,
    truncation radii); scan grids always include them.
    """

    d: int
    fn: Callable[[np.ndarray], np.ndarray]
    total_mass: float
    r_char: float
    breakpoints: tuple[float, ...] = ()
    head_exponent: float = math.nan
    head_coefficient: float = 0.0
    tail_exponent: float = 0.0
    tail_coefficient: float = 0.0
    is_measure: bool = False
    kind: str = ""
    #: point masses (radius, mass); fn includes them, semigroup evaluation
    #: treats them in closed form
    atoms: tuple[tuple[float, float], ...] = ()

    def __call__(self, r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = self.fn(r_arr)
        return float(out[0]) if np.ndim(r) == 0 else out


def mass_profile(profile: RadialProfile) -> MassProfile:
    """Distribution function of a profile, with closed forms where available."""
    d = profile.d
    sig = sphere_area(d)
    if isinstance(profile, Chandrasekhar):
        g = profile.gamma
        if g >= d:
            raise DivergenceError("mass diverges at the origin: gamma >= d")
        c = profile.eta * singular_coefficient(d, g) * sig / (d - g)
        return MassProfile(
            d=d,
            fn=lambda r, c=c, p=d - g: c * r**p,
            total_mass=math.inf,
            r_char=1.0,
            head_exponent=d - g,
            head_coefficient=c,
            tail_exponent=d - g,
            tail_coefficient=c,
            kind="chandrasekhar",
        )
    if isinstance(profile, TruncatedChandrasekhar):
        g = profile.gamma
        c = profile.eta * singular_coefficient(d, g) * sig / (d - g)
        p = d - g
        rin, rout = profile.r_in, profile.r_out
        base = c * rin**p

        def fn(r, c=c, p=p, rin=rin, rout=rout, base=base):
            clipped = np.clip(r, rin, rout)
            return c * clipped**p - base

        total = math.inf if math.isinf(rout) else c * rout**p - base
        bps = tuple(x for x in (rin, rout) if 0 < x < math.inf)
        if rin > 0:
            head_exp, head_c = math.inf, 0.0
        else:
            head_exp, head_c = p, c
        if math.isinf(rout):
            tail_exp, tail_c = p, c
        else:
            tail_exp, tail_c = 0.0, total
        return MassProfile(
            d=d,
            fn=fn,
            total_mass=total,
            r_char=rout if not math.isinf(rout) else max(rin, 1.0),
            breakpoints=bps,
            head_exponent=head_exp,
            head_coefficient=head_c,
            tail_exponent=tail_exp,
            tail_coefficient=tail_c,
            kind="trunc_chandrasekhar",
        )
    if isinstance(profile, Gaussian):
        m, w = profile.mass, profile.width

        def fn(r, m=m, w=w, hd=0.5 * d):
            return m * gammainc(hd, (r / w) ** 2)

        return MassProfile(
            d=d,
            fn=fn,
            total_mass=m,
            r_char=w,
            head_exponent=d,
            head_coefficient=m * math.exp(-gammaln(0.5 * d + 1.0) - d * math.log(w)),
            tail_exponent=0.0,
            tail_coefficient=m,
            kind="gauss",
        )
    if isinstance(profile, ShellAtom):
        m, r0 = profile.mass, profile.radius
        return MassProfile(
            d=d,
            fn=lambda r, m=m, r0=r0: np.where(r >= r0, m, 0.0),
            total_mass=m,
            r_char=r0,
            breakpoints=(r0,),
            head_exponent=math.inf,
            head_coefficient=0.0,
            tail_exponent=0.0,
            tail_coefficient=m,
            is_measure=True,
            kind="shell",
            atoms=((r0, m),),
        )
    if isinstance(profile, ExplicitBlowupDatum):
        b = 2.0 * (d - 2) * profile.T
        c = 4.0 * sig
        return MassProfile(
            d=d,
            fn=lambda r, c=c, b=b: c * r**d / (r**2 + b),
            total_mass=math.inf,
            r_char=math.sqrt(b),
            head_exponent=d,
            head_coefficient=c / b,
            tail_exponent=d - 2,
            tail_coefficient=c,
            kind="exact_datum",
        )
    if isinstance(profile, Tabulated):
        r, u = profile.r, profile.u
        # constant extension below the first node, zero beyond the last
        integ = sig * u * r ** (d - 1)
        m0 = sig * u[0] * r[0] ** d / d
        cum = m0 + np.concatenate(
            [[0.0], np.cumsum(0.5 * (integ[1:] + integ[:-1]) * np.diff(r))]
        )
        total = float(cum[-1])

        def fn(x, r=r, cum=cum, u0=u[0], d=d, sig=sig, total=total):
            out = np.interp(x, r, cum, right=total)
            small = x < r[0]
            if np.any(small):
                out = np.where(small, sig * u0 * np.maximum(x, 0.0) ** d / d, out)
            return out

        half = float(np.interp(0.5 * total, cum, r)) if total > 0 else r[len(r) // 2]
        return MassProfile(
            d=d,
            fn=fn,
            total_mass=total,
            r_char=half,
            breakpoints=(float(r[0]), float(r[-1])),
            head_exponent=d,
            head_coefficient=sig * u[0] / d,
            tail_exponent=0.0,
            tail_coefficient=total,
            kind="table",
        )
    raise ValidationError(f"unknown profile kind {type(profile).__name__}")


def potential_gradient(mass: MassProfile, r: float) -> float:
    """grad v(x).x for the Poisson potential of the datum: -r^(2-d) M(r)/sigma_d."""
    if r <= 0:
        raise ValidationError("radius must be positive")
    return -float(mass(r)) * r ** (2 - mass.d) / sphere_area(mass.d)


# ---------------------------------------------------------------------------
# Concentrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationValue:
    """sup_R R^(alpha-d) M(R), with the radius that (approximately) attains it.

    ``attained_radius`` is 0 or inf when the sup is only attained in a limit;
    an infinite ``value`` flags a datum outside the critical Morrey class.
    """

    value: float
    attained_radius: float


def _limit_value(exponent: float, coefficient: float, shift: float, at_infinity: bool) -> float:
    # limit of R^shift * (c R^exponent); exponent = +inf means M vanishes
    # identically near that end
    if math.isinf(exponent):
        return 0.0
    p = exponent + shift
    if p == 0:
        return coefficient
    vanishes = p > 0 if not at_infinity else p < 0
    return 0.0 if vanishes else math.inf


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximization on [a, b] (log-scaled bracket expected)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def radial_concentration(mass: MassProfile, alpha: float) -> ConcentrationValue:
    """d/alpha-radial concentration sup_R R^(alpha-d) M(R).

    Scans a geometric radius grid (64 points/decade over +-6 decades around
    the characteristic radius, breakpoints included), refines around the best
    gridpoint by golden section, and compares against the analytic R -> 0 and
    R -> inf limits.  Infinite results are returned flagged, not raised.
    """
    alpha = check_alpha(alpha)
    d, shift = mass.d, alpha - mass.d

    lim0 = _limit_value(mass.head_exponent, mass.head_coefficient, shift, at_infinity=False)
    liminf = _limit_value(mass.tail_exponent, mass.tail_coefficient, shift, at_infinity=True)
    if math.isinf(lim0):
        return ConcentrationValue(math.inf, 0.0)
    if math.isinf(liminf):
        return ConcentrationValue(math.inf, math.inf)

    lo = mass.r_char * 10.0 ** (-_CONC_DECADES)
    hi = mass.r_char * 10.0 ** (_CONC_DECADES)
    n = 2 * _CONC_DECADES * _CONC_PER_DECADE + 1
    radii = np.geomspace(lo, hi, n)
    radii = np.unique(np.concatenate([radii, [b for b in mass.breakpoints if lo < b < hi]]))
    vals = radii**shift * mass(radii)
    k = int(np.argmax(vals))

    def fneg(s: float) -> float:
        r = math.exp(s)
        return r**shift * float(mass(r))

    a = math.log(radii[max(k - 1, 0)])
    b = math.log(radii[min(k + 1, len(radii) - 1)])
    s_best, v_best = _golden_max(fneg, a, b)
    r_best = math.exp(s_best)
    # breakpoints can be kinks the golden bracket slides off of
    if vals[k] > v_best:
        r_best, v_best = float(radii[k]), float(vals[k])

    best = max((v_best, r_best), (lim0, 0.0), (liminf, math.inf))
    return ConcentrationValue(float(best[0]), float(best[1]))


def _cap_fraction(s: np.ndarray, a: float, R: float, d: int) -> np.ndarray:
    """Fraction of the sphere {|y| = s} lying inside the ball {|y - x| <= R}, |x| = a."""
    s = np.asarray(s, dtype=float)
    if a == 0.0:
        return (s <= R).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        cstar = (s**2 + a**2 - R**2) / (2.0 * a * np.maximum(s, 1e-300))
    out = np.empty_like(s)
    out[cstar >= 1.0] = 0.0
    out[cstar <= -1.0] = 1.0
    mid = (cstar > -1.0) & (cstar < 1.0)
    if np.any(mid):
        c = cstar[mid]
        z = 1.0 - c**2
        half = 0.5 * betainc(0.5 * (d - 1), 0.5, z)
        out[mid] = np.where(c >= 0.0, half, 1.0 - half)
    out[s == 0.0] = 1.0 if a <= R else 0.0
    return out


def morrey_estimate(profile: RadialProfile, alpha: float, center_samples: int = 16) -> float:
    """Lower estimate of the full (all centers) Morrey norm.

    Samples ball centers on a ray through the origin (radial symmetry makes
    the ray direction irrelevant) and radii on a geometric grid, and returns
    the largest R^(alpha-d) * mass(ball).  The origin is always among the
    centers, with the centered concentration's refined maximizer in the radius
    grid, so the result is >= radial_concentration.  This is an estimate only:
    it can only under-shoot the true sup over all centers.
    """
    alpha = check_alpha(alpha)
    if center_samples < 1:
        raise ValidationError("center_samples must be >= 1")
    d = profile.d
    sig = sphere_area(d)
    mass = mass_profile(profile)
    conc = radial_concentration(mass, alpha)

    rc = mass.r_char
    radii = np.geomspace(rc * 1e-3, rc * 1e3, 73)
    extra = [b for b in mass.breakpoints if b > 0]
    if math.isfinite(conc.attained_radius) and conc.attained_radius > 0:
        extra.append(conc.attained_radius)
    radii = np.unique(np.concatenate([radii, extra])) if extra else radii
    centers = np.concatenate([[0.0], np.geomspace(rc * 1e-2, rc * 1e2, center_samples)])

    if isinstance(profile, ShellAtom):
        r0, m = profile.radius, profile.mass

        def ball_mass(a: float, R: float) -> float:
            return m * float(_cap_fraction(np.array([r0]), a, R, d)[0])

    else:
        # one shared integration grid; the weight sig*u*s^(d-1) is reused
        s_lo = min(rc * 1e-4, min(extra) * 1e-2 if extra else rc * 1e-4)
        s_grid = np.geomspace(max(s_lo, 1e-12), rc * 1e4, 1500)
        u_vals = density(profile, s_grid)
        u_vals = np.where(np.isfinite(u_vals), u_vals, 0.0)
        weight = sig * u_vals * s_grid ** (d - 1)

        def ball_mass(a: float, R: float) -> float:
            frac = _cap_fraction(s_grid, a, R, d)
            # mass below the integration grid counts only when the ball
            # swallows the whole core; neglecting partial overlap keeps the
            # lower-estimate semantics
            inner = float(mass(s_grid[0])) if R - a >= s_grid[0] else 0.0
            return float(np.trapezoid(weight * frac, s_grid)) + inner

    best = conc.value if math.isfinite(conc.value) else math.inf
    if math.isinf(best):
        return math.inf
    for a in centers[1:]:
        for R in radii:
            v = R ** (alpha - d) * ball_mass(float(a), float(R))
            if v > best:
                best = v
    return float(best)


# ---------------------------------------------------------------------------
# Scaling and the profile grammar
# ---------------------------------------------------------------------------


def scale_profile(profile: RadialProfile, lam: float, alpha: float) -> RadialProfile:
    """The rescaled datum u_lam(r) = lam^alpha * u(lam * r).

    This is the scaling that leaves the d/alpha-concentration invariant and
    multiplies criterion times by lam^(-alpha).
    """
    if lam <= 0:
        raise ValidationError("lam must be positive")
    alpha = check_alpha(alpha)
    d = profile.d
    if isinstance(profile, Chandrasekhar):
        return Chandrasekhar(d, profile.eta * lam ** (alpha - profile.gamma), profile.gamma)
    if isinstance(profile, TruncatedChandrasekhar):
        return TruncatedChandrasekhar(
            d,
            profile.eta * lam ** (alpha - profile.gamma),
            profile.r_in / lam,
            profile.r_out / lam,
            profile.gamma,
        )
    if isinstance(profile, Gaussian):
        return Gaussian(d, profile.mass * lam ** (alpha - d), profile.width / lam)
    if isinstance(profile, ShellAtom):
        return ShellAtom(d, profile.mass * lam ** (alpha - d), profile.radius / lam)
    if isinstance(profile, ExplicitBlowupDatum):
        if alpha != 2.0:
            raise ValidationError("the explicit blowing-up datum only scales with alpha = 2")
        return ExplicitBlowupDatum(d, profile.T / lam**2)
    if isinstance(profile, Tabulated):
        return Tabulated(d, profile.r / lam, profile.u * lam**alpha)
    raise ValidationError(f"unknown profile kind {type(profile).__name__}")


_GRAMMAR = re.compile(r"^\s*([a-z_]+)\s*\(\s*(.*?)\s*\)\s*$")

_KIND_PARAMS = {
    "chandrasekhar": ({"eta"}, {"alpha"}),
    "trunc_chandrasekhar": ({"eta", "rin", "rout"}, {"alpha"}),
    "shell": ({"N", "R"}, set()),
    "gauss": ({"mass", "width"}, set()),
    "exact_datum": ({"T"}, set()),
    "table": ({"path"}, set()),
}


def parse_profile(text: str, d: int) -> RadialProfile:
    """Parse the profile grammar ``kind(param=value,...)``.

    Examples: ``chandrasekhar(eta=2.5)``, ``shell(N=30.0,R=1.0)``,
    ``trunc_chandrasekhar(eta=2.5,rin=1.0,rout=50.0)``,
    ``gauss(mass=25.13,width=1.0)``, ``exact_datum(T=1.0)``,
    ``table(path=data.csv)`` with a two-column CSV of (r, u).
    """
    m = _GRAMMAR.match(text)
    if not m:
        raise ValidationError(f"cannot parse profile string {text!r}")
    kind, body = m.group(1), m.group(2)
    if kind not in _KIND_PARAMS:
        raise ValidationError(
            f"unknown profile kind {kind!r}; known: {', '.join(sorted(_KIND_PARAMS))}"
        )
    params: dict[str, str] = {}
    if body:
        for item in body.split(","):
            if "=" not in item:
                raise ValidationError(f"expected param=value, got {item!r} in {text!r}")
            key, val = item.split("=", 1)
            params[key.strip()] = val.strip()
    required, optional = _KIND_PARAMS[kind]
    missing = required - params.keys()
    unknown = params.keys() - required - optional
    if missing:
        raise ValidationError(f"profile {kind!r} is missing parameters: {sorted(missing)}")
    if unknown:
        raise ValidationError(f"profile {kind!r} got unknown parameters: {sorted(unknown)}")

    def num(key: str) -> float:
        try:
            return float(params[key])
        except ValueError as exc:
            raise ValidationError(f"parameter {key!r} of {kind!r} is not a number") from exc

    if kind == "chandrasekhar":
        return Chandrasekhar(d, num("eta"), num("alpha") if "alpha" in params else 2.0)
    if kind == "trunc_chandrasekhar":
        rout = params["rout"]
        rout_val = math.inf if rout.lower() in ("inf", "infinity") else num("rout")
        return TruncatedChandrasekhar(
            d, num("eta"), num("rin"), rout_val, num("alpha") if "alpha" in params else 2.0
        )
    if kind == "shell":
        return ShellAtom(d, num("N"), num("R"))
    if kind == "gauss":
        return Gaussian(d, num("mass"), num("width"))
    if kind == "exact_datum":
        return ExplicitBlowupDatum(d, num("T"))
    # table
    try:
        data = np.loadtxt(params["path"], delimiter=",", ndmin=2)
    except OSError as exc:
        raise ValidationError(f"cannot read table file {params['path']!r}: {exc}") from exc
    if data.shape[1] != 2:
        raise ValidationError("table file must have exactly two columns (r, u)")
    return Tabulated(d, data[:, 0], data[:, 1])
