"""Radial geometry, canonical initial data, and concentration norms.

Everything here lives on the half line r > 0 in dimension d >= 2.  A datum is
either a nonnegative radial density u(r) or, more generally, its radial
distribution function

    M(R) = integral of u over the ball {|y| <= R},

which is the object the mass equation evolves and the only representation in
which shell atoms (mass N concentrated on a sphere) make sense.  The key
scalar functional is the d/alpha-radial concentration

    sup_{R>0} R^(alpha-d) M(R).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import DivergenceError, MeasureDataError, NumericsError, ValidationError

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
    "refine_max",
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
        # in logs: the normalization pi^(d/2) w^d overflows a float at high d
        w, m = profile.width, profile.mass
        log_scale = (math.log(m) if m > 0 else -math.inf) - 0.5 * d * math.log(math.pi) - d * math.log(w)
        out = np.exp(log_scale - (r_arr / w) ** 2)
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
        try:
            base = c * rin**p
            total = math.inf if math.isinf(rout) else c * rout**p - base
        except OverflowError:
            raise NumericsError(f"the mass c r^p at r_out={rout:g}, p={p:g} overflows a float") from None

        def fn(r, c=c, p=p, rin=rin, rout=rout, base=base):
            clipped = np.clip(r, rin, rout)
            return c * clipped**p - base

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


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [a, b]."""
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


def refine_max(
    f: Callable[[float], float], grid: np.ndarray, vals: np.ndarray, tol: float = 1e-10
) -> tuple[float, float]:
    """Refine the maximum of a function scanned on a positive geometric grid.

    ``vals`` holds its values on ``grid`` and ``f`` evaluates it at log(r).
    Golden section runs in log(r) between the grid neighbours of the scanned
    argmax; the larger of the refined and the scanned maximum is returned as
    (r, value), since kinks at breakpoints can push the refinement off it.
    """
    k = int(np.argmax(vals))
    lo = math.log(grid[max(k - 1, 0)])
    hi = math.log(grid[min(k + 1, len(grid) - 1)])
    s_best, v_best = _golden_max(f, lo, hi, tol)
    if vals[k] > v_best:
        return float(grid[k]), float(vals[k])
    return math.exp(s_best), v_best


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

    def scaled(r):
        # r^shift alone overflows (to inf: r is a NumPy float) at high d, where
        # M(r) ~ r^d is tiny; only there is the product formed in logs
        m = mass(r)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = r**shift * m
            return np.where(np.isfinite(v), v, np.exp(shift * np.log(r) + np.log(m)))

    r_best, v_best = refine_max(lambda s: float(scaled(np.float64(math.exp(s)))), radii, scaled(radii))
    best = max((v_best, r_best), (lim0, 0.0), (liminf, math.inf))
    return ConcentrationValue(float(best[0]), float(best[1]))


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
    except (OSError, ValueError) as exc:  # ValueError: a header row or a non-numeric cell
        raise ValidationError(f"cannot read table file {params['path']!r}: {exc}") from exc
    if data.shape[1] != 2:
        raise ValidationError("table file must have exactly two columns (r, u)")
    return Tabulated(d, data[:, 0], data[:, 1])
