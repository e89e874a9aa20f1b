"""Radial geometry, canonical initial data, and concentration norms.

Everything here lives on the half line r > 0 in dimension d >= 2.  A datum is
either a nonnegative radial density u(r) or, more generally, its radial
distribution function

    M(R) = integral of u over the ball {|y| <= R},

which is the object the mass equation evolves and the only representation in
which shell atoms (mass N concentrated on a sphere) make sense.  The key
scalar functional is the d/alpha-radial concentration

    sup_{R>0} R^(alpha-d) M(R).

Each kind of datum is one ``RadialProfile`` subclass that carries everything
about itself: its grammar name and keys, its density, its distribution
function M, its rescaling and its weighted density sup.  The power laws
``Chandrasekhar`` and ``TruncatedChandrasekhar`` share one implementation.
The module-level ``density``, ``mass_profile``, ``scale_profile`` and
``parse_profile`` are the entry points and hold no per-kind code.
"""

from __future__ import annotations

import math
import re
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from .errors import MeasureDataError, NumericsError, ValidationError

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
    "scan_max",
    "refine_max",
    "scale_profile",
    "parse_profile",
]

#: Dimension cap; Gamma-laden prefactors lose accuracy slowly above ~60.
MAX_DIMENSION = 200

#: points per decade of every supremum scan (``scan_max``); the criterion
#: curve's T grid is this scan
_SCAN_PER_DECADE = 32
#: stopping width of the Brent refinement in ``refine_max``, in log coordinates
_SCAN_TOL = 1e-6
#: scanned values this close to the maximum, relative to it, are a plateau of it
_PLATEAU_REL = 1e-12
#: a limit of r^(alpha-d) M(r) this close to the scanned sup continues the scan's
#: plateau.  Tighter than _PLATEAU_REL: the concentration scan ends where a limit
#: approached like r^-2 (the exact datum's) is 1e-12 away
_LIMIT_REL = 1e-13


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


def check_fractional_domain(d: int, alpha: float) -> None:
    """The fractional singular density, and every comparison with it, needs alpha = 2 or 2*alpha < d."""
    if alpha < 2.0 and 2.0 * alpha >= d:
        raise ValidationError(
            f"the fractional singular comparison requires 2*alpha < d, got alpha={alpha}, d={d}"
        )


def sphere_area(d: int) -> float:
    """Area of the unit sphere in R^d, 2*pi^(d/2)/Gamma(d/2), via log-Gamma."""
    d = check_dimension(d)
    return math.exp(math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d))


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
    check_fractional_domain(d, alpha)
    log_val = (
        alpha * math.log(2.0)
        + math.lgamma(0.5 * (d - alpha) + 1.0)
        + math.lgamma(alpha)
        - math.lgamma(0.5 * d - alpha + 1.0)
        - math.lgamma(0.5 * alpha)
    )
    return math.exp(log_val)


# ---------------------------------------------------------------------------
# Mass profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MassProfile:
    """Radial distribution function M(r) with the metadata the sups need.

    ``head_exponent``/``head_coefficient`` describe M(r) ~ c r^p as r -> 0;
    the tail pair describes r -> inf (exponent 0 means M -> total_mass).
    Breakpoints are radii where the datum changes character (shell radius,
    truncation radii, every node of a table); scan grids always include them.
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
    kind: str = ""
    #: point masses (radius, mass); fn includes them, semigroup evaluation
    #: treats them in closed form
    atoms: tuple[tuple[float, float], ...] = ()

    def __call__(self, r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = self.fn(r_arr)
        return float(out[0]) if np.ndim(r) == 0 else out


# ---------------------------------------------------------------------------
# Profile kinds
# ---------------------------------------------------------------------------


def _exp_or_inf(x: float) -> float:
    """exp(x), or inf where it is beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_finite(**params: float) -> None:
    """Reject NaN and infinite profile parameters (NaN slips through every < test)."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValidationError(f"parameter {name} must be finite, got {value}")


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """A radial datum in dimension ``d``: one frozen dataclass per kind.

    Each kind sets ``kind`` (its grammar name, also ``MassProfile.kind``),
    ``grammar`` (grammar key -> constructor field, in parse order) with its
    ``optional`` keys and ``is_measure``, and implements the hooks behind the
    module-level entry points: ``_from_grammar``, ``_density_at`` (1-d array
    of radii >= 0), ``_mass_profile`` and ``_scaled``.
    """

    kind: ClassVar[str]
    grammar: ClassVar[dict[str, str]]
    optional: ClassVar[frozenset[str]] = frozenset()
    #: a pure measure has a distribution function but no pointwise density
    is_measure: ClassVar[bool] = False

    d: int

    def __post_init__(self):
        check_dimension(self.d)

    @classmethod
    def _from_grammar(cls, d: int, params: dict[str, str]) -> RadialProfile:
        """Build the datum from the grammar's (already key-checked) values."""

        def num(key: str) -> float:
            try:
                return float(params[key])
            except ValueError as exc:
                raise ValidationError(f"parameter {key!r} of {cls.kind!r} is not a number") from exc

        return cls(d, **{name: num(key) for key, name in cls.grammar.items() if key in params})

    def weighted_sup(self, alpha: float) -> float:
        """sup_r r^alpha u(r), the comparison of the datum against the singular density."""
        alpha = check_alpha(alpha)
        mass = mass_profile(self)

        def weighted(r):
            u = density(self, r)
            return r**alpha * np.where(np.isfinite(u), u, 0.0)

        return scan_max(weighted, mass.r_char * 1e-6, mass.r_char * 1e6, mass.breakpoints)[3]


class _PowerLaw(RadialProfile):
    """eta * s(gamma, d) / r^gamma on r_in <= r <= r_out: both Chandrasekhar kinds."""

    optional = frozenset({"alpha"})

    def __post_init__(self):
        super().__post_init__()
        _check_finite(eta=self.eta, r_in=self.r_in)
        if math.isnan(self.r_out):
            raise ValidationError("parameter r_out must be a number, got nan")
        if self.eta <= 0:
            raise ValidationError("eta must be positive")
        if self.r_in < 0 or self.r_out <= self.r_in:
            raise ValidationError("need 0 <= r_in < r_out")
        # validates gamma against d as well; it forces gamma < d, so M is finite
        singular_coefficient(self.d, self.gamma)

    def _density_at(self, r):
        coef = self.eta * singular_coefficient(self.d, self.gamma)
        inside = (r >= self.r_in) & (r <= self.r_out)
        with np.errstate(divide="ignore"):
            vals = coef / np.maximum(r, 1e-300) ** self.gamma
        return np.where(inside, np.where(r == 0, np.inf, vals), 0.0)

    def _mass_profile(self) -> MassProfile:
        d, rin, rout = self.d, self.r_in, self.r_out
        p = d - self.gamma
        c = self.eta * singular_coefficient(d, self.gamma) * sphere_area(d) / p
        try:
            base = c * rin**p
            total = math.inf if math.isinf(rout) else c * rout**p - base
        except OverflowError:
            raise NumericsError(f"the mass c r^p at r_out={rout:g}, p={p:g} overflows a float") from None

        def fn(r, c=c, p=p, rin=rin, rout=rout, base=base):
            return c * np.clip(r, rin, rout) ** p - base

        head_exp, head_c = (math.inf, 0.0) if rin > 0 else (p, c)
        tail_exp, tail_c = (p, c) if math.isinf(rout) else (0.0, total)
        return MassProfile(
            d=d,
            fn=fn,
            total_mass=total,
            r_char=rout if not math.isinf(rout) else max(rin, 1.0),
            breakpoints=tuple(x for x in (rin, rout) if 0 < x < math.inf),
            head_exponent=head_exp,
            head_coefficient=head_c,
            tail_exponent=tail_exp,
            tail_coefficient=tail_c,
            kind=self.kind,
        )

    def weighted_sup(self, alpha: float) -> float:
        # closed form: r^(alpha-gamma) is monotone, so the sup sits at a cut or a limit
        alpha = check_alpha(alpha)
        coef = self.eta * singular_coefficient(self.d, self.gamma)
        e = alpha - self.gamma
        if e == 0.0:
            return coef
        if e > 0.0:
            return coef * self.r_out**e if math.isfinite(self.r_out) else math.inf
        return coef * self.r_in**e if self.r_in > 0 else math.inf


@dataclass(frozen=True)
class Chandrasekhar(_PowerLaw):
    """Scaled singular stationary density eta * s(gamma, d) / r^gamma.

    ``gamma`` is the singularity exponent of the datum itself (gamma = 2 for
    the classical case); it need not equal the diffusion order used later to
    evaluate criteria against this datum.
    """

    kind = "chandrasekhar"
    grammar = {"eta": "eta", "alpha": "gamma"}
    r_in = 0.0
    r_out = math.inf

    eta: float
    gamma: float = 2.0

    def _scaled(self, lam: float, alpha: float) -> Chandrasekhar:
        return replace(self, eta=self.eta * lam ** (alpha - self.gamma))


@dataclass(frozen=True)
class TruncatedChandrasekhar(_PowerLaw):
    """eta * u_C restricted to the annulus r_in <= r <= r_out."""

    kind = "trunc_chandrasekhar"
    grammar = {"rout": "r_out", "eta": "eta", "rin": "r_in", "alpha": "gamma"}

    eta: float
    r_in: float = 0.0
    r_out: float = math.inf
    gamma: float = 2.0

    def _scaled(self, lam: float, alpha: float) -> TruncatedChandrasekhar:
        return replace(
            self, eta=self.eta * lam ** (alpha - self.gamma), r_in=self.r_in / lam, r_out=self.r_out / lam
        )


@dataclass(frozen=True)
class Gaussian(RadialProfile):
    """Smooth bump of total mass ``mass`` and width ``width``."""

    kind = "gauss"
    grammar = {"mass": "mass", "width": "width"}

    mass: float
    width: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _check_finite(mass=self.mass, width=self.width)
        if self.mass < 0 or self.width <= 0:
            raise ValidationError("need mass >= 0 and width > 0")

    def _log_peak_density(self) -> float:
        # in logs: u(0) = m pi^(-d/2) w^(-d) overflows a float at high d or small w
        d, m, w = self.d, self.mass, self.width
        return (math.log(m) if m > 0 else -math.inf) - 0.5 * d * math.log(math.pi) - d * math.log(w)

    def _density_at(self, r):
        return np.exp(self._log_peak_density() - (r / self.width) ** 2)

    def weighted_sup(self, alpha: float) -> float:
        # closed form: r^alpha e^(-(r/w)^2) peaks at (r/w)^2 = alpha/2
        alpha = check_alpha(alpha)
        return _exp_or_inf(
            self._log_peak_density() + alpha * (math.log(self.width) + 0.5 * (math.log(0.5 * alpha) - 1.0))
        )

    def _mass_profile(self) -> MassProfile:
        # scipy.special loads with the first Gaussian datum, not with kscrit
        from scipy.special import gammainc

        d, m, w = self.d, self.mass, self.width

        def fn(r, m=m, w=w, hd=0.5 * d):
            return m * gammainc(hd, (r / w) ** 2)

        return MassProfile(
            d=d,
            fn=fn,
            total_mass=m,
            r_char=w,
            head_exponent=d,
            # M(r) ~ u(0) |B_r| as r -> 0
            head_coefficient=_exp_or_inf(
                self._log_peak_density() + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
            ),
            tail_exponent=0.0,
            tail_coefficient=m,
            kind=self.kind,
        )

    def _scaled(self, lam: float, alpha: float) -> Gaussian:
        return replace(self, mass=self.mass * lam ** (alpha - self.d), width=self.width / lam)


@dataclass(frozen=True)
class ShellAtom(RadialProfile):
    """Mass ``mass`` spread uniformly on the sphere of radius ``radius``.

    A pure measure: it has a distribution function (a step) but no pointwise
    density, so density-level operations reject it.
    """

    kind = "shell"
    grammar = {"N": "mass", "R": "radius"}
    is_measure = True

    mass: float
    radius: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _check_finite(mass=self.mass, radius=self.radius)
        if self.mass < 0 or self.radius <= 0:
            raise ValidationError("need mass >= 0 and radius > 0")

    def _density_at(self, r):
        raise MeasureDataError("a shell atom has no pointwise density")

    def _mass_profile(self) -> MassProfile:
        m, r0 = self.mass, self.radius
        return MassProfile(
            d=self.d,
            fn=lambda r, m=m, r0=r0: np.where(r >= r0, m, 0.0),
            total_mass=m,
            r_char=r0,
            breakpoints=(r0,),
            head_exponent=math.inf,
            head_coefficient=0.0,
            tail_exponent=0.0,
            tail_coefficient=m,
            kind=self.kind,
            atoms=((r0, m),),
        )

    def _scaled(self, lam: float, alpha: float) -> ShellAtom:
        return replace(self, mass=self.mass * lam ** (alpha - self.d), radius=self.radius / lam)


@dataclass(frozen=True)
class ExplicitBlowupDatum(RadialProfile):
    """Initial datum of the explicit infinite-mass solution blowing up at time T.

    The mass profile is M(r) = 4*sigma_d*r^d/(r^2 + 2(d-2)T) and the density is
    its radial derivative 4(d-2)(r^2 + 2dT)/(r^2 + 2(d-2)T)^2.  Requires d >= 3.
    Both are formed in s = r^2/b, b = 2(d-2)T, so that neither r^d nor
    (r^2 + b)^2 under- or overflows at tiny or huge T.
    """

    kind = "exact_datum"
    grammar = {"T": "T"}

    T: float

    def __post_init__(self):
        super().__post_init__()
        if self.d < 3:
            raise ValidationError("the explicit blowing-up solution needs d >= 3")
        _check_finite(T=self.T)
        if self.T <= 0:
            raise ValidationError("T must be positive")

    def _density_at(self, r):
        d = self.d
        b = 2.0 * (d - 2) * self.T
        s = r**2 / b
        return 4.0 * (d - 2) / b * ((s + d / (d - 2)) / (1.0 + s) / (1.0 + s))

    def _mass_profile(self) -> MassProfile:
        d = self.d
        b = 2.0 * (d - 2) * self.T
        c = 4.0 * sphere_area(d)

        def fn(r):
            s = r**2 / b
            return c * r ** (d - 2) * s / (1.0 + s)

        return MassProfile(
            d=d,
            fn=fn,
            total_mass=math.inf,
            r_char=math.sqrt(b),
            head_exponent=d,
            head_coefficient=c / b,
            tail_exponent=d - 2,
            tail_coefficient=c,
            kind=self.kind,
        )

    def _scaled(self, lam: float, alpha: float) -> ExplicitBlowupDatum:
        if alpha != 2.0:
            raise ValidationError("the explicit blowing-up datum only scales with alpha = 2")
        return replace(self, T=self.T / lam**2)


@dataclass(frozen=True, eq=False)
class Tabulated(RadialProfile):
    """Density sampled on a strictly increasing radius grid (r > 0).

    Below the first gridpoint the density is extended by its first value;
    beyond the last it is zero.  The grammar reads it from a two-column CSV
    of (r, u).
    """

    kind = "table"
    grammar = {"path": "path"}  # read by _from_grammar: the file gives r and u

    r: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        super().__post_init__()
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

    @classmethod
    def _from_grammar(cls, d: int, params: dict[str, str]) -> Tabulated:
        path = params["path"]
        with warnings.catch_warnings():
            # an empty file is reported below, not by loadtxt's UserWarning
            warnings.simplefilter("ignore", UserWarning)
            try:
                data = np.loadtxt(path, delimiter=",", ndmin=2)
            except (OSError, ValueError) as exc:  # ValueError: a header row or a non-numeric cell
                raise ValidationError(f"cannot read table file {path!r}: {exc}") from exc
        if data.size == 0:
            raise ValidationError(f"table file {path!r} holds no data")
        if data.shape[1] != 2:
            raise ValidationError("table file must have exactly two columns (r, u)")
        return cls(d, data[:, 0], data[:, 1])

    def _density_at(self, r):
        return np.where(r <= self.r[-1], np.interp(r, self.r, self.u, left=self.u[0], right=0.0), 0.0)

    def _mass_profile(self) -> MassProfile:
        d, r, u = self.d, self.r, self.u
        sig = sphere_area(d)
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
            breakpoints=tuple(r.tolist()),
            head_exponent=d,
            head_coefficient=sig * u[0] / d,
            tail_exponent=0.0,
            tail_coefficient=total,
            kind=self.kind,
        )

    def _scaled(self, lam: float, alpha: float) -> Tabulated:
        return replace(self, r=self.r / lam, u=self.u * lam**alpha)


def density(profile: RadialProfile, r):
    """Pointwise density u(r); vectorized over r.

    Raises MeasureDataError for shell atoms.  Untruncated Chandrasekhar data
    return inf at r = 0 (the singularity is genuine).
    """
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    if not np.all(r_arr >= 0):  # NaN fails this too
        raise ValidationError("radius must be >= 0")
    out = profile._density_at(r_arr)
    return float(out[0]) if scalar else out


def mass_profile(profile: RadialProfile) -> MassProfile:
    """Distribution function of a profile, with closed forms where available."""
    return profile._mass_profile()


def scale_profile(profile: RadialProfile, lam: float, alpha: float) -> RadialProfile:
    """The rescaled datum u_lam(r) = lam^alpha * u(lam * r).

    This is the scaling that leaves the d/alpha-concentration invariant and
    multiplies criterion times by lam^(-alpha).
    """
    if lam <= 0:
        raise ValidationError("lam must be positive")
    alpha = check_alpha(alpha)
    return profile._scaled(lam, alpha)


# ---------------------------------------------------------------------------
# Concentrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationValue:
    """sup_R R^(alpha-d) M(R), with the radius that (approximately) attains it.

    ``attained_radius`` is 0 or inf when the sup is only attained in a limit,
    and the left end of a plateau where the sup is attained along one;
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


def scan_max(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, extra: tuple[float, ...] = ()
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Scan a vectorized ``f`` over [lo, hi] and refine its maximum: every supremum's search.

    The grid is geometric, ``_SCAN_PER_DECADE`` points per decade, plus the
    ``extra`` points (breakpoints) strictly inside; ``refine_max`` refines the
    scanned maximum.  Returns (grid, values, argmax, max).
    """
    n = int(round(_SCAN_PER_DECADE * math.log10(hi / lo))) + 1
    grid = np.geomspace(lo, hi, max(n, 2))
    inside = [x for x in extra if lo < x < hi]
    # np.unique loads numpy.ma (1 MB) on its first call; a scan without breakpoints skips it
    if inside:
        grid = np.unique(np.concatenate([grid, inside]))
    values = f(grid)
    return (grid, values, *refine_max(f, grid, values))


def refine_max(
    f: Callable[[np.ndarray], np.ndarray], grid: np.ndarray, values: np.ndarray
) -> tuple[float, float]:
    """Refine the maximum of ``f`` from its ``values`` on an increasing positive ``grid``.

    Brent's localmin on -f (Brent 1973, ch. 5: parabolic steps,
    golden-section steps where a parabola is not trusted) runs in log
    coordinates between the grid neighbours of the scanned argmax, calling
    ``f`` on one-point arrays, until the bracket is ``_SCAN_TOL`` wide in log
    coordinates, so the same relative width at every scale.  The scanned
    argmax and its neighbours seed it, so the first parabola costs no call.
    One more call, at the vertex of a last parabola through Brent's three best
    points and kept where larger, resolves even a sharply curved maximum's
    value to the rounding of ``f``; the argmax is resolved only to about its
    square root.  A scanned argmax at a grid end is returned after one call
    ``_SCAN_TOL`` inside it shows ``f`` no larger there.  The larger of the
    scanned and the refined maximum is kept (the grid point itself when no
    refined value beats it), since a kink at a breakpoint can push the
    refinement off it.  A run of scanned values within ``_PLATEAU_REL`` of the
    maximum is a plateau: it is not refined, and its left end is the argmax,
    so last-digit changes cannot move it.  A scan whose maximum is not finite
    is returned unrefined.  Returns (argmax, max).
    """
    k = int(np.argmax(values))
    if not math.isfinite(values[k]):
        return float(grid[k]), float(values[k])
    near = values >= values[k] - _PLATEAU_REL * abs(values[k])
    if (k > 0 and near[k - 1]) or (k + 1 < grid.size and near[k + 1]):
        below = np.flatnonzero(~near[:k])
        return float(grid[below[-1] + 1 if below.size else 0]), float(values[k])

    if k in (0, grid.size - 1):
        # a maximum at a grid end: the parabola through the end and its one
        # neighbour is degenerate, so Brent would take golden-section steps down
        # to the bracket.  Where f still rises into the end over the bracket's
        # width, the end is the bracket's maximum
        inner = math.log(grid[k]) + (_SCAN_TOL if k == 0 else -_SCAN_TOL)
        if float(f(np.array([math.exp(inner)]))[0]) <= values[k]:
            return float(grid[k]), float(values[k])

    # Brent's localmin on -f in log coordinates, seeded with the scan so that the
    # first parabola is free: x is the scanned argmax, w the better of its
    # neighbours and v the other (at a grid end, both are the one there is)
    lo_k, hi_k = max(k - 1, 0), min(k + 1, grid.size - 1)
    a, b = math.log(grid[lo_k]), math.log(grid[hi_k])
    x, fx = math.log(grid[k]), -float(values[k])
    seeds = sorted((-float(values[j]), math.log(grid[j])) for j in {lo_k, hi_k} - {k})
    (fw, w), (fv, v) = seeds[0], seeds[-1]
    step = last = b - a
    c = (3.0 - math.sqrt(5.0)) / 2.0
    while True:
        m = 0.5 * (a + b)
        tol1 = 0.25 * _SCAN_TOL + sys.float_info.epsilon * abs(x)
        if abs(x - m) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        p = q = r = 0.0
        if abs(last) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, last = last, step
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            step = p / q
            u = x + step
            if u - a < 2.0 * tol1 or b - u < 2.0 * tol1:
                step = tol1 if x < m else -tol1
        else:
            last = (a if x >= m else b) - x
            step = c * last
        u = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        fu = -float(f(np.array([math.exp(u)]))[0])
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    # a last parabola through the three best points, for a sharply curved maximum
    r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
    u = x - ((x - v) * q - (x - w) * r) / (2.0 * (q - r)) if q != r else x
    if a < u < b and u != x:
        fu = -float(f(np.array([math.exp(u)]))[0])
        x, fx = (u, fu) if fu < fx else (x, fx)
    if values[k] >= -fx:
        return float(grid[k]), float(values[k])
    return math.exp(x), -fx


def radial_concentration(mass: MassProfile, alpha: float) -> ConcentrationValue:
    """d/alpha-radial concentration sup_R R^(alpha-d) M(R).

    ``scan_max`` scans +-6 decades around the characteristic radius
    (breakpoints included) and refines the best gridpoint; the result is
    compared against the analytic R -> 0 and R -> inf limits, and the
    leftmost of the three within ``_LIMIT_REL`` of the largest gives the
    radius.  Infinite results are returned flagged, not raised.
    """
    alpha = check_alpha(alpha)
    d, shift = mass.d, alpha - mass.d

    lim0 = _limit_value(mass.head_exponent, mass.head_coefficient, shift, at_infinity=False)
    liminf = _limit_value(mass.tail_exponent, mass.tail_coefficient, shift, at_infinity=True)
    if math.isinf(lim0):
        return ConcentrationValue(math.inf, 0.0)
    if math.isinf(liminf):
        return ConcentrationValue(math.inf, math.inf)

    def scaled(r):
        # r^shift alone overflows (to inf: r is an array) at high d, where
        # M(r) ~ r^d is tiny; only there is the product formed in logs
        m = mass(r)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = r**shift * m
            return np.where(np.isfinite(v), v, np.exp(shift * np.log(r) + np.log(m)))

    _, _, r_best, v_best = scan_max(scaled, mass.r_char * 1e-6, mass.r_char * 1e6, mass.breakpoints)
    top = max(lim0, v_best, liminf)
    # as in scan_max, a plateau is reported at its left end
    candidates = ((lim0, 0.0), (v_best, r_best), (liminf, math.inf))
    radius = next((r for v, r in candidates if v >= top - _LIMIT_REL * top), r_best)
    return ConcentrationValue(float(top), radius)


# ---------------------------------------------------------------------------
# The profile grammar
# ---------------------------------------------------------------------------


_GRAMMAR = re.compile(r"^\s*([a-z_]+)\s*\(\s*(.*?)\s*\)\s*$")

_KINDS: dict[str, type[RadialProfile]] = {
    cls.kind: cls
    for cls in (Chandrasekhar, TruncatedChandrasekhar, ShellAtom, Gaussian, ExplicitBlowupDatum, Tabulated)
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
    if kind not in _KINDS:
        raise ValidationError(f"unknown profile kind {kind!r}; known: {', '.join(sorted(_KINDS))}")
    cls = _KINDS[kind]
    params: dict[str, str] = {}
    if body:
        for item in body.split(","):
            if "=" not in item:
                raise ValidationError(f"expected param=value, got {item!r} in {text!r}")
            key, val = item.split("=", 1)
            params[key.strip()] = val.strip()
    missing = cls.grammar.keys() - cls.optional - params.keys()
    unknown = params.keys() - cls.grammar.keys()
    if missing:
        raise ValidationError(f"profile {kind!r} is missing parameters: {sorted(missing)}")
    if unknown:
        raise ValidationError(f"profile {kind!r} got unknown parameters: {sorted(unknown)}")
    return cls._from_grammar(d, params)
