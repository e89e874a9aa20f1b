"""Radial heat kernels for classical and fractional diffusion.

At unit time the kernel of exp(-t(-Lap)^(alpha/2)) restricted to the radial
variable rho = |x| t^(-1/alpha) is

    R(rho) = int_0^inf f_beta(lam) (4 pi lam)^(-d/2) exp(-rho^2/(4 lam)) dlam,

the Gaussian mixed by the one-sided stable subordinator with beta = alpha/2.
At alpha = 2 (beta = 1) the subordinator is the point mass at lam = 1, and R
is the Gauss-Weierstrass kernel (4 pi)^(-d/2) e^(-rho^2/4).
Differentiation under the integral gives R' and R'' with closed-form
lambda-integrands.  The lambda-integral is a trapezoid sum in s = log(lam)
over a window probed until the integrand is dead at both ends (at alpha = 2
the one node s = 0 with weight 1).  From alpha = 4/3 on, the nodes are uniform
in t and mapped to s by an analytic, increasing s = g(t), c = beta/(1 - beta)
times closer on the left cliff of f_beta, about 1/c wide, than over the rest
of the window, 50-200 wide, so the node count no longer grows like c.  The
integrand stays analytic, so the error falls geometrically in 1/h (Trefethen &
Weideman, SIAM Rev. 56, 2014).  ``_nested_halving`` sizes this grid and the
rho-quadratures of ``log_quad`` alike, by the newest level's error extrapolated
at the rate its last two moves show.  Sums run in log space, so large d is no
worse than small d; ``log_sums`` says which terms a sum may drop.

Facts used as validation anchors:

    sigma_d int R rho^(d-1) drho = 1,      (sigma_d/d) int |R'| rho^d drho = 1,
    R(0) = Gamma(1 + d/alpha) / (Gamma(1 + d/2) (4 pi)^(d/2)),
    R(rho) ~ sum_k c_k rho^(-d-alpha*k)  with the Fourier tail coefficients
    c_k = pi^(-d/2-1) (-1)^(k+1) 2^(alpha k) Gamma((d+alpha k)/2)
          Gamma(1+alpha k/2) sin(pi alpha k/2) / k!,

and the alpha = 1 kernel is the Poisson kernel
Gamma((d+1)/2) pi^(-(d+1)/2) (1+rho^2)^(-(d+1)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import IntegrabilityError, NumericsError
from .radial import _SCAN_PER_DECADE, check_alpha, check_dimension, sphere_area
from .subordinator import _LOG_TINY, _SERIES_SWITCH, StableSubordinator, _leggauss

__all__ = [
    "SubordinatedKernel",
    "radial_kernel",
    "KernelTable",
    "KernelValidation",
    "build_kernel_table",
    "validate_kernel",
    "log_window",
    "log_quad",
    "tail_moment",
    "tail_coefficient",
]

#: upper end of every rho-quadrature; the algebraic tail beyond is added analytically
RHO_CUT = 1.0e3
#: entries of one full-width exponent block in SubordinatedKernel.log_sums: it sets how
#: many sorted radii share one s-band
_CHUNK_ELEMENTS = 65_536
#: log_sums drops every s-tile whose terms sum below _TILE e^(-_LIVE_DROP) of the row's peak
_LIVE_DROP = 60.0
#: s-nodes per tile of log_sums, aligned to the whole grid
_TILE = 64
#: a guard only: the tail series stops after two negligible terms
_TAIL_TERMS = 64
_WARN_DIMENSION = 60
#: rho up to which the s-grid resolves the kernel
_RHO_SUPPORT = 4.0e3
#: the s-grid starts where every order of the rho = 0 integrand is this far below its maximum
_LEFT_DROP = 60.0
#: probe radii of the s-grid's halving, and its bound on the kept level's estimated
#: error relative to max(1, |log_sums|)
_HALVING_RHO = np.concatenate([[0.0], np.geomspace(1e-3, _RHO_SUPPORT, 24)])
_HALVING_TOL = 2e-10
#: a grid that would need more nodes than this is a NumericsError
_MAX_NODES = 1 << 18
#: c = beta/(1 - beta) from which the cliff map saved nodes over the uniform grid at every
#: d measured (2 to 80, 100, 140 and 200)
_SURE_CLIFF_C = 3.0
#: below _SURE_CLIFF_C, the largest d up to which the cliff map saved nodes at 310 of 315
#: alphas measured; past it, it cost nodes at 79 of 147
_NEAR_CLIFF_MAX_D = 50
#: c from which (alpha >= 1.93) the cliff map's fine spacing reaches lam = _SERIES_SWITCH
_WIDE_CLIFF_C = 27.5


def tail_coefficient(d: int, alpha: float, k: int = 1) -> float:
    """Signed coefficient of rho^(-d-alpha*k) in the large-rho expansion of R."""
    a = alpha * k
    mag = (
        -(0.5 * d + 1.0) * math.log(math.pi)
        + a * math.log(2.0)
        + math.lgamma(0.5 * (d + a))
        + math.lgamma(1.0 + 0.5 * a)
        - math.lgamma(k + 1.0)
    )
    s = math.sin(0.5 * math.pi * a)
    return (-1.0) ** (k + 1) * math.exp(mag) * s


class SubordinatedKernel:
    """Bochner-subordinated radial kernel for 0 < alpha <= 2.

    Construction evaluates log f_beta once per node of an s = log(lam)
    trapezoid grid sized by its error (``_build_grid``): the window comes from
    probing the rho = 0 integrand, the node map from f_beta's cliff
    (``_cliff_map``), the spacing from nested halving.  At
    alpha = 2 (beta = 1) the subordinator is the point mass at lam = 1, so the
    grid is the single node s = 0 with weight 1 and the kernel is
    Gauss-Weierstrass.
    Every evaluator is a view over ``log_sums``, one vectorized log-sum-exp
    reduction over the grid.
    """

    def __init__(self, d: int, alpha: float):
        self.d = check_dimension(d)
        self.alpha = alpha = check_alpha(alpha)
        self.beta = 0.5 * alpha
        self.log_R0 = (
            math.lgamma(1.0 + d / alpha) - math.lgamma(1.0 + 0.5 * d) - 0.5 * d * math.log(4.0 * math.pi)
        )
        try:
            self.R0 = math.exp(self.log_R0)
        except OverflowError:
            raise NumericsError(
                f"R(0) = exp({self.log_R0:.6g}) overflows a float at d={d}, alpha={alpha}"
            ) from None
        #: accuracy caveats, reported by every result built on this kernel
        self.warnings: tuple[str, ...] = ()
        if alpha == 2.0:
            # beta = 1: the point mass at lam = 1, one node of weight 1
            self._set_grid(np.zeros(1), np.zeros(1))
            return
        self.subordinator = StableSubordinator(self.beta)
        self._build_grid()
        if d > _WARN_DIMENSION:
            self.warnings += (
                f"kernel accuracy degrades slowly above d={_WARN_DIMENSION}; d={d} requested",
            )

    @cached_property
    def gradient_nodes(self) -> tuple[np.ndarray, float, np.ndarray]:
        """Trapezoid nodes in x = log(rho) for int M(s rho) |R'(rho)| rho dx, built once.

        The nodes are uniform over the window ``log_window`` finds for the two
        weights |R'(rho)| rho^2 and |R'(rho)| rho^(d+2).  On the left every
        datum's M(r) vanishes at least like r, so no integrand decays slower
        than the first.  On the right M(r) <= c r^(d-alpha), c the datum's
        d/alpha-radial concentration, so no integrand grows faster than
        |R'| rho^(d+1); the second weight bounds it with room to spare and ends
        the nodes for alpha = 2.  For alpha < 2 they end at RHO_CUT instead, past
        which ``tail_moment`` carries the integral.  The spacing h is the step of
        the criterion scan in log(T)/alpha divided by k = ceil(2/alpha), so the
        products T^(1/alpha) rho of a whole scan lie on one lattice of spacing h:
        64 nodes per decade at alpha = 2, between 64 and 64 + 32 alpha otherwise.
        The nodes are anchored at the window's right end.  Returns
        (rho, h, |R'(rho)| rho) as read-only arrays, shared by every curve on
        this kernel.
        """
        powers = np.array([[2.0], [self.d + 2.0]])
        probe, _ = log_window(lambda x: self.log_abs_Rp(np.exp(x)) + powers * x)
        x_lo, x_hi = probe[0], probe[-1]
        if self.alpha < 2.0:
            x_hi = math.log(RHO_CUT)
        h = math.log(10.0) / (_SCAN_PER_DECADE * self.alpha * math.ceil(2.0 / self.alpha))
        x = x_hi - h * np.arange(math.ceil((x_hi - x_lo) / h), -1, -1)
        rho = np.exp(x)
        weight = np.exp(self.log_abs_Rp(rho) + x)
        rho.flags.writeable = weight.flags.writeable = False
        return rho, h, weight

    def rho_integrands(self, x: np.ndarray) -> np.ndarray:
        """log of the rho-integrands of ``rho_integrals`` times rho, in x = log(rho): rho^d R,
        rho^(d+1) |R'| and C's body, from one ``log_sums`` call for orders 0, 1 and 2."""
        d, alpha = self.d, self.alpha
        rho = np.exp(x)
        log_s0, log_s1, log_s2 = self.log_sums(rho)
        # C's denominator (d-1)/rho + R''/|R'| with R' = -(rho/2) S_1, R'' = (rho^2/4) S_2 - S_1/2,
        # summed without the 1/rho - 1/rho cancellation
        denom = (d - 2) / rho + 0.5 * rho * np.exp(log_s2 - log_s1)
        if not np.all(denom > 0.0):
            raise NumericsError(
                f"the denominator of C is not a positive float at d={d}, alpha={alpha}: "
                "the kernel sums are not finite, or their ratio underflows"
            )
        log_rho = np.log(rho)
        log_c = d * log_rho + log_s1 - math.log(2.0) - np.log(denom)
        return np.stack([log_s0 + (d - 1) * log_rho, _log_abs_rp(rho, log_s1) + d * log_rho, log_c]) + x

    @cached_property
    def rho_window(self) -> tuple[np.ndarray, np.ndarray]:
        """``log_window`` of ``rho_integrands``, built once: the probe C, the norms and L read.  Read-only."""
        x, rows = log_window(self.rho_integrands)
        x.flags.writeable = rows.flags.writeable = False
        return x, rows

    @cached_property
    def rho_integrals(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, abserr) of the kernel's rho-integrals, from one ``log_quad``, built once.

        The values are sigma_d int R rho^(d-1) drho and (sigma_d/d) int |R'| rho^d
        drho, both 1 exactly, and C_alpha(d) (``blowup_constant_fractional``),
        each with its part past RHO_CUT, so a value never mixes two cuts.  The
        quadrature starts from ``rho_window``.  Read-only arrays.
        """
        d, alpha = self.d, self.alpha
        sig = sphere_area(d)
        scale = np.array([sig, sig / d, 2.0 * sig])
        log_i, err = log_quad(self.rho_integrands, self.rho_window)
        values, err = scale * np.exp(log_i), scale * err
        if alpha < 2.0:
            # C past the cut: with a_k = (d + alpha k) c_k the tail series of |R'| and
            # z = rho^(-alpha), the integrand is rho^(-1-alpha) A(z)^2/B(z), where
            # A = sum_k a_k z^(k-1) and B = sum_k a_k (2d + alpha k) z^(k-1): the tail is
            # (1/alpha) int_0^{z_c} A^2/B dz, analytic, which 10-point Gauss-Legendre takes
            # to about 13 digits
            coeffs = _tail_coefficients(d, alpha)
            k = np.arange(1, coeffs.size + 1)
            a = (d + alpha * k) * coeffs
            z_c = RHO_CUT**-alpha
            nodes, weights = _leggauss(10)
            powers = (0.5 * z_c * (1.0 + nodes))[:, None] ** (k - 1)
            A, B = powers @ a, powers @ (a * (2.0 * d + alpha * k))
            c_tail = 0.5 * z_c * float(weights @ (A * A / B)) / alpha
            values += scale * [tail_moment(d, alpha, d, False), tail_moment(d, alpha, d + 1, True), c_tail]
        values.flags.writeable = err.flags.writeable = False
        return values, err

    def _log_mix_weight(self, log_f: np.ndarray, s: np.ndarray) -> np.ndarray:
        """log of f(lam) lam (4 pi lam)^(-d/2) at s = log(lam), given log f."""
        return log_f + s - 0.5 * self.d * (math.log(4.0 * math.pi) + s)

    def _build_grid(self) -> None:
        """Set the s-grid: a probed window, then a spacing found by nested halving.

        The window is probed on 200 points until the rho = 0 integrand of
        orders 0, 1 and 2 has dropped ``_LEFT_DROP`` below its maximum at the
        left end and order 0 has dropped 170 at the right end, which starts
        170/(beta + d/2) past 2 log(_RHO_SUPPORT); a left end that would need
        lam below the smallest normal float is a NumericsError.  The grid starts
        one probe step left of the first live point and ends with the probe.  The
        nodes are uniform in t and mapped to s = g(t) by ``_cliff_map``, which
        puts them 1/c times closer at the left cliff of f_beta than elsewhere
        (or is the identity); each weight is the t-trapezoid weight times
        g'(t).  The t-spacing starts at most 1 and is halved by ``_nested_halving``
        until the estimated error of ``log_sums`` at ``_HALVING_RHO`` is at most
        ``_HALVING_TOL`` max(1, |log_sums|), within ``_MAX_NODES`` nodes.
        """
        sub, d = self.subordinator, self.d
        # start guess: beyond the peak of f(lam) lam^(-d/2), located where
        # a0*c*s_zol = d/2 in the left-tail regime
        c, a0 = sub.c, sub.a0
        s_peak = -math.log(max(d / (2.0 * a0 * c), 1e-6)) / c
        lo = max(s_peak - 5.0 / c - 5.0, _LOG_TINY)
        # the right end reaches past 2 log(_RHO_SUPPORT), for the curve's far atom terms
        hi = 2.0 * math.log(_RHO_SUPPORT) + 170.0 / (self.beta + 0.5 * d)
        for _ in range(60):
            probe = np.linspace(lo, hi, 200)
            # rows: the rho = 0 integrand of orders 0, 1 and 2
            vals = self._log_mix_weight(sub.log_pdf(np.exp(probe)), probe) - np.arange(3.0)[:, None] * probe
            live = np.any(vals >= vals.max(axis=1)[:, None] - _LEFT_DROP, axis=0)
            right_live = vals[0, -1] >= vals[0].max() - 170.0
            if not (live[0] or right_live):
                break
            if live[0] and lo == _LOG_TINY:
                raise NumericsError(
                    f"the subordination integral at d={d}, alpha={self.alpha} is still live at "
                    f"lam = {math.exp(lo):.3g}, the smallest normal float"
                )
            if live[0]:
                lo = max(lo - 5.0, _LOG_TINY)
            if right_live:
                hi += 5.0
        else:
            raise NumericsError("could not window the subordination integral")
        lo = probe[np.argmax(live) - 1]

        grid_map = _cliff_map(sub, d)
        t_lo, t_hi = grid_map.t_range(lo, hi)
        t = np.linspace(t_lo, t_hi, math.ceil(t_hi - t_lo) + 1)

        def rows(t):
            s, log_slope = grid_map(t)
            return np.stack([s, log_slope, sub.log_pdf(np.exp(s))])

        def summary(level):
            # sets the grid it measures, so the kept level's grid is the one left set
            t, s, log_slope, log_f = level
            self._set_grid(s, _trapezoid_log_weights(t) + log_slope + log_f)
            sums = self.log_sums(_HALVING_RHO)
            return sums, np.maximum(1.0, np.abs(sums))

        message = f"the subordination grid did not converge within {_MAX_NODES} nodes "
        message += f"(d={d}, alpha={self.alpha})"
        _nested_halving(np.vstack([t, rows(t)]), rows, summary, 0.0, _HALVING_TOL, _MAX_NODES, message)

    def _set_grid(self, s: np.ndarray, log_wf: np.ndarray) -> None:
        self._s = s
        # the node arrays are padded to whole tiles of log_sums: a padded node has
        # weight -inf and 0 for -s and e^(-s)/4, so it adds nothing to any sum
        n, size = s.size, -(-s.size // _TILE) * _TILE
        logw, neg_s, quarter_inv_lam = np.full(size, -np.inf), np.zeros(size), np.zeros(size)
        logw[:n], neg_s[:n], quarter_inv_lam[:n] = self._log_mix_weight(log_wf, s), -s, 0.25 * np.exp(-s)
        self._tiled = logw, neg_s, quarter_inv_lam
        #: unpadded views; _logw is log of f(lam) lam (4 pi lam)^(-d/2) times the trapezoid weight
        self._logw, self._neg_s, self._quarter_inv_lam = logw[:n], neg_s[:n], quarter_inv_lam[:n]

    def log_sums(self, rho, orders=(0, 1, 2)) -> np.ndarray:
        """log sum_j w_j exp(-rho^2/(4 lam_j)) lam_j^(-k) for each k in ``orders``.

        The exponent of node j is E_j = log w_j - rho^2 q_j - k s_j with
        q_j = e^(-s_j)/4.  Each row is shifted by its peak, its own for each
        order, so none over- or underflows, and the sum runs over tiles of
        ``_TILE`` nodes aligned to the whole grid: a tile whose shifted terms
        sum below ``_TILE`` e^(-``_LIVE_DROP``) is dropped, so the n_s nodes
        of the dropped tiles add at most n_s e^(-60) relative, and the kept
        tiles are added in grid order.  The radii are sorted by |rho| and taken
        in chunks of at most ``_CHUNK_ELEMENTS`` // n_s.  Each chunk
        exponentiates only the s-band where its smallest radius's live set
        (within 61 nats of the peak) begins and its largest radius's ends:
        both ends of the live set are nondecreasing in rho (the penalty
        rho^2 q_j grows with rho and falls with s), so the band holds the live
        set of every radius in the chunk.  A tile outside it has every term
        below e^(-61) of the peak, up to rounding, so it would be dropped
        anyway, and every row is bit-identical however the radii are grouped.
        One exponent block and one work block, allocated per call, serve every
        chunk and order.  At alpha = 2 the one node is its own sum, taken
        directly.  Returns shape ``(len(orders),) + shape(rho)``.
        """
        rho = np.asarray(rho, dtype=float)
        r2 = rho.reshape(-1) ** 2
        n = self._s.size
        if n == 1:
            # alpha = 2: the one node is its own sum
            expo = self._logw[0] - r2 * self._quarter_inv_lam[0]
            return np.stack([expo + k * self._neg_s[0] for k in orders]).reshape(
                (len(orders),) + rho.shape
            )
        logw, neg_s, quarter_inv_lam = self._tiled
        out = np.empty((len(orders), r2.size))
        by_size = np.argsort(r2)
        step = max(1, _CHUNK_ELEMENTS // n)
        expo_buf = np.empty(min(step, r2.size) * logw.size)
        work_buf, order_shift = np.empty_like(expo_buf), np.empty_like(logw)
        tile_floor = _TILE * math.exp(-_LIVE_DROP)
        # rho^2 e^(-s)/4 overflows to inf on grids that reach lam near 1e-308,
        # where the term it multiplies is exactly 0
        with np.errstate(over="ignore"):
            for lo in range(0, r2.size, step):
                rows = by_size[lo : lo + step]
                chunk = r2[rows, None]
                # the band's two edge rows cost as much as two rows of the whole grid
                a, b = self._band(chunk[[0, -1]], orders) if rows.size > 2 else (0, logw.size)
                expo = expo_buf[: rows.size * (b - a)].reshape(rows.size, b - a)
                work = work_buf[: expo.size].reshape(expo.shape)
                np.subtract(logw[a:b], np.multiply(chunk, quarter_inv_lam[a:b], out=work), out=expo)
                for i, k in enumerate(orders):
                    block = expo
                    if k:
                        block = np.add(expo, np.multiply(neg_s[a:b], k, out=order_shift[: b - a]), out=work)
                    peak = block.max(axis=-1)
                    np.exp(np.subtract(block, peak[:, None], out=work), out=work)
                    sums = work.reshape(rows.size, -1, _TILE).sum(axis=-1)
                    sums[sums < tile_floor] = 0.0
                    # a running sum adds the kept tiles in grid order, whatever the band
                    out[i, rows] = peak + np.log(np.cumsum(sums, axis=-1)[:, -1])
        return out.reshape((len(orders),) + rho.shape)

    def _band(self, r2_ends: np.ndarray, orders) -> tuple[int, int]:
        """Tile-aligned node range holding the live sets of every radius between two.

        One nat beyond ``_LIVE_DROP`` absorbs rounding in the edge test.
        """
        n = self._s.size
        k = np.array(orders, dtype=float)[:, None, None]
        rows = self._logw - r2_ends * self._quarter_inv_lam + k * self._neg_s
        live = rows >= rows.max(axis=-1, keepdims=True) - (_LIVE_DROP + 1.0)
        first = int(live[:, 0].argmax(axis=-1).min())
        last = n - int(live[:, 1, ::-1].argmax(axis=-1).min())
        return first // _TILE * _TILE, -(-last // _TILE) * _TILE

    def derivatives(self, rho):
        """(log R, log|R'|, R'') from one fused reduction."""
        log_s0, log_s1, log_s2 = self.log_sums(rho)
        return log_s0, _log_abs_rp(rho, log_s1), _rpp(rho, log_s1, log_s2)

    def log_R(self, rho):
        return _scalar_if(rho, self.log_sums(rho, (0,))[0])

    def R(self, rho):
        return np.exp(self.log_R(rho))

    def log_abs_Rp(self, rho):
        return _scalar_if(rho, _log_abs_rp(rho, self.log_sums(rho, (1,))[0]))

    def Rpp(self, rho):
        log_s1, log_s2 = self.log_sums(rho, (1, 2))
        return _scalar_if(rho, _rpp(rho, log_s1, log_s2))

    def curvature_ratio(self, rho):
        """R''(rho)/|R'(rho)|, computed without cancellation in the logs."""
        log_s1, log_s2 = self.log_sums(rho, (1, 2))
        return _scalar_if(rho, _curvature_ratio(rho, log_s1, log_s2))


# With S_k = sum_j w_j exp(-rho^2/(4 lam_j)) lam_j^(-k), differentiating under
# the integral gives R = S_0, R' = -(rho/2) S_1 and R'' = (rho^2/4) S_2 - S_1/2.


def _log_rho(rho) -> np.ndarray:
    return np.log(np.maximum(np.asarray(rho, dtype=float), 1e-300))


def _log_abs_rp(rho, log_s1: np.ndarray) -> np.ndarray:
    return log_s1 + _log_rho(rho) - math.log(2.0)


def _rpp(rho, log_s1: np.ndarray, log_s2: np.ndarray) -> np.ndarray:
    log_a = log_s2 + 2.0 * _log_rho(rho) - math.log(4.0)
    log_b = log_s1 - math.log(2.0)
    ref = np.maximum(log_a, log_b)
    return np.exp(ref) * (np.exp(log_a - ref) - np.exp(log_b - ref))


def _curvature_ratio(rho, log_s1: np.ndarray, log_s2: np.ndarray) -> np.ndarray:
    # R''/|R'| = (rho/2) S_2/S_1 - 1/rho
    log_rho = _log_rho(rho)
    return np.exp(log_s2 - log_s1 + log_rho - math.log(2.0)) - np.exp(-log_rho)


def _trapezoid_log_weights(s: np.ndarray) -> np.ndarray:
    logw = np.full(s.size, math.log((s[-1] - s[0]) / (s.size - 1)))
    logw[[0, -1]] += math.log(0.5)
    return logw


class _UniformMap:
    """The identity s = t: a grid uniform in s."""

    def __call__(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """s = g(t) and log g'(t)."""
        return t, np.zeros_like(t)

    def t_range(self, lo: float, hi: float) -> tuple[float, float]:
        """The t-interval that g maps onto [lo, hi]."""
        return lo, hi


class _CliffMap(_UniformMap):
    """s = g(t) = centre + eps t + (1 - eps)(log(1 + e^t) - log 2), so g(0) = centre.

    g'(t) = eps + (1 - eps)/(1 + e^(-t)) rises from eps left of the centre to 1
    right of it within a few units of t: a grid uniform in t has spacing eps h
    left of the centre and h right of it.  g is analytic (the poles of g' lie
    pi off the real axis), strictly increasing and convex.
    """

    def __init__(self, eps: float, centre: float):
        self.eps, self.centre = eps, centre

    def __call__(self, t):
        eps = self.eps
        s = self.centre + eps * t + (1.0 - eps) * (np.logaddexp(0.0, t) - math.log(2.0))
        return s, np.log(eps + (1.0 - eps) * 0.5 * (1.0 + np.tanh(0.5 * t)))

    def t_range(self, lo, hi):
        # g is increasing and convex, so Newton's steps from the right of a root
        # fall monotonically to it; g(t) - centre >= eps t for t >= 0 gives the start
        target = np.array([lo, hi])
        t = (np.abs(target - self.centre) + 1.0) / self.eps
        for _ in range(100):
            s, log_slope = self(t)
            step = (s - target) * np.exp(-log_slope)
            if not np.any(step > 0.0):
                break
            t = t - np.maximum(step, 0.0)
        return float(t[0]), float(t[1])


def _cliff_map(sub: StableSubordinator, d: int) -> _UniformMap:
    """The map s = g(t) of the s-grid of f_beta at dimension d.

    In the left-tail form log f ~ -a0 e^(-c s) - (1 + c/2) s, order k of the
    rho = 0 integrand peaks where a0 c e^(-c s) = (c + d)/2 + k and falls
    doubly exponentially left of it, on the scale 1/c: a cliff, which sets
    the spacing of a uniform grid.  Right of the peaks every row is smooth on
    the scale 1.  The cliff map spaces the nodes 1/c times the coarse spacing
    at the cliff: its centre, where the spacing is half-way, sits 3/c + 1/2
    past the order-0 peak (the rightmost), so the spacing is within twice the
    fine one up to about 3/c - 0.2 past that peak.  From alpha = 1.93 on
    (c >= ``_WIDE_CLIFF_C``) the centre moves right to lam = _SERIES_SWITCH if it
    lies left of it, so the fine spacing also covers the density's mode and
    the steep right shoulder just past it.  Measured at d = 2 to 20, this
    cuts the grids 1.7 to 22 times from alpha = 1.94 to 1.995 (at d = 80 it
    costs a third more nodes at alpha = 1.94 and 1.95, and pays from 1.96).
    With c < 2 the fine spacing would be more than half the coarse one and
    could not save a halving, so the grid stays uniform in s, node for node.
    Below c = ``_SURE_CLIFF_C`` the map saves one halving or none: at
    d <= ``_NEAR_CLIFF_MAX_D`` it saved one at 310 of 315 alphas measured (the
    other five cost up to 6% more nodes), but past that it saved none at 79 of
    147, and its wider t-range then cost up to 17% more nodes than the uniform
    grid, so there the grid stays uniform.
    """
    c = sub.c
    if c < 2.0 or (c < _SURE_CLIFF_C and d > _NEAR_CLIFF_MAX_D):
        return _UniformMap()
    centre = math.log(2.0 * sub.a0 * c / (c + d)) / c + 3.0 / c + 0.5
    if c >= _WIDE_CLIFF_C:
        centre = max(centre, math.log(_SERIES_SWITCH))
    return _CliffMap(1.0 / c, centre)


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    out = np.empty(even.shape[:-1] + (even.shape[-1] + odd.shape[-1],))
    out[..., ::2], out[..., 1::2] = even, odd
    return out


def _scalar_if(rho, out: np.ndarray):
    return out if np.ndim(rho) else float(out)


@lru_cache(maxsize=32)
def radial_kernel(d: int, alpha: float) -> SubordinatedKernel:
    """Shared immutable kernel evaluator for (d, alpha)."""
    return SubordinatedKernel(d, alpha)


# ---------------------------------------------------------------------------
# Tables and validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Tabulated R, R', R'' on a geometric rho grid plus tail/normalization metadata."""

    d: int
    alpha: float
    rho: np.ndarray
    R: np.ndarray
    Rp: np.ndarray
    Rpp: np.ndarray
    R0: float
    log_R: np.ndarray = field(repr=False, default=None)
    log_abs_Rp: np.ndarray = field(repr=False, default=None)
    #: least-squares (coefficient, exponent) of each derivative on the last decade
    tail_fits: dict = field(default_factory=dict)
    #: normalization and closed-form residuals measured at build time
    residuals: dict = field(default_factory=dict)


def _tail_fit(log_rho: np.ndarray, log_val: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(log_rho, log_val, 1)
    # intercept can be huge for gaussian decay; clamp before exponentiating
    return math.exp(min(max(intercept, -745.0), 700.0)), slope


#: a window keeps x = log(rho) where the log-integrand is within this of its maximum
_WINDOW_DROP = 40.0
#: probe nodes per unit of x
_PROBE_PER_UNIT = 4
#: probe nodes per piece of log_window, 16 units of x
_PROBE_PIECE = 64
#: probe nodes down to the smallest normal float, rho = e^_LOG_TINY
_PROBE_MAX_NODES = int(_PROBE_PER_UNIT * (math.log(RHO_CUT) - _LOG_TINY)) + 1
_QUAD_EPSREL = 1e-12
#: log_quad reports no error below 50 rounding units of I, as QUADPACK does
_ROUNDING = 50.0 * np.finfo(float).eps
_QUAD_MAX_NODES = 1 << 16
#: Gregory's end correction on the last six trapezoid weights, in units of h: the
#: backward differences of orders 1-5 with coefficients 1/12, 1/24, 19/720, 3/160, 863/60480
_GREGORY_END = np.array([863.0, -5449.0, 14762.0, -22742.0, 23719.0, -11153.0]) / 60480.0


def _cut_trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Weights of the n-node (n >= 6) trapezoid rule of spacing h, cut at its right end.

    Every sum in x = log(rho) starts where its integrand is dead but may be
    cut at RHO_CUT, so the right end carries Gregory's weights (Fornberg,
    SIAM Rev. 63, 2021): the cut costs O(h^6), not O(h^2).
    """
    w = np.full(n, h)
    w[[0, -1]] *= 0.5
    w[-6:] += h * _GREGORY_END
    return w


def log_window(log_g) -> tuple[np.ndarray, np.ndarray]:
    """Probe nodes x <= log(RHO_CUT) spanning the mass of exp(log_g), and log_g's rows there.

    ``log_g`` maps a 1-d x array to one row (or several rows) of log values.
    The probe walks the lattice x_j = log(RHO_CUT) - j/4 from the right in
    pieces of ``_PROBE_PIECE`` nodes, evaluating each node once, and stops at
    the first piece whose left end lies ``_WINDOW_DROP`` below every row's
    maximum so far; ``log_g`` is taken to stay dead left of that point, as
    every rho^p-weighted kernel integrand does.  The window reaches one probe
    step past the first and the last point where any row is within that drop.
    A NaN or +inf at an evaluated node is a NumericsError, and so is a probe
    that reaches ``_PROBE_MAX_NODES`` nodes without closing the window.
    """
    xs, pieces = [], []
    for j in range(0, _PROBE_MAX_NODES, _PROBE_PIECE):
        # lattice nodes j ... j + _PROBE_PIECE - 1, counted from the right
        j_piece = np.arange(min(j + _PROBE_PIECE, _PROBE_MAX_NODES) - 1, j - 1, -1)
        xs.insert(0, math.log(RHO_CUT) - j_piece / _PROBE_PER_UNIT)
        pieces.insert(0, np.atleast_2d(log_g(xs[0])))
        if np.any(np.isnan(pieces[0]) | (pieces[0] == np.inf)):
            raise NumericsError("integrand is not finite on the probe")
        x, vals = np.concatenate(xs), np.concatenate(pieces, axis=1)
        tops = vals.max(axis=1)
        if np.all(np.isfinite(tops)):
            keep = np.nonzero(np.any(vals >= tops[:, None] - _WINDOW_DROP, axis=0))[0]
            if keep[0] > 0:
                window = slice(keep[0] - 1, keep[-1] + 2)
                return x[window], vals[:, window]
    raise NumericsError(f"could not window the integrand down to rho = {math.exp(x[0]):.3g}")


def log_quad(log_g, window: tuple[np.ndarray, np.ndarray]):
    """log of int exp(log_g(x)) dx up to x = log(RHO_CUT) for each row of ``log_g``, with errors.

    ``log_g`` maps a 1-d x = log(rho) array to one row (or several rows
    sharing the nodes) of log-integrand values, and ``window`` is its
    ``log_window``, (x, rows): ``log_quad`` probes nothing itself.  The
    integral runs over the window by the trapezoid rule of
    ``_cut_trapezoid_weights``.  The probe's nodes are the first level and
    every other one of them a free level before it; ``_nested_halving`` halves
    until the estimated error is at most ``_QUAD_EPSREL`` of every row.  On
    these analytic integrands the error falls geometrically in 1/h (Trefethen
    & Weideman, SIAM Rev. 56, 2014), but only like h^7, Gregory's order, where
    the integrand is live at the cut, so the rate is floored at 2^-7.  Returns
    (log I, abserr) over the rows: abserr is that estimate, at least 50
    rounding units of I, plus the rounding of log I.
    """
    x, vals = window
    shift = vals.max(axis=1)

    def rows(mid):
        g_mid = np.exp(log_g(mid) - shift[:, None])
        if not np.all(np.isfinite(g_mid)):
            raise NumericsError("integrand is not finite at a quadrature node")
        return g_mid

    def summary(level):
        x, g = level[0], level[1:]
        if x.size < _GREGORY_END.size:  # too coarse for Gregory's weights: no sum
            return np.full(len(g), np.nan), 1.0
        sums = g @ _cut_trapezoid_weights(x.size, (x[-1] - x[0]) / (x.size - 1))
        return sums, sums

    level = np.vstack([x, np.exp(vals - shift[:, None])])
    # every other probe node, ending at the cut, is a free level one halving coarser
    coarse = summary(level[:, (x.size - 1) % 2 :: 2])[0]
    message = f"quadrature did not reach epsrel={_QUAD_EPSREL:g} within {_QUAD_MAX_NODES} nodes"
    _, sums, err = _nested_halving(
        level, rows, summary, 2.0 ** -(_GREGORY_END.size + 1), _QUAD_EPSREL, _QUAD_MAX_NODES, message, coarse
    )
    # abserr adds the rounding of log I, an ulp of it; it is inf where I is beyond the float range
    with np.errstate(divide="ignore", over="ignore"):
        log_i = shift + np.log(sums)
        return log_i, np.exp(log_i) * (max(err, _ROUNDING) + np.spacing(np.abs(log_i)))


def _nested_halving(level, midpoints, summary, q_floor, tol, max_nodes, message, coarse=None):
    """Halve a trapezoid rule until its newest level's estimated error is at most ``tol``.

    ``level`` stacks the nodes over the rows each node carries; a halving
    evaluates ``midpoints`` at the new nodes only.  ``summary(level)`` gives
    the level's result v_k and the unit of its move m_k = max |v_k - v_(k-1)|
    / unit; ``coarse`` is v one level coarser, where the caller has it free.
    If the moves keep shrinking by q = max(m_k / m_(k-1), ``q_floor``), level k
    is off by E_k = m_k q / (1 - q); a move within ``_ROUNDING`` is its own
    estimate, and a move that did not shrink gives none.  Past ``max_nodes``
    nodes it raises NumericsError(``message``).  Returns (level, v_k, E_k).
    """
    value, unit = summary(level)
    move = math.nan if coarse is None else float(np.max(np.abs(value - coarse) / unit))
    while 2 * level.shape[1] - 1 <= max_nodes:
        mid = 0.5 * (level[0, :-1] + level[0, 1:])
        level = _interleave(level, np.vstack([mid, midpoints(mid)]))
        sums, unit = summary(level)
        prev, move, value = move, float(np.max(np.abs(sums - value) / unit)), sums
        q = max(move / prev, q_floor) if move < prev else 1.0
        err = move if move <= _ROUNDING else (move * q / (1.0 - q) if q < 1.0 else math.inf)
        if err <= tol:
            return level, value, err
    raise NumericsError(message)


def _tail_coefficients(d: int, alpha: float) -> np.ndarray:
    """c_1, ..., c_K of R ~ sum_k c_k rho^(-d-alpha k), as many as the series at RHO_CUT needs.

    Terms are taken until two in a row no longer move the sum (c_k vanishes
    wherever alpha k is an even integer, so one small term proves nothing).
    """
    coeffs, total, small = [], 0.0, 0
    while small < 2 and len(coeffs) < _TAIL_TERMS:
        coeffs.append(tail_coefficient(d, alpha, len(coeffs) + 1))
        term = coeffs[-1] * RHO_CUT ** (-alpha * len(coeffs))
        total += term
        small = small + 1 if abs(term) < 1e-16 * max(abs(total), 1e-300) else 0
    return np.array(coeffs)


def tail_moment(d: int, alpha: float, moment: float, derivative: bool) -> float:
    """int_{RHO_CUT}^inf rho^(moment-1) R(rho) drho, or the same against |R'| with ``derivative``.

    Integrates the tail series term by term; term k of the |R'| series carries
    the factor (d + alpha k) and one more power of 1/rho.  Raises
    IntegrabilityError when the first term diverges.
    """
    c = _tail_coefficients(d, alpha)
    a = d + alpha * np.arange(1, c.size + 1)
    p = a + int(derivative) - moment
    if p[0] <= 0:
        raise IntegrabilityError("tail remainder diverges: moment too large")
    terms = c * RHO_CUT ** (-p) / p
    return float(np.sum(terms * a if derivative else terms))


#: geometric rho grid of the exported kernel table, up to RHO_CUT
_TABLE_RHO_MIN = 1.0e-4
_TABLE_PER_DECADE = 48


def build_kernel_table(d: int, alpha: float) -> KernelTable:
    """Build the exportable kernel table with tail fits and residuals."""
    alpha = check_alpha(alpha)
    kernel = radial_kernel(d, alpha)
    n = int(round(_TABLE_PER_DECADE * math.log10(RHO_CUT / _TABLE_RHO_MIN))) + 1
    rho = np.geomspace(_TABLE_RHO_MIN, RHO_CUT, n)
    log_R, log_abs_Rp, Rpp = kernel.derivatives(rho)

    last_decade = rho >= RHO_CUT / 10.0
    lr = np.log(rho[last_decade])
    fits = {
        "R": _tail_fit(lr, log_R[last_decade]),
        "Rp": _tail_fit(lr, log_abs_Rp[last_decade]),
        "Rpp": _tail_fit(lr, np.log(np.maximum(np.abs(Rpp[last_decade]), 1e-300))),
    }

    (i1, i2, _), (err1, err2, _) = kernel.rho_integrals
    residuals = {
        "norm_R": float(i1) - 1.0,
        "norm_Rp": float(i2) - 1.0,
        "R0": math.exp(kernel.log_R(np.array([0.0]))[0] - kernel.log_R0) - 1.0,
        # estimated errors of the two normalization integrals' kept quadrature level
        "norm_R_abserr": float(err1),
        "norm_Rp_abserr": float(err2),
    }
    table = KernelTable(
        d=d,
        alpha=alpha,
        rho=rho,
        R=np.exp(log_R),
        Rp=-np.exp(log_abs_Rp),
        Rpp=Rpp,
        R0=kernel.R0,
        log_R=log_R,
        log_abs_Rp=log_abs_Rp,
        tail_fits=fits,
        residuals=residuals,
    )
    if abs(residuals["norm_R"]) > 1e-5:
        raise NumericsError(
            f"kernel table rejected: normalization residual {residuals['norm_R']:.3e}"
        )
    return table


@dataclass(frozen=True)
class KernelValidation:
    checks: tuple
    passed: bool

    def failures(self) -> list[str]:
        return [name for name, ok, _ in self.checks if not ok]


#: validate_kernel tolerances: normalization residuals, relative tail-exponent error
_TOL_NORM = 1e-6
_TOL_TAIL = 0.02


def validate_kernel(table: KernelTable) -> KernelValidation:
    """Run the structural checks on a built table.

    (i) both normalization identities within 1e-6; (ii) fitted tail
    exponents of R, R', R'' within 2% relative of -d-alpha,
    -d-1-alpha, -d-2-alpha; (iii) R' < 0 and rho R'' - R' >= 0 on the grid;
    (iv) rho^(1-d) |R'| strictly decreasing along the grid.
    """
    d, alpha = table.d, table.alpha
    checks = []
    checks.append(
        (
            "normalization_R",
            abs(table.residuals["norm_R"]) <= _TOL_NORM,
            f"residual {table.residuals['norm_R']:.3e}, tolerance {_TOL_NORM:g}",
        )
    )
    checks.append(
        (
            "normalization_Rp",
            abs(table.residuals["norm_Rp"]) <= _TOL_NORM,
            f"residual {table.residuals['norm_Rp']:.3e}, tolerance {_TOL_NORM:g}",
        )
    )
    expected = {"R": -(d + alpha), "Rp": -(d + 1 + alpha), "Rpp": -(d + 2 + alpha)}
    for key, target in expected.items():
        if alpha == 2.0:
            # Gaussian decay: no algebraic tail to fit against
            checks.append((f"tail_exponent_{key}", True, "n/a (gaussian decay)"))
            continue
        _, got = table.tail_fits[key]
        ok = abs(got - target) <= _TOL_TAIL * abs(target)
        checks.append((f"tail_exponent_{key}", ok, f"fit {got:.4f}, expected {target}"))
    # Rp underflows to -0.0 in the far gaussian tail; the sign check lives on
    # the log representation wherever the linear value is representable
    rp_neg = bool(np.all((table.Rp < 0.0) | (np.abs(table.Rp) == 0.0)))
    rp_nonzero = bool(np.any(table.Rp < 0.0))
    checks.append(("Rp_negative", rp_neg and rp_nonzero, "R' < 0 on grid"))
    convexity = table.rho * table.Rpp - table.Rp
    ok_conv = bool(np.all(convexity >= -1e-12 * np.abs(table.Rp)))
    checks.append(("rho_Rpp_minus_Rp_nonneg", ok_conv, f"min {float(np.min(convexity)):.3e}"))
    slope = np.diff((1 - d) * np.log(table.rho) + table.log_abs_Rp)
    checks.append(
        (
            "weighted_gradient_decreasing",
            bool(np.all(slope < 0.0)),
            "rho^(1-d)|R'| strictly decreasing",
        )
    )
    return KernelValidation(tuple(checks), all(ok for _, ok, _ in checks))
