"""One-sided stable subordinator densities.

``StableSubordinator(beta)`` is the law on (0, inf) with Laplace transform
exp(-a^beta), 0 < beta < 1; subordinating the heat semigroup by it (with
beta = alpha/2) produces the fractional semigroup exp(-t(-Lap)^(alpha/2)).

Evaluation is piecewise:

* beta = 1/2: the explicit Levy density (2 sqrt(pi))^-1 lam^(-3/2) e^(-1/(4 lam)).
* lam >= 2: the convergent power series
      f(lam) = (1/pi) sum_{k>=1} (-1)^(k+1) Gamma(1+k beta)/k! sin(pi k beta) lam^(-1-k beta),
  summed by Horner's rule in z = lam^(-beta) over coefficients cached per beta.
* otherwise: the Zolotarev/Kanter single integral
      f(lam) = (beta/(1-beta)) lam^(-1/(1-beta)) (1/pi)
               int_0^pi A(u) exp(-A(u) s) du,   s = lam^(-beta/(1-beta)),
      A(u) = [sin(beta u)^beta sin((1-beta)u)^(1-beta) / sin(u)]^(1/(1-beta)).
  The integrand depends on lam only through s, so its Gauss-Legendre nodes,
  log(weight * A) and A are built once per beta: panels in u that halve
  towards the u = 0 layer, then panels in v = log(pi - u) that each span a
  fixed rise of log A, where the integrand peaks at A s ~ 1 (after Nolan,
  Commun. Statist. Stochastic Models 13, 1997).  Each lam sums a band of at
  most a few hundred nodes around its peak: one exponential per node.
* a0*s large (a0 = beta^(beta/(1-beta)) (1-beta) = A(0)), where f is below
  the smallest normal float: the saddle-point left-tail form
  f ~ (beta/(1-beta)) sqrt(a0/(2 pi beta s)) lam^(-1/(1-beta)) e^(-a0 s), which
  is exact for beta = 1/2 and otherwise good to O(1/(a0 s)) relative.

Negative Mellin moments are closed form: E[S^-p] = Gamma(1+p/beta)/Gamma(1+p).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError

__all__ = ["StableSubordinator"]

_SERIES_SWITCH = 2.0  # lam above which the power series converges fast
_SERIES_MAX_TERMS = 200
#: log of the smallest normal float: the saddle-point tail takes over where f falls below it
_LOG_TINY = math.log(np.finfo(float).tiny)
#: log A above which the Zolotarev nodes keep A as its log, since s and A would leave the floats
_LOG_HUGE = 700.0
#: Gauss-Legendre nodes per panel of the Zolotarev integral
_PANEL_NODES = 20
#: rise of log A across one panel near u = pi, and its most width in v = log(pi - u)
_PANEL_LOG_A = 3.0
_PANEL_V = 2.0
#: a lam's band leaves out nodes before its peak that add at most e^(-_BAND_DROP) of the integral
_BAND_DROP = 32.0
#: ... and nodes where s A exceeds the peak's own by this much (e^(-38) left out)
_BAND_SA = 38.0
#: a0 s from which the u = 0 layer is narrow enough to need the layer set's panels
_LAYER_A0S = 4.0
#: the Zolotarev nodes serve lam < _SERIES_SWITCH, and reach lam a little past it
_TOP_LAM = 1.005 * _SERIES_SWITCH
#: entries of one block of the Zolotarev sum: it sets how many lam share one block
_CHUNK_ELEMENTS = 65_536


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


class StableSubordinator:
    """Density of the one-sided beta-stable law with Laplace transform e^(-a^beta)."""

    def __init__(self, beta: float):
        beta = float(beta)
        if not 0.0 < beta < 1.0:
            raise ValidationError(f"stable index beta must be in (0, 1), got {beta}")
        self.beta = beta
        #: exponent of s = lam^(-c) in the Zolotarev representation
        self.c = beta / (1.0 - beta)
        #: A(0), the minimum of the Zolotarev integrand exponent
        self.a0 = beta ** (beta / (1.0 - beta)) * (1.0 - beta)
        self.method = "explicit-levy" if beta == 0.5 else "zolotarev-integral"

    def __repr__(self) -> str:
        return f"StableSubordinator(beta={self.beta}, method={self.method!r})"

    # -- pieces ------------------------------------------------------------

    def _log_pdf_levy(self, lam: np.ndarray) -> np.ndarray:
        return -math.log(2.0 * math.sqrt(math.pi)) - 1.5 * np.log(lam) - 0.25 / lam

    @cached_property
    def _series_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sign, log magnitude, exponent 1 + k beta) of the power-series terms, k = 1, 2, ..."""
        b = self.beta
        k = np.arange(1, _SERIES_MAX_TERMS + 1)
        log_gamma = np.array([math.lgamma(1.0 + j * b) - math.lgamma(j + 1.0) for j in k.tolist()])
        log_mag = log_gamma + np.log(np.abs(np.sin(math.pi * k * b)) + 1e-300)
        sign = np.where(np.sin(math.pi * k * b) >= 0, 1.0, -1.0) * (-1.0) ** (k + 1)
        return sign, log_mag, 1.0 + k * b

    @cached_property
    def _series_coefficients(self) -> np.ndarray:
        """a_k of f(lam) = (1/(pi lam)) sum_k a_k z^k, z = lam^-beta, up to the last term that
        reaches e^(-40) of the largest at lam = _SERIES_SWITCH, where every term is largest."""
        sign, log_mag, exponent = self._series_terms
        at_switch = log_mag - (exponent - 1.0) * math.log(_SERIES_SWITCH)
        last = int(np.flatnonzero(at_switch >= at_switch.max() - 40.0)[-1])
        return sign[: last + 1] * np.exp(log_mag[: last + 1])

    def _log_pdf_series(self, lam: np.ndarray) -> np.ndarray:
        # Horner's rule in z: f(lam) = (z/(pi lam)) (a_1 + z (a_2 + z (a_3 + ...)))
        coefficients = self._series_coefficients
        log_lam = np.log(lam)
        z = np.exp(-self.beta * log_lam)
        total = np.full_like(z, coefficients[-1])
        for a_k in coefficients[-2::-1]:
            total *= z
            total += a_k
        return np.log(np.maximum(total, 1e-300)) - (1.0 + self.beta) * log_lam - math.log(math.pi)

    def _zolotarev_log_a(self, u: np.ndarray) -> np.ndarray:
        """log A(u) for 0 < u <= pi/2, where every sine's argument is at most pi/2."""
        b = self.beta
        return (
            b * np.log(np.sin(b * u))
            + (1.0 - b) * np.log(np.sin((1.0 - b) * u))
            - np.log(np.sin(u))
        ) / (1.0 - b)

    def _zolotarev_log_a_near_pi(self, eps: np.ndarray) -> np.ndarray:
        """log A(pi - eps) for 0 < eps <= pi/2, each sine taken at an argument of at most pi/2.

        sin(x) = sin(pi - x), and of x = b u and pi - x = (1 - b) pi + b eps (and
        likewise for (1 - b) u) the smaller is formed without cancellation from
        eps; sin(u) is sin(eps).  A rounded u = pi - eps would cost the digits
        of eps.
        """
        b = self.beta
        sin_bu = np.sin(np.minimum(b * (math.pi - eps), (1.0 - b) * math.pi + b * eps))
        sin_cu = np.sin(np.minimum((1.0 - b) * (math.pi - eps), b * math.pi + (1.0 - b) * eps))
        return (b * np.log(sin_bu) + (1.0 - b) * np.log(sin_cu) - np.log(np.sin(eps))) / (1.0 - b)

    @cached_property
    def _left_switch(self) -> float:
        """log(a0 s) past which the saddle-point form puts f below the smallest normal float.

        With L = log(a0 s) that form is log f = k + (1/beta - 1/2) L - e^L, so
        X = a0 s solves X = k - log(tiny) + (1/beta - 1/2) log X: iterated from
        X = 1000, a contraction, since X stays above 700 + (1/beta - 1/2) log 700
        and so above 3 (1/beta - 1/2).
        """
        b, a0 = self.beta, self.a0
        k = math.log(b / (1.0 - b)) + math.log(a0) - 0.5 * math.log(2.0 * math.pi * b) - math.log(a0) / b
        x = 1000.0
        for _ in range(60):
            x = k - _LOG_TINY + (1.0 / b - 0.5) * math.log(x)
        return math.log(x)

    @cached_property
    def _zolotarev_nodes(self) -> tuple[tuple, tuple]:
        """The Zolotarev integral's nodes, built once per beta: (layer set, interior set).

        Each set is (log(W A), A, log A, first) over nodes in increasing u, W the
        quadrature weight in u; log(W A) and A are read as windows of ``width``
        nodes (row j starts at node j; dead nodes, W A = 0, pad the last rows).
        A is kept as its log where it would overflow (beta > 0.999).  A lam
        whose s A first reaches 1 at node k (k = 0 where a0 s >= 1) sums the
        window that starts at first[k].

        On [pi/2, pi) both sets have 20-point Gauss-Legendre panels in
        v = log(pi - u), from u = pi/2 to where log A passes
        c log(_TOP_LAM) + log(_LAYER_A0S + _BAND_SA), the largest log A that any
        lam < ``_TOP_LAM`` needs; a panel spans a rise of ``_PANEL_LOG_A`` in log A
        and at most ``_PANEL_V`` in v.  Past the first rise the panels are the
        same in both sets, and are built once.  On [0, pi/2] the layer set, for
        a0 s >= ``_LAYER_A0S``, halves its panels towards u = 0 down to the width
        1/sqrt(beta a0 s) of the u = 0 layer at the left switch, and every lam
        sums from node 0.  The interior set, for a0 s < ``_LAYER_A0S``, has two
        panels there, and first[k] drops the nodes before the peak whose W A
        add at most e^(-1 - _BAND_DROP) of those before node k: with s A <= 1
        there, the integral is at least e^(-1) times that.  ``width`` reaches
        from first[k] to where s A passes its value at node k by ``_BAND_SA``,
        for every k and s a lam of the set can have.
        """
        b, c, a0 = self.beta, self.c, self.a0
        x, w = _leggauss(_PANEL_NODES)
        half = 0.5 * math.pi
        log_a_half = float(self._zolotarev_log_a(np.array([half]))[0])
        log_a_top = c * math.log(_TOP_LAM) + math.log(_LAYER_A0S + _BAND_SA)
        # v at which log A reaches each value, interpolated in a table from v = log(pi/2)
        # down past log_a_top: near eps = 0, (1 - b) log A -> log sin(b pi) - log eps
        v_low = math.log(math.sin(b * math.pi)) - (1.0 - b) * (log_a_top + 1.0)
        while self._zolotarev_log_a_near_pi(np.array([math.exp(v_low)]))[0] < log_a_top:
            v_low -= 1.0
        table = np.linspace(math.log(half), v_low, 513)
        table_log_a = self._zolotarev_log_a_near_pi(np.exp(table))
        steps = log_a_half + _PANEL_LOG_A * np.arange(1, math.ceil((log_a_top - log_a_half) / _PANEL_LOG_A) + 1)

        def u_panels(u_edges: list[float]) -> tuple[np.ndarray, np.ndarray]:
            """(log A, log(W A)) on the panels in u between u_edges."""
            hu = 0.5 * np.diff(u_edges)[:, None]
            u = (np.array(u_edges[:-1])[:, None] + hu * (x + 1.0)).ravel()
            log_a = self._zolotarev_log_a(u)
            return log_a, np.log(hu * w).ravel() + log_a

        def v_panels(log_a_edges: np.ndarray, v_start: float) -> tuple[np.ndarray, np.ndarray]:
            """(log A, log(W A)) on the panels in v from v_start through where log A passes
            each of log_a_edges, each cut into equal pieces at most _PANEL_V wide."""
            v_edges = np.concatenate([[v_start], np.interp(log_a_edges, table_log_a, table)])
            widths = v_edges[:-1] - v_edges[1:]
            pieces = np.ceil(widths / _PANEL_V).astype(int)
            panel = np.repeat(np.arange(widths.size), pieces)
            part = np.arange(panel.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
            v_edges = np.append(v_edges[panel] - part / pieces[panel] * widths[panel], v_edges[-1])
            hv = 0.5 * (v_edges[:-1] - v_edges[1:])[:, None]
            v = (v_edges[:-1, None] - hv * (x + 1.0)).ravel()
            log_a = self._zolotarev_log_a_near_pi(np.exp(v))
            return log_a, np.log(hv * w).ravel() + v + log_a

        # the panels past log A = steps[0], common to both sets, are built once
        v_first = float(np.interp(steps[0], table_log_a, table))
        tail = v_panels(steps[1:], v_first)

        def node_set(parts: list[tuple[np.ndarray, np.ndarray]], banded: bool) -> tuple:
            log_a, log_wa = (np.concatenate(column) for column in zip(*parts))
            key = np.maximum.accumulate(log_a)
            if banded:
                below = np.concatenate([[-np.inf], np.logaddexp.accumulate(log_wa)[:-1]])
                first = np.searchsorted(below, below - 1.0 - _BAND_DROP, side="right") - 1
            else:
                first = np.zeros(key.size, dtype=np.intp)
            if banded:
                reach = key + math.log(_LAYER_A0S + _BAND_SA)
            else:
                # every lam of the layer set has s A = a0 s >= _LAYER_A0S at node 0
                reach = key[:1] + math.log(1.0 + _BAND_SA / _LAYER_A0S)
            width = int((np.searchsorted(key, reach, side="right") - first[: reach.size]).max())
            pad = np.full(width, -np.inf)
            log_a = np.concatenate([log_a, pad])
            a = np.exp(log_a) if key[-1] < _LOG_HUGE else log_a
            windows = np.lib.stride_tricks.sliding_window_view
            return windows(np.concatenate([log_wa, pad]), width), windows(a, width), key, first

        # the layer set's panels halve in u, so log(A/a0) ~ beta u^2/2 quarters; past
        # pi/2 they keep quartering it, so that a layer still alive there (small beta)
        # stays resolved, until the panels of the common tail are finer
        layer_width = 1.0 / math.sqrt(b * math.exp(self._left_switch))
        u_edges = [half]
        while u_edges[0] > 2.0 * layer_width:
            u_edges.insert(0, 0.5 * u_edges[0])
        log_a0, layer_edges = math.log(a0), []
        edge = log_a0 + 4.0 * (log_a_half - log_a0)
        while edge < steps[0]:
            layer_edges.append(edge)
            edge = log_a0 + 4.0 * (edge - log_a0)
        layer_head = [u_panels([0.0] + u_edges), v_panels(np.append(layer_edges, steps[0]), table[0])]
        interior_head = [u_panels([0.0, 0.5 * half, half]), v_panels(steps[:1], table[0])]
        return node_set(layer_head + [tail], banded=False), node_set(interior_head + [tail], banded=True)

    def _log_pdf_zolotarev(self, lam: np.ndarray) -> np.ndarray:
        """log f from the cached nodes: per lam, a max-shifted log-sum-exp of log(W A) - s A.

        Each lam sums the ``width`` nodes of its set that start at its band's
        first node (see ``_zolotarev_nodes``): one exponential per node, and a
        value that does not depend on the other lam it is evaluated with.
        """
        b = self.beta
        log_s = -self.c * np.log(lam)
        s = np.exp(log_s)
        log_integral = np.empty_like(lam)
        layer = self.a0 * s >= _LAYER_A0S
        for rows, (windows_wa, windows_a, key, first_of) in zip((layer, ~layer), self._zolotarev_nodes):
            rows = np.flatnonzero(rows)
            step = max(1, _CHUNK_ELEMENTS // windows_wa.shape[1])
            for lo in range(0, rows.size, step):
                chunk = rows[lo : lo + step]
                first = first_of[np.minimum(np.searchsorted(key, -log_s[chunk]), key.size - 1)]
                if key[-1] < _LOG_HUGE:
                    terms = windows_wa[first] - s[chunk, None] * windows_a[first]
                else:
                    terms = windows_wa[first] - np.exp(log_s[chunk, None] + windows_a[first])
                peak = terms.max(axis=1)
                terms -= peak[:, None]
                np.exp(terms, out=terms)
                log_integral[chunk] = peak + np.log(terms.sum(axis=1))
        return math.log(b / (1.0 - b)) - math.log(math.pi) - np.log(lam) / (1.0 - b) + log_integral

    def _log_pdf_left_tail(self, lam: np.ndarray) -> np.ndarray:
        b, c, a0 = self.beta, self.c, self.a0
        log_s = -c * np.log(lam)
        a0_s = np.exp(np.minimum(math.log(a0) + log_s, 709.0))
        return (
            math.log(b / (1.0 - b))
            + 0.5 * (math.log(a0) - math.log(2.0 * math.pi * b) - log_s)
            - np.log(lam) / (1.0 - b)
            - a0_s
        )

    # -- public surface ------------------------------------------------------

    def log_pdf(self, lam) -> np.ndarray | float:
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        if np.any(lam_arr <= 0):
            raise ValidationError("the subordinator density is supported on lam > 0")
        out = np.empty_like(lam_arr)
        if self.beta == 0.5:
            out[:] = self._log_pdf_levy(lam_arr)
        else:
            log_a0s = math.log(self.a0) - self.c * np.log(lam_arr)
            left = log_a0s > self._left_switch
            series = ~left & (lam_arr >= _SERIES_SWITCH)
            mid = ~left & ~series
            if np.any(left):
                out[left] = self._log_pdf_left_tail(lam_arr[left])
            if np.any(series):
                out[series] = self._log_pdf_series(lam_arr[series])
            if np.any(mid):
                out[mid] = self._log_pdf_zolotarev(lam_arr[mid])
        return float(out[0]) if np.ndim(lam) == 0 else out

    def neg_moment(self, p: float) -> float:
        """E[S^-p] = Gamma(1 + p/beta) / Gamma(1 + p), p >= 0."""
        if p < 0:
            raise ValidationError("neg_moment takes p >= 0")
        return math.exp(math.lgamma(1.0 + p / self.beta) - math.lgamma(1.0 + p))

