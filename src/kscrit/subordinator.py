"""One-sided stable subordinator densities.

``StableSubordinator(beta)`` is the law on (0, inf) with Laplace transform
exp(-a^beta), 0 < beta < 1; subordinating the heat semigroup by it (with
beta = alpha/2) produces the fractional semigroup exp(-t(-Lap)^(alpha/2)).

Evaluation is piecewise:

* beta = 1/2: the explicit Levy density (2 sqrt(pi))^-1 lam^(-3/2) e^(-1/(4 lam)).
* lam >= 2: the convergent power series
      f(lam) = (1/pi) sum_{k>=1} (-1)^(k+1) Gamma(1+k beta)/k! sin(pi k beta) lam^(-1-k beta).
* otherwise: the Zolotarev/Kanter single integral
      f(lam) = (beta/(1-beta)) lam^(-1/(1-beta)) (1/pi)
               int_0^pi A(u) exp(-A(u) s) du,   s = lam^(-beta/(1-beta)),
      A(u) = [sin(beta u)^beta sin((1-beta)u)^(1-beta) / sin(u)]^(1/(1-beta)),
  on two fixed Gauss-Legendre panels split at the width ~ 1/sqrt(beta*s) of
  the u = 0 boundary layer.
* a0*s large (a0 = beta^(beta/(1-beta)) (1-beta) = A(0)): the saddle-point
  left-tail form f ~ (beta/(1-beta)) sqrt(a0/(2 pi beta s)) lam^(-1/(1-beta)) e^(-a0 s),
  which is exact for beta = 1/2.

Negative Mellin moments are closed form: E[S^-p] = Gamma(1+p/beta)/Gamma(1+p).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError

__all__ = ["StableSubordinator"]

_SERIES_SWITCH = 2.0  # lam above which the power series converges fast
_LEFT_SWITCH = 500.0  # a0*s above which the saddle-point tail takes over
_SERIES_MAX_TERMS = 200


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

    def _log_pdf_series(self, lam: np.ndarray) -> np.ndarray:
        sign, log_mag, exponent = self._series_terms
        # terms: sign * exp(log_mag) * lam^(-1-k*beta)
        log_lam = np.log(lam)[:, None]
        terms = sign[None, :] * np.exp(log_mag[None, :] - exponent[None, :] * log_lam)
        total = np.sum(terms, axis=1) / math.pi
        return np.log(np.maximum(total, 1e-300))

    def _zolotarev_log_a(self, u: np.ndarray) -> np.ndarray:
        b = self.beta
        return (
            b * np.log(np.sin(b * u))
            + (1.0 - b) * np.log(np.sin((1.0 - b) * u))
            - np.log(np.sin(u))
        ) / (1.0 - b)

    def _log_pdf_zolotarev(self, lam: np.ndarray) -> np.ndarray:
        b = self.beta
        log_s = -self.c * np.log(lam)
        s = np.exp(log_s)
        x, w = _leggauss(64)
        # Panel layout (5 x 64 Gauss-Legendre nodes per lambda):
        #   P1: u in [0, u0], linear -- the u = 0 layer of width ~(a0*beta*s)^-1/2.
        #   B1-B3: eps = pi - u on a geometric bridge, integrated in v = log(eps)
        #     where A ~ (sin(pi*b)/eps)^(1/(1-b)) makes the integrand a smooth
        #     exponential in v.
        #   P5: the A(u)*s ~ beta maximum near u = pi, covering A*s in
        #     [1e-3, 60]; below 1e-27 relative nothing survives.
        u0 = np.minimum(1.0, 8.0 / np.sqrt(1.0 + self.a0 * b * s))
        log_S = math.log(math.sin(math.pi * b))
        eps_bridge_hi = math.pi - u0
        eps_peak_hi = np.minimum(
            np.exp(log_S + (1.0 - b) * (log_s - math.log(1e-3))), eps_bridge_hi
        )
        eps_peak_lo = np.minimum(
            np.exp(log_S + (1.0 - b) * (log_s - math.log(60.0))), eps_peak_hi
        )
        v_edges = [
            np.log(eps_peak_lo),
            np.log(eps_peak_hi),
        ]
        # bridge [eps_peak_hi, eps_bridge_hi] in three geometric sub-panels
        v_lo, v_hi = np.log(eps_peak_hi), np.log(eps_bridge_hi)
        for k in (1, 2, 3):
            v_edges.append(v_lo + (v_hi - v_lo) * k / 3.0)

        half1 = 0.5 * u0[:, None]
        nodes = [half1 * (x[None, :] + 1.0)]
        logw = [np.log(half1 * w[None, :])]
        for lo_edge, hi_edge in zip(v_edges[:-1], v_edges[1:]):
            span = np.maximum(0.5 * (hi_edge - lo_edge)[:, None], 1e-300)
            v_nodes = lo_edge[:, None] + span * (x[None, :] + 1.0)
            nodes.append(math.pi - np.exp(v_nodes))
            logw.append(np.log(span * w[None, :]) + v_nodes)
        nodes = np.concatenate(nodes, axis=1)
        logw = np.concatenate(logw, axis=1)

        log_a = self._zolotarev_log_a(np.clip(nodes, 1e-300, math.pi * (1 - 1e-16)))
        a_times_s = np.exp(np.minimum(log_a + log_s[:, None], 700.0))
        log_terms = logw + log_a - a_times_s
        peak = log_terms.max(axis=1)
        log_integral = peak + np.log(np.exp(log_terms - peak[:, None]).sum(axis=1))
        return (
            math.log(b / (1.0 - b))
            - math.log(math.pi)
            - np.log(lam) / (1.0 - b)
            + log_integral
        )

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
            left = log_a0s > math.log(_LEFT_SWITCH)
            series = ~left & (lam_arr >= _SERIES_SWITCH)
            mid = ~left & ~series
            if np.any(left):
                out[left] = self._log_pdf_left_tail(lam_arr[left])
            if np.any(series):
                out[series] = self._log_pdf_series(lam_arr[series])
            if np.any(mid):
                out[mid] = self._log_pdf_zolotarev(lam_arr[mid])
        return float(out[0]) if np.ndim(lam) == 0 else out

    def pdf(self, lam) -> np.ndarray | float:
        return np.exp(self.log_pdf(lam))

    def neg_moment(self, p: float) -> float:
        """E[S^-p] = Gamma(1 + p/beta) / Gamma(1 + p), p >= 0."""
        if p < 0:
            raise ValidationError("neg_moment takes p >= 0")
        return math.exp(math.lgamma(1.0 + p / self.beta) - math.lgamma(1.0 + p))

