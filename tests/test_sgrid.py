"""The subordination s-grid against exact oracles.

Every fractional kernel sums over one trapezoid grid in s = log(lam), uniform
in a variable t that its map sends to s.  Its weights must reproduce the
closed-form negative moments of the stable subordinator, and its ``log_sums``
must match the same map on a t-lattice 4x finer, on a window that reaches
400 nats below the integrand's peak.  The map may not cost nodes, must cut
them where c = beta/(1 - beta) is large, and is the identity for c < 2; next
to alpha = 2 the grids converge without a warning.  The
pairs are the seven ``sweep`` strata and three ``verdicts`` pairs of the
benchmark, the curve's small-alpha pair (4, 0.3), the smallest alpha
(3, 0.05), the high dimension (80, 1.5), and (60, 1.4454) and (80, 1.3654),
where the halving stops one level before a rule on the last move alone would.
"""

import math

import numpy as np
import pytest

from kscrit.errors import NumericsError
import kscrit.kernels as kernels
from kscrit.kernels import (
    _RHO_SUPPORT, SubordinatedKernel, _cliff_map, _UniformMap, build_kernel_table, radial_kernel,
)

PAIRS = [
    (4, 0.0997), (9, 0.4175), (3, 0.7175), (10, 1.0175), (5, 1.2675), (6, 1.7675), (8, 1.9075),
    (5, 0.9), (4, 1.2), (5, 1.5),
    (4, 0.3), (3, 0.05), (80, 1.5), (60, 1.4454), (80, 1.3654),
]
RHO = np.concatenate([[0.0], np.geomspace(1e-6, 1e20, 800)])
_LOG_4PI = math.log(4.0 * math.pi)


@pytest.fixture(scope="module", params=PAIRS, ids=lambda p: f"d{p[0]}-a{p[1]}")
def kernel(request):
    return SubordinatedKernel(*request.param)


def _log_weights(kernel):
    """log(trapezoid weight * f(lam) * lam) on the kernel's s-grid: the weights of E[g(S)]."""
    return kernel._logw + 0.5 * kernel.d * (_LOG_4PI + kernel._s)


def _log_sum(x):
    top = x.max()
    return top + math.log(np.exp(x - top).sum())


def _t_lattice(kernel):
    """The kernel's grid as its map sees it: the uniform t-lattice and the map s = g(t)."""
    grid_map = _cliff_map(kernel.subordinator, kernel.d)
    t_lo, t_hi = grid_map.t_range(kernel._s[0], kernel._s[-1])
    return np.linspace(t_lo, t_hi, kernel._s.size), grid_map


def _series_tail(kernel, p):
    """The trapezoid nodes past the grid's right end, summed from the lam > 2 series.

    The t-lattice goes on past its last node with the mapped weights h g'(t),
    the last node half-weighted, until lam^(-beta - p) has fallen by e^-40;
    there f(lam) lam^(1-p) = sum_k a_k lam^(-k beta - p).
    """
    b_sub = kernel.beta
    t, grid_map = _t_lattice(kernel)
    h = t[1] - t[0]
    s, log_slope = grid_map(t[-1] + h * np.arange(math.ceil(40.0 / ((b_sub + p) * h)) + 1))
    w = h * np.exp(log_slope)
    w[0] *= 0.5
    total = 0.0
    for k in range(1, 60):
        a_k = (-1) ** (k + 1) * math.exp(math.lgamma(1 + k * b_sub) - math.lgamma(k + 1.0)) * math.sin(
            math.pi * k * b_sub
        ) / math.pi
        total += a_k * float(np.sum(w * np.exp(-(k * b_sub + p) * s)))
    return total


def test_weights_give_the_negative_moments(kernel):
    # E[S^-p] = Gamma(1 + p/beta) / Gamma(1 + p); p = d/2, d/2 + 1, d/2 + 2 are
    # the orders the kernel sums at rho = 0, and p = 0 is the total mass
    d, sub, log_w = kernel.d, kernel.subordinator, _log_weights(kernel)
    for p in (0.5 * d, 0.5 * d + 1.0, 0.5 * d + 2.0):
        got = _log_sum(log_w - p * kernel._s)
        assert got == pytest.approx(math.log(sub.neg_moment(p)), abs=1e-12), p
    # the grid ends where the lam^(-d/2) orders are dead; the mass keeps a slow
    # lam^(-beta) tail past it, added here from the series
    mass = math.exp(_log_sum(log_w)) + _series_tail(kernel, 0.0)
    assert mass == pytest.approx(1.0, rel=1e-12, abs=0)


def _reference(kernel, refine=4, drop=400.0):
    """The kernel's own t-lattice refined ``refine`` times and widened to ``drop`` nats.

    Left, it reaches until orders 0-2 of the rho = 0 integrand are ``drop``
    below their maxima; right, to 2 log(_RHO_SUPPORT) + drop/(beta + d/2).
    Returns the nodes s = g(t) and log(weight * f) there, the weights h g'(t).
    """
    sub, d, s = kernel.subordinator, kernel.d, kernel._s
    orders = np.arange(3.0)[:, None]

    def mix(x):
        return sub.log_pdf(np.exp(x)) + x - 0.5 * d * (_LOG_4PI + x) - orders * x

    tops = mix(s).max(axis=1)
    lo = s[0]
    while np.any(mix(np.array([lo]))[:, 0] >= tops - drop):
        lo -= 5.0
    hi = max(s[-1], 2.0 * math.log(_RHO_SUPPORT) + drop / (kernel.beta + 0.5 * d))
    t, grid_map = _t_lattice(kernel)
    t_lo, t_hi = grid_map.t_range(lo, hi)
    h = (t[1] - t[0]) / refine
    n_lo, n_hi = math.ceil((t[0] - t_lo) / h), math.ceil((t_hi - t[-1]) / h)
    x, log_slope = grid_map(t[0] + h * np.arange(-n_lo, (t.size - 1) * refine + n_hi + 1))
    return x, math.log(h) + log_slope + sub.log_pdf(np.exp(x))


def _sums_on(d, x, log_wf):
    grid = SubordinatedKernel.__new__(SubordinatedKernel)
    grid.d = d
    grid._set_grid(x, log_wf)
    return grid.log_sums(RHO)


def test_log_sums_match_a_finer_wider_grid(kernel):
    x, log_wf = _reference(kernel)
    inside = x <= kernel._s[-1] + 0.5 * (x[1] - x[0])
    cut = _sums_on(kernel.d, x[inside], log_wf[inside])
    full = np.logaddexp(cut, _sums_on(kernel.d, x[~inside], log_wf[~inside]))

    def rel(a, b):
        return np.abs(a - b) / np.maximum(1.0, np.abs(b))

    # the right end, placed as in the earlier fixed grids, holds the wide
    # reference to 1e-12 for every rho up to _RHO_SUPPORT and, depending on the
    # pair, up to 1e5-1e20; there the spacing and the left end must hold it too
    held = np.all(rel(cut, full) <= 1e-12, axis=0)
    assert np.all(held[RHO <= _RHO_SUPPORT])
    assert rel(kernel.log_sums(RHO), cut)[:, held].max() <= 1e-12


def test_a_jump_in_the_density_runs_the_halving_into_the_node_cap(monkeypatch):
    # a step in log f makes the trapezoid error fall like h, not geometrically:
    # the halving keeps going until _MAX_NODES, and the kernel is a NumericsError
    from kscrit.subordinator import StableSubordinator

    smooth = StableSubordinator.log_pdf
    def jumpy(self, lam):
        return smooth(self, lam) + 0.1 * (lam > 2.0)

    monkeypatch.setattr(StableSubordinator, "log_pdf", jumpy)
    with pytest.raises(NumericsError, match=f"did not converge within {kernels._MAX_NODES} nodes"):
        SubordinatedKernel(5, 1.0)


def test_a_grid_past_the_node_cap_is_a_numerics_error(monkeypatch):
    import kscrit.kernels as kernels

    monkeypatch.setattr(kernels, "_MAX_NODES", 100)
    with pytest.raises(NumericsError, match="did not converge within 100 nodes"):
        SubordinatedKernel(5, 1.0)


#: nodes of each PAIRS grid when every grid was uniform in s; the last two
#: grids are uniform in s (c < 3 at d > 50), as measured with the current halving
_UNIFORM_NODES = {
    (4, 0.0997): 1665, (9, 0.4175): 593, (3, 0.7175): 945, (10, 1.0175): 433, (5, 1.2675): 601,
    (6, 1.7675): 1985, (8, 1.9075): 3329, (5, 0.9): 657, (4, 1.2): 697, (5, 1.5): 1153,
    (4, 0.3): 1009, (3, 0.05): 2873, (80, 1.5): 769, (60, 1.4454): 401, (80, 1.3654): 385,
}


def test_no_grid_gains_nodes_over_the_uniform_one(kernel):
    assert kernel._s.size <= _UNIFORM_NODES[(kernel.d, kernel.alpha)]


def test_a_level_whose_estimated_error_is_in_target_ends_the_halving():
    # the moves into these levels, 3.2e-7 and 6.2e-7, exceed the 3e-7 that a
    # rule on the move alone asks for, which spends one more halving (801 and
    # 769 nodes); the rate of the moves puts the levels' own errors at 7.2e-11
    # and 1.3e-10, within _HALVING_TOL
    assert SubordinatedKernel(60, 1.4454)._s.size == 401
    assert SubordinatedKernel(80, 1.3654)._s.size == 385


@pytest.mark.parametrize("alpha", [round(1.30 + 0.04 * k, 2) for k in range(6)])
@pytest.mark.parametrize("d", [20, 40, 60, 80])
def test_no_large_d_grid_gains_nodes_over_the_uniform_one(d, alpha, monkeypatch):
    # near alpha = 4/3 the cliff map can save one halving or none; where it saves
    # none (d = 60 and 80 there) its grid would have more nodes than the uniform one
    mapped = SubordinatedKernel(d, alpha)._s.size
    monkeypatch.setattr(kernels, "_cliff_map", lambda sub, d: _UniformMap())
    assert mapped <= SubordinatedKernel(d, alpha)._s.size


@pytest.mark.parametrize("d, alpha", [(5, 1.99), (5, 1.995), (8, 1.999)])
def test_kernels_next_to_alpha_2_converge_without_a_warning(d, alpha):
    # the density is smooth across lam = 2, so the halving converges geometrically
    # here too; the normalizations hold to rounding
    table = build_kernel_table(d, alpha)
    assert radial_kernel(d, alpha).warnings == ()
    assert radial_kernel(d, alpha)._s.size <= 5000
    assert abs(table.residuals["norm_R"]) <= 1e-12 and abs(table.residuals["norm_Rp"]) <= 1e-12


@pytest.mark.parametrize("alpha", [1.5, 1.77, 1.9, 1.95])
@pytest.mark.parametrize("d", [5, 8])
def test_high_alpha_grids_do_not_grow_like_c(d, alpha):
    # uniform in s these grids had 881 (d = 8, alpha = 1.5) to 8577 (d = 5,
    # alpha = 1.95) nodes, growing like c = beta/(1 - beta) = 3 ... 39
    assert SubordinatedKernel(d, alpha)._s.size <= 1100


@pytest.mark.parametrize(
    "d, alpha", [(3, 0.05), (4, 0.0997), (4, 0.3), (9, 0.4175), (5, 0.9), (5, 1.0), (4, 1.2), (5, 1.2675)]
)
def test_grids_with_c_below_2_are_uniform_in_s(d, alpha):
    # c = beta/(1 - beta) < 2: the nested uniform grid in s, bit for bit, with
    # the plain trapezoid weights
    kernel = SubordinatedKernel(d, alpha)
    s = kernel._s
    expected = np.linspace(s[0], s[-1], math.ceil(s[-1] - s[0]) + 1)
    while expected.size < s.size:
        mid = 0.5 * (expected[:-1] + expected[1:])
        expected = np.insert(mid, np.arange(expected.size), expected)
    assert np.array_equal(s, expected)
    log_h = np.full(s.size, math.log((s[-1] - s[0]) / (s.size - 1)))
    log_h[[0, -1]] += math.log(0.5)
    log_f = kernel.subordinator.log_pdf(np.exp(s))
    assert np.array_equal(kernel._logw, kernel._log_mix_weight(log_h + log_f, s))
