"""The batched criterion quadrature: the probed window and the halving trapezoid
rule in log(rho), the fused kernel reduction, and oracle values for the integrals
that run through them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp
from semigroup_oracle import singular_semigroup_quadrature

from kscrit.criteria import blowup_constant_fractional, shell_semigroup_peak, singular_semigroup_value
from kscrit.errors import IntegrabilityError, NumericsError
from kscrit.kernels import (
    _PROBE_MAX_NODES,
    _PROBE_PER_UNIT,
    _WINDOW_DROP,
    RHO_CUT,
    SubordinatedKernel,
    build_kernel_table,
    log_quad,
    log_window,
    radial_kernel,
    tail_moment,
)

EPSREL = 1e-10

# (d, alpha) -> (C, L, norm_R residual, norm_Rp residual), as
# scipy.integrate.quad (epsrel=1e-10, one scalar kernel call per point) gave
# them before the batched path replaced it.  That C kept only the first term
# of the tail series past RHO_CUT; the C column here is that value minus that
# term plus a 30-digit mpmath quadrature of the whole series' tail.  K by
# quadrature is checked against its closed form instead.  The first three
# pairs are the fractional verdict pairs of the benchmark, the rest one alpha
# per sweep band.
QUAD_REFERENCE = {
    (5, 0.9): (1.014109819525417, 0.009399147239226172,
               1.2212453270876722e-14, 1.2878587085651816e-14),
    (4, 1.2): (1.048442201127034, 0.014094493174499057,
               -1.5543122344752192e-15, -1.3322676295501878e-15),
    (5, 1.5): (1.0579785572619569, 0.00843605413730764,
               -5.329070518200751e-15, -5.329070518200751e-15),
    (4, 0.0997): (1.0001603623595494, 0.0025741245593819705,
                  -1.3211653993039363e-13, -1.4277468096679513e-13),
    (9, 0.4175): (1.0006290061206427, 0.004909412555070341,
                  -2.5268676040468563e-13, 3.1530333899354446e-14),
    (3, 0.7175): (1.0240631635501298, 0.022128543991319704,
                  -6.439293542825908e-15, -6.217248937900877e-15),
    (10, 1.0175): (1.0049412953381187, 0.007097003067161899,
                   -5.218048215738236e-15, -4.9960036108132044e-15),
    (5, 1.2675): (1.0360372028598668, 0.009291063954663344,
                  -1.3877787807814457e-14, -1.3100631690576847e-14),
    (6, 1.7675): (1.0703466805531432, 0.0053642443366835576,
                  1.1102230246251565e-14, 1.1546319456101628e-14),
    (8, 1.9075): (1.0614859446355023, 0.0037874649243719557,
                  -1.587618925213974e-14, -1.5654144647214707e-14),
}


def quad_in_rho(log_f):
    """int_0^RHO_CUT exp(log_f(rho)) drho by ``log_quad`` in x = log(rho), on its own window."""

    def log_g(x):
        return np.atleast_2d(log_f(np.exp(x))) + x

    return log_quad(log_g, log_window(log_g))


class TestLogQuad:
    def test_gaussian_moments_share_nodes(self):
        # int_0^inf rho^p e^(-rho^2/4) drho = 2^p Gamma((p+1)/2)
        def log_f(rho):
            log_rho = np.log(rho)
            return np.stack([2.0 * log_rho, 3.0 * log_rho]) - 0.25 * rho**2

        log_i, err = quad_in_rho(log_f)
        exact = [2.0 * math.sqrt(math.pi), 8.0]
        np.testing.assert_allclose(np.exp(log_i), exact, rtol=1e-13)
        assert np.all(err <= EPSREL * np.exp(log_i))

    def test_noise_raises_instead_of_looping(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NumericsError, match="did not reach"):
            quad_in_rho(lambda rho: np.log1p(0.1 * rng.random(rho.shape)) - rho)

    def test_large_log_values(self):
        # a shift far beyond the float range: int_0^1000 e^(800) rho^3 drho
        log_i, err = quad_in_rho(lambda rho: 800.0 + 3.0 * np.log(rho))
        assert log_i[0] == pytest.approx(800.0 + math.log(1e12 / 4.0), rel=1e-14)


def single_shot_window(log_g):
    """``log_window`` evaluating its whole lattice at once: the reference for its pieces."""
    x = math.log(RHO_CUT) - np.arange(_PROBE_MAX_NODES - 1, -1, -1) / _PROBE_PER_UNIT
    # C's (d-2)/rho overflows to +inf near the smallest normal float, far left of any window
    with np.errstate(over="ignore"):
        vals = np.atleast_2d(log_g(x))
    if np.any(np.isnan(vals) | (vals == np.inf)):
        raise NumericsError("integrand is not finite on the probe")
    tops = vals.max(axis=1)
    keep = np.nonzero(np.any(vals >= tops[:, None] - _WINDOW_DROP, axis=0))[0]
    assert np.all(np.isfinite(tops)) and keep[0] > 0
    window = slice(keep[0] - 1, keep[-1] + 2)
    return x[window], vals[:, window]


def assert_same_window(log_g):
    x, vals = log_window(log_g)
    x_ref, vals_ref = single_shot_window(log_g)
    assert np.array_equal(x, x_ref) and np.array_equal(vals, vals_ref)


class TestLogWindow:
    @pytest.mark.parametrize("d,alpha", list(QUAD_REFERENCE) + [(3, 0.05), (60, 1.45), (200, 2.0)])
    def test_pieces_keep_every_window(self, d, alpha, monkeypatch, request):
        # one probe per kernel, the three rows of rho_integrals, which the shell
        # peak reads too, and gradient_nodes' two rows, as the kernel builds them
        import kscrit.kernels as kernels

        integrands = []

        def recorded(log_g):
            integrands.append(log_g)
            return log_window(log_g)

        monkeypatch.setattr(kernels, "log_window", recorded)
        radial_kernel.cache_clear()
        request.addfinalizer(radial_kernel.cache_clear)
        kernel = radial_kernel(d, alpha)
        kernel.rho_integrals
        shell_semigroup_peak(d, alpha)
        kernel.gradient_nodes
        assert len(integrands) == 2
        for log_g in integrands:
            assert_same_window(log_g)

    @pytest.mark.parametrize(
        "log_g",
        [
            # the peak lies left of the first piece, x >= log(RHO_CUT) - 16
            lambda x: -((x + 20.0) ** 2),
            # -inf on the whole first piece, and a second row peaking on it
            lambda x: np.stack([np.where(x > -10.0, -np.inf, 3.0 * x), -((x - 2.0) ** 2)]),
        ],
    )
    def test_pieces_keep_synthetic_windows(self, log_g):
        assert_same_window(log_g)

    @pytest.mark.parametrize("x_nan", [5.0, -12.0])
    def test_nan_at_an_evaluated_node_raises(self, x_nan):
        # x = 5 lies in the first piece, x = -12 in the second, which the
        # integrand's left tail forces the probe to evaluate
        def log_g(x):
            vals = -((x + 5.0) ** 2)
            vals[np.argmin(np.abs(x - x_nan))] = np.nan
            return vals

        with pytest.raises(NumericsError, match="integrand is not finite on the probe"):
            log_window(log_g)


class TestFusedReduction:
    def test_matches_logsumexp_per_order(self):
        k = radial_kernel(4, 0.3)
        rho = np.geomspace(1e-3, 1e3, 40)
        ref = np.array(
            [
                [logsumexp(k._logw - r * r * k._quarter_inv_lam + order * k._neg_s) for r in rho]
                for order in range(3)
            ]
        )
        np.testing.assert_allclose(k.log_sums(rho), ref, rtol=1e-14)

    def test_chunks_match_single_points(self, monkeypatch):
        import kscrit.kernels as kernels

        k = radial_kernel(5, 1.5)
        rho = np.geomspace(1e-2, 1e2, 7)
        whole = k.log_sums(rho)
        # one rho per exponent block
        monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 1)
        np.testing.assert_array_equal(k.log_sums(rho), whole)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        pair=st.sampled_from([(4, 0.0997), (8, 1.9075), (5, 1.5), (4, 0.3)]),
        values=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=-8.0, max_value=20.0).map(lambda u: 10.0**u)),
            min_size=1,
            max_size=40,
        ),
        picks=st.lists(st.integers(min_value=0, max_value=39), min_size=1, max_size=240),
        cols=st.sampled_from([1, 2, 3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_banded_reduction_is_the_full_width_one(self, pair, values, picks, cols, seed):
        # unsorted radii in {0} u [1e-8, 1e20], with duplicates, flat or 2-d
        k = radial_kernel(*pair)
        rho = np.array(values)[np.array(picks) % len(values)]
        rho = rho[: rho.size // cols * cols].reshape(-1, cols) if rho.size >= cols else rho
        got = k.log_sums(rho)
        # every s-node, one max shift per row and order
        r2 = rho.reshape(-1, 1) ** 2
        ref = np.empty((3, rho.size))
        for order in range(3):
            expo = k._logw - r2 * k._quarter_inv_lam + order * k._neg_s
            peak = expo.max(axis=1)
            ref[order] = peak + np.log(np.exp(expo - peak[:, None]).sum(axis=1))
        flat = got.reshape(3, -1)
        assert np.all(np.abs(flat - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref)))
        # a row does not depend on which radii share its evaluation
        for i, r in enumerate(rho.reshape(-1)):
            assert np.array_equal(k.log_sums(r), flat[:, i])
        perm = np.random.default_rng(seed).permutation(rho.size)
        assert np.array_equal(k.log_sums(rho.reshape(-1)[perm]), flat[:, perm])

    @pytest.mark.parametrize("pair", [(4, 0.0997), (5, 1.5), (8, 1.9075)])
    def test_band_never_changes_a_result(self, pair, monkeypatch):
        # every tile outside the band sums below the drop floor, so the full grid
        # gives the banded rows bit for bit
        k = radial_kernel(*pair)
        rng = np.random.default_rng(7)
        rho = np.concatenate([[0.0], np.geomspace(1e-8, 1e20, 300), 10.0 ** rng.uniform(-8.0, 20.0, 300)])
        banded = k.log_sums(rho)
        monkeypatch.setattr(SubordinatedKernel, "_band", lambda self, r2_ends, orders: (0, self._tiled[0].size))
        np.testing.assert_array_equal(k.log_sums(rho), banded)

    def test_views_keep_their_shapes(self):
        k = radial_kernel(3, 1.5)
        assert isinstance(k.log_R(0.5), float)
        assert isinstance(k.curvature_ratio(0.5), float)
        grid = np.full((2, 3), 0.5)
        assert k.Rpp(grid).shape == (2, 3)
        assert np.all(k.log_abs_Rp(grid) == k.log_abs_Rp(0.5))


@pytest.mark.parametrize("d,alpha", list(QUAD_REFERENCE))
def test_matches_quad_reference(d, alpha):
    c_ref, l_ref, norm_r_ref, norm_rp_ref = QUAD_REFERENCE[(d, alpha)]
    c, c_err = blowup_constant_fractional(d, alpha)
    k, k_err = singular_semigroup_quadrature(d, alpha)
    assert c == pytest.approx(c_ref, rel=1e-9)
    assert k == pytest.approx(singular_semigroup_value(d, alpha), rel=1e-9)
    assert shell_semigroup_peak(d, alpha)[0] == pytest.approx(l_ref, rel=1e-9)
    # the reported error estimates are within the requested tolerance: the
    # quadrature bodies are positive and below C, K and 1 respectively
    assert c_err <= EPSREL * c
    assert k_err <= EPSREL * k
    res = build_kernel_table(d, alpha).residuals
    assert 1.0 + res["norm_R"] == pytest.approx(1.0 + norm_r_ref, rel=1e-9)
    assert 1.0 + res["norm_Rp"] == pytest.approx(1.0 + norm_rp_ref, rel=1e-9)
    assert res["norm_R_abserr"] <= EPSREL
    assert res["norm_Rp_abserr"] <= EPSREL


# at (3, 0.05) the probe runs to six pieces, 384 nodes, where (5, 0.9) closes in one
@pytest.mark.parametrize("d,alpha", [(5, 0.9), (3, 0.05)])
def test_shell_peak_reads_the_quadrature_probe(d, alpha, monkeypatch, request):
    # the quadrature evaluates every node, probe and midpoints, once, and L
    # adds only Brent's one-radius calls to it
    radial_kernel.cache_clear()
    request.addfinalizer(radial_kernel.cache_clear)
    kernel = radial_kernel(d, alpha)
    original, radii = kernel.log_sums, []

    def counted(rho, orders=(0, 1, 2)):
        radii.append(np.ravel(rho))
        return original(rho, orders)

    monkeypatch.setattr(kernel, "log_sums", counted)
    kernel.rho_integrals
    evaluated = np.concatenate(radii)
    assert np.unique(evaluated).size == evaluated.size
    radii.clear()
    shell_semigroup_peak(d, alpha)
    assert 0 < len(radii) <= 40 and all(r.size == 1 for r in radii)


@pytest.mark.parametrize(
    "d,alpha",
    [(5, 0.9), (4, 0.0997), (3, 0.7175), (6, 1.7675), (8, 1.9075), (60, 1.45), (10, 1.0175), (150, 1.95)],
)
def test_shell_peak_matches_a_tight_maximization(d, alpha):
    from scipy.optimize import minimize_scalar

    kernel = radial_kernel(d, alpha)
    l_val, t_at = shell_semigroup_peak(d, alpha)
    x_at = -math.log(t_at) / alpha
    best = minimize_scalar(
        lambda x: -((d - alpha) * x + kernel.log_R(math.exp(x))),
        bracket=(x_at - 0.3, x_at, x_at + 0.3),
        tol=1e-12,
    )
    # the last parabola resolves even the sharply curved maximum at (60, 1.45)
    # to the rounding of log L, where Brent's bracket alone left 14 units
    assert abs(math.log(l_val) + best.fun) <= 4 * np.finfo(float).eps * max(1.0, abs(best.fun))


#: C to 12 decimals from 30-digit mpmath values, the tail series summed in full
C_MPMATH = {
    (3, 0.05): 1.000070746765,
    (4, 0.1): 1.000161347744,
    (9, 0.4175): 1.000629006121,
    (3, 0.7175): 1.024063163550,
    (5, 0.9): 1.014109819525,
}


@pytest.mark.parametrize("d,alpha", list(C_MPMATH))
def test_constant_does_not_depend_on_the_cut(d, alpha, monkeypatch, request):
    # past RHO_CUT the whole tail series is integrated; its first term alone
    # moved C by 4.0% at (3, 0.05) when the cut came down to 1e2
    import kscrit.criteria as criteria
    import kscrit.kernels as kernels

    kernel = radial_kernel(d, alpha)
    c = blowup_constant_fractional(d, alpha)[0]
    assert c == pytest.approx(C_MPMATH[(d, alpha)], rel=0, abs=1e-11)
    for module in (criteria, kernels):
        monkeypatch.setattr(module, "RHO_CUT", 1e2)
    # a kernel caches its integrals: the lower cut needs a kernel of its own,
    # and no kernel built under it may reach a later test
    radial_kernel.cache_clear()
    request.addfinalizer(radial_kernel.cache_clear)
    assert radial_kernel(d, alpha) is not kernel
    assert blowup_constant_fractional(d, alpha)[0] == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("d,alpha", [(5, 0.9), (3, 2.0)])
def test_table_and_constant_share_one_quadrature(d, alpha, monkeypatch):
    import kscrit.criteria as criteria
    import kscrit.kernels as kernels

    radial_kernel.cache_clear()
    c_alone = blowup_constant_fractional(d, alpha)
    radial_kernel.cache_clear()
    residuals_alone = build_kernel_table(d, alpha).residuals
    radial_kernel.cache_clear()
    calls = []

    def counted(log_g, window):
        calls.append(log_g)
        return log_quad(log_g, window)

    for module in (kernels, criteria):
        # criteria once ran a quadrature of its own for C
        monkeypatch.setattr(module, "log_quad", counted, raising=False)
    assert build_kernel_table(d, alpha).residuals == residuals_alone
    assert blowup_constant_fractional(d, alpha) == c_alone
    assert len(calls) == 1


def test_one_driver_halves_the_s_grid_and_the_quadrature(monkeypatch):
    import kscrit.kernels as kernels

    driver, messages = kernels._nested_halving, []

    def counted(*args):
        messages.append(args[6])
        return driver(*args)

    monkeypatch.setattr(kernels, "_nested_halving", counted)
    SubordinatedKernel(5, 0.9).rho_integrals
    assert len(messages) == 2
    assert "subordination grid" in messages[0] and "quadrature" in messages[1]


@pytest.mark.parametrize(
    "d,alpha", list(QUAD_REFERENCE) + [(4, 0.3), (60, 1.45)] + [(d, 2.0) for d in (2, 3, 6, 10, 200)]
)
def test_rho_integrals_hold_their_error_estimate(d, alpha, monkeypatch):
    # against the same quadrature three halvings past its kept level: an
    # estimate that trusted the fast early rate where the integrand is live at
    # the cut would keep a level about 1e-11 off here
    import kscrit.kernels as kernels

    values, abserr = SubordinatedKernel(d, alpha).rho_integrals
    driver = kernels._nested_halving

    def finer(level, midpoints, summary, *args):
        level, _, err = driver(level, midpoints, summary, *args)
        for _ in range(3):
            mid = 0.5 * (level[0, :-1] + level[0, 1:])
            level = kernels._interleave(level, np.vstack([mid, midpoints(mid)]))
        return level, summary(level)[0], err

    # the kernel is built before the patch, so only its quadrature goes finer
    kernel = SubordinatedKernel(d, alpha)
    monkeypatch.setattr(kernels, "_nested_halving", finer)
    reference, _ = kernel.rho_integrals
    gap = np.abs(values - reference)
    assert np.all(gap <= 1e-12 * reference)
    assert np.all(abserr >= gap)
    assert np.all(abserr <= 1e-12 * values)


# the poisoned call: the window's probe, or the first level of midpoints
@pytest.mark.parametrize("poisoned_call", [0, 1])
def test_constant_guard_runs_at_every_quadrature_node(poisoned_call, monkeypatch, capsys, tmp_path, request):
    # the denominator of C is positive wherever the kernel sums are finite, so
    # its guard is what turns a non-finite sum at any node into a NumericsError
    from kscrit.cli import main
    from kscrit.criteria import criterion_constants

    radial_kernel.cache_clear()
    criterion_constants.cache_clear()
    request.addfinalizer(radial_kernel.cache_clear)
    request.addfinalizer(criterion_constants.cache_clear)
    kernel = radial_kernel(5, 0.9)
    original, calls = kernel.log_sums, []

    def poisoned(rho, orders=(0, 1, 2)):
        out = original(rho, orders)
        if len(calls) == poisoned_call:
            out[:, rho.size // 2] = np.nan
        calls.append(rho.size)
        return out

    monkeypatch.setattr(kernel, "log_sums", poisoned)
    with pytest.raises(NumericsError, match="denominator of C is not a positive float"):
        blowup_constant_fractional(5, 0.9)
    calls.clear()
    args = ["constants", "--d-range", "5", "--alpha", "0.9", "--out", str(tmp_path / "c")]
    assert main(args) == 2
    assert "denominator of C is not a positive float" in capsys.readouterr().err


@pytest.mark.parametrize("d", [3, 5])
def test_table_is_poisson_kernel_at_alpha_one(d):
    table = build_kernel_table(d, 1.0)
    rho = table.rho
    q = 1.0 + rho**2
    R = math.exp(gammaln(0.5 * (d + 1)) - 0.5 * (d + 1) * math.log(math.pi)) * q ** (-0.5 * (d + 1))
    np.testing.assert_allclose(table.R, R, rtol=1e-10)
    np.testing.assert_allclose(table.Rp, -(d + 1) * rho / q * R, rtol=1e-10)
    np.testing.assert_allclose(
        table.Rpp, R * ((d + 1) * (d + 3) * rho**2 / q**2 - (d + 1) / q), rtol=1e-10
    )


@pytest.mark.parametrize("d,alpha", [(3, 1.0), (5, 0.5), (3, 0.05)])
def test_normalization_tail_passes_vanishing_terms(d, alpha):
    # c_k vanishes where alpha k is an even integer; a tail series that stops
    # at the first small term leaves norm_R about 1e-9 off at the first two.
    # At alpha = 0.05 the series needs more than 12 terms at RHO_CUT.
    res = build_kernel_table(d, alpha).residuals
    assert abs(res["norm_R"]) <= 1e-13 and abs(res["norm_Rp"]) <= 1e-13


@pytest.mark.parametrize(
    "d,moment,derivative",
    # per d: the two normalizations (d, d + 1), K's moment d - alpha, and the
    # curve's tails for a datum with M ~ r^p past the cut, p = 0 and p = d - 1
    [(d, m, der) for d in (3, 5)
     for m, der in ((d, False), (d + 1, True), (d - 1, False), (1, True), (d, True))],
)
def test_tail_moment_of_poisson_kernel(d, moment, derivative):
    # alpha = 1: R = c (1+rho^2)^(-(d+1)/2) and |R'| = (d+1) rho R/(1+rho^2)
    c = math.exp(gammaln(0.5 * (d + 1)) - 0.5 * (d + 1) * math.log(math.pi))

    def integrand(rho):
        q = 1.0 + rho * rho
        r = c * q ** (-0.5 * (d + 1))
        return rho ** (moment - 1.0) * (r * (d + 1) * rho / q if derivative else r)

    ref, _ = quad(integrand, RHO_CUT, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    assert tail_moment(d, 1.0, moment, derivative) == pytest.approx(ref, rel=1e-12)


def test_tail_moment_rejects_divergent_tail():
    # rho^(d+alpha-1) R decays like 1/rho: the tail diverges logarithmically
    with pytest.raises(IntegrabilityError):
        tail_moment(3, 1.0, 4.0, False)
    with pytest.raises(IntegrabilityError):
        tail_moment(3, 1.0, 5.0, True)
