"""The batched criterion quadrature: the Gauss-Kronrod rule, the fused kernel
reduction, and oracle values for the integrals that run through them."""

import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from kscrit.criteria import (
    blowup_constant_fractional,
    shell_semigroup_peak,
    singular_semigroup_quadrature,
)
from kscrit.errors import NumericsError
from kscrit.kernels import (
    GK15_GAUSS,
    GK15_KRONROD,
    GK15_NODES,
    build_kernel_table,
    log_quad,
    radial_kernel,
)

EPSREL = 1e-10

# (d, alpha) -> (C, K by quadrature, L, norm_R residual, norm_Rp residual), as
# scipy.integrate.quad (epsrel=1e-10, one scalar kernel call per point) gave
# them before the batched path replaced it.  The first three pairs are the
# fractional verdict pairs of the benchmark, the rest one alpha per sweep band.
QUAD_REFERENCE = {
    (5, 0.9): (1.0141116994816728, 0.6909615971356284, 0.009399147239226172,
               1.2212453270876722e-14, 1.2878587085651816e-14),
    (4, 1.2): (1.0484421172736007, 0.8165346737244236, 0.014094493174499057,
               -1.5543122344752192e-15, -1.3322676295501878e-15),
    (5, 1.5): (1.0579785510998594, 0.8749999999999596, 0.00843605413730764,
               -5.329070518200751e-15, -5.329070518200751e-15),
    (4, 0.0997): (1.122578932385286, 0.5142242933125175, 0.0025741245593819705,
                  -1.3211653993039363e-13, -1.4277468096679513e-13),
    (9, 0.4175): (1.0040194030516307, 0.5490671624477831, 0.004909412555070341,
                  -2.5268676040468563e-13, 3.1530333899354446e-14),
    (3, 0.7175): (1.0240943125397024, 0.700307976078649, 0.022128543991319704,
                  -6.439293542825908e-15, -6.217248937900877e-15),
    (10, 1.0175): (1.0049411427003174, 0.6775566845905441, 0.007097003067161899,
                   -5.218048215738236e-15, -4.9960036108132044e-15),
    (5, 1.2675): (1.0360371407458633, 0.8030202234060121, 0.009291063954663344,
                  -1.3877787807814457e-14, -1.3100631690576847e-14),
    (6, 1.7675): (1.0703466802633603, 0.9363149638886351, 0.0053642443366835576,
                  1.1102230246251565e-14, 1.1546319456101628e-14),
    (8, 1.9075): (1.06148594459073, 0.969026218256572, 0.0037874649243719557,
                  -1.587618925213974e-14, -1.5654144647214707e-14),
}
# the edge bands cost the most; they run with -m slow
_EDGE = {(4, 0.0997), (8, 1.9075)}
PAIRS = [
    pytest.param(*pair, marks=pytest.mark.slow) if pair in _EDGE else pair
    for pair in QUAD_REFERENCE
]


class TestGaussKronrodRule:
    def test_gauss_part_is_seven_point_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        used = GK15_GAUSS != 0.0
        order = np.argsort(GK15_NODES[used])
        np.testing.assert_allclose(GK15_NODES[used][order], nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(GK15_GAUSS[used][order], weights, rtol=0, atol=1e-15)

    def test_kronrod_rule_exact_to_degree_22(self):
        for deg in range(23):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            assert GK15_KRONROD @ GK15_NODES**deg == pytest.approx(exact, abs=1e-15)


class TestLogQuad:
    def test_gaussian_moments_share_nodes(self):
        # int_0^inf rho^p e^(-rho^2/4) drho = 2^p Gamma((p+1)/2)
        def log_f(rho):
            log_rho = np.log(rho)
            return np.stack([2.0 * log_rho, 3.0 * log_rho]) - 0.25 * rho**2

        log_i, err = log_quad(log_f)
        exact = [2.0 * math.sqrt(math.pi), 8.0]
        np.testing.assert_allclose(np.exp(log_i), exact, rtol=1e-13)
        assert np.all(err <= EPSREL * np.exp(log_i))

    def test_noise_raises_instead_of_looping(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NumericsError, match="did not reach"):
            log_quad(lambda rho: np.log1p(0.1 * rng.random(rho.shape)) - rho)

    def test_large_log_values(self):
        # a shift far beyond the float range: int_0^1000 e^(800) rho^3 drho
        log_i, err = log_quad(lambda rho: 800.0 + 3.0 * np.log(rho))
        assert log_i[0] == pytest.approx(800.0 + math.log(1e12 / 4.0), rel=1e-14)


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

    def test_views_keep_their_shapes(self):
        k = radial_kernel(3, 1.5)
        assert isinstance(k.log_R(0.5), float)
        assert isinstance(k.curvature_ratio(0.5), float)
        grid = np.full((2, 3), 0.5)
        assert k.Rpp(grid).shape == (2, 3)
        assert np.all(k.log_abs_Rp(grid) == k.log_abs_Rp(0.5))


@pytest.mark.parametrize("d,alpha", PAIRS)
def test_matches_quad_reference(d, alpha):
    c_ref, k_ref, l_ref, norm_r_ref, norm_rp_ref = QUAD_REFERENCE[(d, alpha)]
    c, c_err = blowup_constant_fractional(d, alpha, with_error=True)
    k, k_err = singular_semigroup_quadrature(d, alpha, with_error=True)
    assert c == pytest.approx(c_ref, rel=1e-9)
    assert k == pytest.approx(k_ref, rel=1e-9)
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
