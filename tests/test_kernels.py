import math

import numpy as np
import pytest

from kscrit.criteria import criterion_curve
from kscrit.errors import IntegrabilityError
from kscrit.kernels import (
    RHO_CUT,
    SubordinatedKernel,
    build_kernel_table,
    radial_kernel,
    tail_coefficient,
    validate_kernel,
)
from kscrit.radial import (
    _SCAN_PER_DECADE,
    Chandrasekhar,
    Gaussian,
    MassProfile,
    ShellAtom,
    mass_profile,
    sphere_area,
)

FRACTIONAL_CASES = [(3, 0.5), (3, 1.0), (3, 1.5), (5, 0.5), (5, 1.0), (5, 1.5)]


class TestGaussKernel:
    def test_point_values(self):
        k = radial_kernel(3, 2.0)
        assert k.R(0.0) == pytest.approx((4 * math.pi) ** -1.5, rel=1e-14)
        assert k.R(2.0) == pytest.approx((4 * math.pi) ** -1.5 * math.exp(-1), rel=1e-14)

    def test_normalization_any_d(self):
        from scipy.integrate import quad

        for d in (2, 3, 6):
            k = radial_kernel(d, 2.0)
            val, _ = quad(lambda r: k.R(r) * r ** (d - 1), 0, 40)
            assert sphere_area(d) * val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 10, 60, 200])
    def test_point_mass_subordinator_is_the_closed_form(self, d):
        # beta = 1: one s-node at lam = 1 of weight 1, so every sum S_k is R
        k = radial_kernel(d, 2.0)
        rho = np.geomspace(1e-4, 1e3, 337)
        log_r = k.log_R(rho)
        assert np.array_equal(log_r, k.log_R0 - rho**2 / 4)
        assert np.array_equal(k.log_abs_Rp(rho), log_r + np.log(rho) - math.log(2.0))
        assert np.array_equal(k.log_sums(rho), np.broadcast_to(log_r, (3, rho.size)))
        coef = rho**2 / 4 - 0.5
        closed = np.sign(coef) * np.exp(np.log(np.abs(coef)) + log_r)
        normal = np.abs(closed) >= np.finfo(float).tiny
        assert normal.sum() > 50
        np.testing.assert_allclose(k.Rpp(rho)[normal], closed[normal], rtol=1e-12, atol=0)

    def test_rpp_against_mpmath(self):
        import mpmath

        d = 3
        rho = np.geomspace(1e-4, 1e3, 337)
        rpp = radial_kernel(d, 2.0).Rpp(rho)
        with mpmath.workdps(30):
            for r, got in zip(rho, rpp):
                x = mpmath.mpf(float(r))
                ref = (x**2 / 4 - 0.5) * (4 * mpmath.pi) ** (-d / 2) * mpmath.exp(-(x**2) / 4)
                if abs(ref) >= np.finfo(float).tiny:
                    assert abs(got - ref) <= 2e-13 * abs(ref)


class TestSubordinatedKernel:
    def test_alpha2_is_gauss_weierstrass(self):
        k = radial_kernel(3, 2.0)
        assert isinstance(k, SubordinatedKernel)
        rho = np.linspace(0, 10, 50)
        gauss = (4 * math.pi) ** -1.5 * np.exp(-(rho**2) / 4)
        np.testing.assert_allclose(k.R(rho), gauss, rtol=1e-12)

    def test_poisson_kernel_pin(self):
        k = radial_kernel(3, 1.0)
        rho = np.linspace(0.0, 10.0, 201)
        poisson = (1.0 / math.pi**2) * (1.0 + rho**2) ** -2.0
        np.testing.assert_allclose(k.R(rho), poisson, rtol=1e-6)

    @pytest.mark.parametrize("d,alpha", FRACTIONAL_CASES)
    def test_value_at_zero_closed_form(self, d, alpha):
        from scipy.special import gammaln

        k = radial_kernel(d, alpha)
        expected = math.exp(
            gammaln(1 + d / alpha) - gammaln(1 + d / 2) - 0.5 * d * math.log(4 * math.pi)
        )
        assert float(k.R(np.array([0.0]))[0]) == pytest.approx(expected, rel=1e-9)
        assert k.R0 == pytest.approx(expected, rel=1e-12)

    def test_derivative_matches_finite_differences(self):
        k = radial_kernel(3, 1.5)
        rho = np.geomspace(0.1, 10.0, 25)
        h = 1e-4
        fd = (k.R(rho + h) - k.R(rho - h)) / (2 * h)
        np.testing.assert_allclose(k.Rp(rho), fd, rtol=1e-5)

    def test_second_derivative_matches_finite_differences(self):
        k = radial_kernel(3, 1.5)
        rho = np.geomspace(0.1, 10.0, 25)
        h = 1e-3
        fd = (k.R(rho + h) - 2 * k.R(rho) + k.R(rho - h)) / h**2
        np.testing.assert_allclose(k.Rpp(rho), fd, rtol=1e-4)

    def test_alpha_two_builds_directly(self):
        k, shared = SubordinatedKernel(3, 2.0), radial_kernel(3, 2.0)
        rho = np.geomspace(1e-3, 30.0, 40)
        for name in ("log_R", "log_abs_Rp", "Rpp", "curvature_ratio"):
            assert np.array_equal(getattr(k, name)(rho), getattr(shared, name)(rho))
        assert (k.log_R0, k.R0) == (shared.log_R0, shared.R0)


@pytest.mark.parametrize(
    "d,alpha", [(2, 2.0), (10, 2.0), (3, 1.5), (5, 1.99), (4, 1.2), (5, 0.9), (3, 0.3), (2, 0.05)]
)
def test_gradient_nodes_divide_the_scan_step(d, alpha):
    # k steps of the nodes make one step of the criterion scan in log(T)/alpha,
    # so every product T^(1/alpha) rho of a scan lies on one lattice
    rho, h, _ = radial_kernel(d, alpha).gradient_nodes
    k = math.ceil(2.0 / alpha)
    assert k * h == pytest.approx(math.log(10.0) / (_SCAN_PER_DECADE * alpha), rel=1e-14)
    np.testing.assert_allclose(np.diff(np.log(rho)), h, rtol=1e-9)
    per_decade = math.log(10.0) / h
    assert 64.0 * (1.0 - 1e-14) <= per_decade < 64.0 + 32.0 * alpha
    if alpha < 2.0:
        assert rho[-1] == pytest.approx(RHO_CUT, rel=1e-14)


class TestKernelTable:
    @pytest.mark.parametrize("d,alpha", FRACTIONAL_CASES)
    def test_normalizations_and_tails(self, d, alpha):
        table = build_kernel_table(d, alpha)
        assert abs(table.residuals["norm_R"]) <= 1e-6
        assert abs(table.residuals["norm_Rp"]) <= 1e-6
        assert abs(table.residuals["R0"]) <= 1e-9
        for key, target in (("R", -(d + alpha)), ("Rp", -(d + 1 + alpha)), ("Rpp", -(d + 2 + alpha))):
            _, got = table.tail_fits[key]
            assert abs(got - target) <= 0.02 * abs(target)

    def test_poisson_tail_exponent(self):
        table = build_kernel_table(3, 1.0)
        assert table.tail_fits["R"][1] == pytest.approx(-4.0, abs=0.08)

    @pytest.mark.parametrize("d,alpha", [(3, 2.0), (5, 2.0), (3, 1.5), (5, 0.5)])
    def test_validation_passes(self, d, alpha):
        val = validate_kernel(build_kernel_table(d, alpha))
        assert val.passed, val.failures()

    def test_convexity_relation_on_grid(self):
        table = build_kernel_table(3, 1.5)
        convexity = table.rho * table.Rpp - table.Rp
        assert np.all(convexity >= -1e-12 * np.abs(table.Rp))
        assert np.all(table.Rp < 0.0)

    def test_tail_coefficient_matches_poisson_expansion(self):
        # Poisson d=3: R = (1/pi^2)(1+rho^2)^-2 ~ rho^-4/pi^2
        assert tail_coefficient(3, 1.0, 1) == pytest.approx(1 / math.pi**2, rel=1e-12)


class TestSemigroupAtOrigin:
    """Closed forms of T * W0(T), W0(T) the semigroup at the origin, through ``criterion_curve``."""

    def test_singular_datum_identity_alpha2(self):
        for d in (3, 5, 10):
            cur = criterion_curve(mass_profile(Chandrasekhar(d, 1.0)), 2.0, T_range=(1e-3, 1e3))
            np.testing.assert_allclose(cur.values, 1.0, rtol=0, atol=1e-8)

    def test_plain_inverse_square_datum(self):
        # t e^{tL}(|x|^-2)(0) = 1/(2(d-2)): the u_C identity divided by its coefficient
        d = 5
        mass = mass_profile(Chandrasekhar(d, 1.0 / (2 * (d - 2))))
        cur = criterion_curve(mass, 2.0, T_range=(1e-2, 1e2))
        np.testing.assert_allclose(cur.values, 1.0 / (2 * (d - 2)), rtol=1e-10)

    def test_shell_closed_form_alpha2(self):
        d = 3
        cur = criterion_curve(mass_profile(ShellAtom(d, 1.0, 1.0)), 2.0, T_range=(0.1, 2.0))
        t = cur.T
        expected = t * (4 * math.pi * t) ** (-d / 2) * np.exp(-1.0 / (4 * t))
        np.testing.assert_allclose(cur.values, expected, rtol=1e-10)

    def test_shell_fractional_equals_kernel_value(self):
        # for a shell of unit mass at radius r0, W(t) = P_t(r0) = t^(-d/alpha) R(r0 t^(-1/alpha))
        d, alpha = 3, 1.5
        k = radial_kernel(d, alpha)
        cur = criterion_curve(mass_profile(ShellAtom(d, 1.0, 2.0)), alpha, T_range=(0.2, 5.0))
        t = cur.T
        expected = t ** (1 - d / alpha) * k.R(2.0 * t ** (-1 / alpha))
        np.testing.assert_allclose(cur.values, expected, rtol=1e-8)

    def test_fractional_singular_datum_invariance(self):
        d, alpha = 5, 1.0
        mass = mass_profile(Chandrasekhar(d, 1.0, alpha))
        cur = criterion_curve(mass, alpha, T_range=(0.01, 100.0))
        np.testing.assert_allclose(cur.values, cur.values[0], rtol=1e-9)

    def test_zero_datum(self):
        for alpha in (2.0, 1.5):
            assert np.all(criterion_curve(mass_profile(Gaussian(3, 0.0)), alpha).values == 0.0)

    def test_monotone_in_datum(self):
        m1 = mass_profile(ShellAtom(3, 5.0, 1.0))
        m2 = mass_profile(ShellAtom(3, 9.0, 1.0))
        for alpha in (2.0, 1.5):
            assert np.all(criterion_curve(m1, alpha).values <= criterion_curve(m2, alpha).values)

    def test_integrability_gate(self):
        d = 3
        too_fat = MassProfile(
            d=d,
            fn=lambda r: r ** (d + 1.6),
            total_mass=math.inf,
            r_char=1.0,
            tail_exponent=d + 1.6,
            tail_coefficient=1.0,
            head_exponent=d + 1.6,
            head_coefficient=1.0,
        )
        with pytest.raises(IntegrabilityError):
            criterion_curve(too_fat, 1.5)


def test_dimension_warning_above_sixty():
    assert SubordinatedKernel(60, 1.0).warnings == ()
    (caveat,) = SubordinatedKernel(61, 1.0).warnings
    assert "above d=60" in caveat
    # the caveat concerns the s-grid, which alpha = 2 does not have
    assert radial_kernel(70, 2.0).warnings == ()
