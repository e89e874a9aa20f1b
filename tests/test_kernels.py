import math

import numpy as np
import pytest

from kscrit.criteria import criterion_curve
from kscrit.errors import IntegrabilityError, ValidationError
from kscrit.kernels import (
    GaussianKernel,
    build_kernel_table,
    radial_kernel,
    tail_coefficient,
    validate_kernel,
)
from kscrit.radial import (
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
        k = GaussianKernel(3)
        assert k.R(0.0) == pytest.approx((4 * math.pi) ** -1.5, rel=1e-14)
        assert k.R(2.0) == pytest.approx((4 * math.pi) ** -1.5 * math.exp(-1), rel=1e-14)

    def test_normalization_any_d(self):
        from scipy.integrate import quad

        for d in (2, 3, 6):
            k = GaussianKernel(d)
            val, _ = quad(lambda r: k.R(r) * r ** (d - 1), 0, 40)
            assert sphere_area(d) * val == pytest.approx(1.0, abs=1e-10)


class TestSubordinatedKernel:
    def test_alpha2_bypasses_to_gaussian(self):
        k = radial_kernel(3, 2.0)
        assert isinstance(k, GaussianKernel)
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

    def test_rejects_alpha_two(self):
        from kscrit.kernels import SubordinatedKernel

        with pytest.raises(ValidationError):
            SubordinatedKernel(3, 2.0)


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
    from kscrit.kernels import SubordinatedKernel

    with pytest.warns(UserWarning):
        SubordinatedKernel(61, 1.0)
