import math

import numpy as np
import pytest

from kscrit.criteria import (
    blowup_constant,
    blowup_constant_fractional,
    blowup_rate_bound,
    classify,
    criterion_constants,
    criterion_curve,
    shell_mass_threshold,
    shell_semigroup_peak,
    singular_semigroup_quadrature,
    singular_semigroup_value,
)
from kscrit.errors import ValidationError
from kscrit.radial import (
    Chandrasekhar,
    ExplicitBlowupDatum,
    Gaussian,
    ShellAtom,
    TruncatedChandrasekhar,
    mass_profile,
    scale_profile,
    sphere_area,
)

# frozen after cross-checking against an independent midpoint rule on [0, 50]
# with 1e6 points (agreement 4e-16)
C3_GOLDEN = 1.3113590848375973


class TestBlowupConstant:
    def test_two_dimensions_exact(self):
        assert abs(blowup_constant(2) - 2.0) <= 1e-10

    def test_d3_frozen_golden_value(self):
        assert blowup_constant(3) == pytest.approx(C3_GOLDEN, abs=1e-10)

    def test_d3_against_midpoint_oracle(self):
        # lighter in-test version of the frozen oracle
        n = 200_000
        r = (np.arange(n) + 0.5) * (50.0 / n)
        oracle = (
            16.0
            / math.gamma(1.5)
            * np.sum(r**4 / (2.0 + 4.0 * r**2) * np.exp(-(r**2)))
            * (50.0 / n)
        )
        assert blowup_constant(3) == pytest.approx(oracle, abs=1e-8)

    def test_range_and_monotone_trend(self):
        vals = [blowup_constant(d) for d in range(3, 31)]
        assert all(1.0 <= v < 2.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_fractional_continuity_at_alpha_two(self):
        assert blowup_constant_fractional(5, 1.95) == pytest.approx(
            blowup_constant(5), rel=0.15
        )


class TestSingularSemigroupValue:
    def test_classical_is_one(self):
        for d in (3, 7, 30):
            assert singular_semigroup_value(d, 2.0) == 1.0

    def test_two_routes_agree(self):
        for d, alpha in ((3, 1.0), (5, 1.5), (6, 0.5)):
            closed = singular_semigroup_value(d, alpha)
            quadrature = singular_semigroup_quadrature(d, alpha)
            assert quadrature == pytest.approx(closed, rel=1e-6)

    def test_d3_alpha1_closed_form(self):
        assert singular_semigroup_value(3, 1.0) == pytest.approx(8 / math.pi**2, rel=1e-12)

    def test_requires_subcritical_order(self):
        with pytest.raises(ValidationError):
            singular_semigroup_value(3, 1.5)
        with pytest.raises(ValidationError):
            singular_semigroup_value(2, 2.0)


class TestShellSemigroupPeak:
    def test_classical_closed_form_d3(self):
        val, t_at = shell_semigroup_peak(3, 2.0)
        expected = 0.25 * math.pi**-1.5 * math.sqrt(0.5) * math.exp(-0.5)
        assert val == pytest.approx(expected, rel=1e-12)
        assert t_at == pytest.approx(1.0 / (2.0 * (3 - 2)), rel=1e-12)

    def test_classical_large_d_asymptote(self):
        d = 100
        val, _ = shell_semigroup_peak(d, 2.0)
        assert val * 2.0 * sphere_area(d) * math.sqrt(math.pi * (d - 2)) == pytest.approx(
            1.0, rel=0.05
        )

    def test_fractional_band_over_d(self):
        # L_alpha(d) * sigma_d * d^(alpha/2) stays in a bounded band
        alpha = 1.5
        vals = []
        for d in (6, 10, 20):
            l_val, _ = shell_semigroup_peak(d, alpha)
            vals.append(l_val * sphere_area(d) * d ** (alpha / 2))
        assert max(vals) / min(vals) < 3.0

    def test_d2_limit_value(self):
        val, t_at = shell_semigroup_peak(2, 2.0)
        assert val == pytest.approx(0.25 / math.pi, rel=1e-12)
        assert math.isinf(t_at)


class TestThreshold:
    def test_two_dimensional_threshold_is_8pi(self):
        assert shell_mass_threshold(2, 2.0) == pytest.approx(8 * math.pi, rel=1e-12)

    def test_asymptotic_ratio_bounded_and_decreasing(self):
        ratios = [
            shell_mass_threshold(d, 2.0) / (4 * sphere_area(d) * math.sqrt(math.pi * (d - 2)))
            for d in (20, 50, 100)
        ]
        assert all(r <= 1.1 for r in ratios)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_fractional_order_bound(self):
        alpha = 1.5
        vals = [
            shell_mass_threshold(d, alpha) / (sphere_area(d) * d ** (alpha / 2))
            for d in (6, 10, 20)
        ]
        assert max(vals) / min(vals) < 3.0


class TestConstantsRecord:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("d", [4, 6, 10])
    def test_sandwich(self, d, alpha):
        cc = criterion_constants(d, alpha)
        assert cc.K <= cc.C + 1e-6
        assert cc.C <= cc.upper_bound + 1e-6

    def test_classical_record(self):
        cc = criterion_constants(3, 2.0)
        assert cc.K == 1.0 and cc.upper_bound is None
        assert 1.0 < cc.C < 2.0

    def test_consistency_chain_classical(self):
        # K = 1 < C(d) < 2 so eta*u_C with eta > 2 always lands in the blowup branch
        for d in (3, 10, 30):
            cc = criterion_constants(d, 2.0)
            assert 1.0 < cc.C < 2.0

    @pytest.mark.parametrize("d", [3, 5])
    def test_smallest_alpha_sandwich(self, d):
        # at (5, 0.05) the shell peak sits near rho = 2e-6, below any fixed scan start
        cc = criterion_constants(d, 0.05)
        assert all(math.isfinite(x) for x in (cc.C, cc.K, cc.L, cc.N_threshold))
        assert cc.K <= cc.C <= 2.0 * d / (d - 2.0)

    def test_records_quadrature_errors_read_only(self):
        cc = criterion_constants(5, 1.5, cross_check=True)
        assert 0.0 < cc.residuals["C_abserr"] <= 1e-10 * cc.C
        assert cc.residuals["K_quadrature_abserr"] <= 1e-10 * cc.K
        with pytest.raises(TypeError):
            cc.residuals["C_abserr"] = 0.0

    def test_repeated_classify_reuses_constants(self, monkeypatch):
        import kscrit.criteria as criteria

        calls = []
        original = criteria.blowup_constant_fractional

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(criteria, "blowup_constant_fractional", counted)
        criterion_constants.cache_clear()
        datum = Gaussian(5, 10.0)
        first = classify(datum, 5, 1.5)
        second = classify(datum, 5, 1.5)
        assert len(calls) == 1
        assert second.constants is first.constants


class TestCriterionCurve:
    def test_scaled_singular_datum_constant_curve(self):
        m = mass_profile(Chandrasekhar(3, 2.5))
        cur = criterion_curve(m, 2.0)
        np.testing.assert_allclose(cur.values, 2.5, rtol=1e-6)
        assert cur.sup == pytest.approx(2.5, rel=1e-6)

    def test_shell_maximizer_time(self):
        d = 3
        cur = criterion_curve(mass_profile(ShellAtom(d, 10.0, 1.0)), 2.0)
        l_val, t_star = shell_semigroup_peak(d, 2.0)
        assert cur.sup == pytest.approx(10.0 * l_val, rel=1e-9)
        assert cur.T_at_sup == pytest.approx(t_star, rel=1e-4)

    def test_zero_datum(self):
        cur = criterion_curve(mass_profile(Gaussian(3, 0.0)), 2.0)
        assert np.all(cur.values == 0.0)

    def test_exact_datum_crosses_threshold_at_blowup_time(self):
        # the criterion curve of the explicit blowing-up datum equals C(d)
        # exactly at its blowup time
        T = 1.0
        m = mass_profile(ExplicitBlowupDatum(3, T))
        cur = criterion_curve(m, 2.0, threshold=blowup_constant(3))
        from kscrit.criteria import _CurveEvaluator
        from kscrit.kernels import radial_kernel

        ev = _CurveEvaluator(m, 2.0, radial_kernel(3, 2.0))
        assert ev.value(T) == pytest.approx(blowup_constant(3), rel=1e-5)
        assert cur.T_star == pytest.approx(T, rel=0.08)  # first grid node past T

    def test_monotone_in_datum(self):
        m1 = mass_profile(ShellAtom(3, 75.0, 1.0))
        m2 = mass_profile(ShellAtom(3, 150.0, 1.0))
        c = blowup_constant(3)
        cur1 = criterion_curve(m1, 2.0, threshold=c)
        cur2 = criterion_curve(m2, 2.0, threshold=c)
        assert np.all(cur2.values >= cur1.values)
        assert cur2.T_star <= cur1.T_star


class TestClassify:
    def test_super_threshold_singular_datum(self):
        rep = classify(Chandrasekhar(3, 2.5), 3, 2.0)
        assert rep.verdict.kind == "blowup"
        assert rep.curve.sup == pytest.approx(2.5, rel=1e-6)

    def test_sub_singular_datum_global(self):
        rep = classify(Chandrasekhar(3, 0.9), 3, 2.0)
        assert rep.verdict.kind == "global"
        assert rep.verdict.epsilon == pytest.approx(0.9, rel=1e-9)

    def test_intermediate_band(self):
        # between the singular density and C(3) ~ 1.31 nothing can be decided
        rep = classify(Chandrasekhar(3, 1.2), 3, 2.0)
        assert rep.verdict.kind == "indeterminate"

    def test_two_dimensional_mass_rule(self):
        hi = classify(Gaussian(2, 8 * math.pi * 1.01), 2, 2.0)
        lo = classify(Gaussian(2, 8 * math.pi * 0.99), 2, 2.0)
        assert hi.verdict.kind == "blowup" and hi.verdict.t_star is not None
        assert lo.verdict.kind == "global"

    def test_shell_above_and_below_threshold(self):
        n = shell_mass_threshold(3, 2.0)
        assert classify(ShellAtom(3, 1.05 * n, 1.0), 3, 2.0).verdict.kind == "blowup"
        assert classify(ShellAtom(3, 0.95 * n, 1.0), 3, 2.0).verdict.kind == "indeterminate"

    def test_fractional_scaled_singular_data(self):
        d, alpha = 6, 1.0
        cc = criterion_constants(d, alpha)
        eta_blow = 1.1 * cc.C / cc.K
        assert classify(Chandrasekhar(d, eta_blow, alpha), d, alpha).verdict.kind == "blowup"
        assert classify(Chandrasekhar(d, 0.8, alpha), d, alpha).verdict.kind == "global"

    def test_fractional_requires_subcritical_order(self):
        with pytest.raises(ValidationError):
            classify(Gaussian(3, 1.0), 3, 1.5)

    def test_deterministic(self):
        rep1 = classify(ShellAtom(3, 80.0, 1.0), 3, 2.0)
        rep2 = classify(ShellAtom(3, 80.0, 1.0), 3, 2.0)
        assert rep1.verdict == rep2.verdict
        assert np.array_equal(rep1.curve.values, rep2.curve.values)
        assert rep1.constants == rep2.constants

    def test_scaling_covariance_interior_crossing(self):
        prof = ShellAtom(3, 80.0, 1.0)
        for lam in (0.25, 3.7):
            rep1 = classify(prof, 3, 2.0)
            rep2 = classify(scale_profile(prof, lam, 2.0), 3, 2.0)
            assert rep1.verdict.kind == rep2.verdict.kind == "blowup"
            assert rep2.verdict.t_star * lam**2 == pytest.approx(
                rep1.verdict.t_star, rel=1e-12
            )

    def test_truncated_singular_datum_blows_up(self):
        # bounded compactly supported data above the threshold still blow up
        rep = classify(TruncatedChandrasekhar(3, 4.0, 1.0, 50.0), 3, 2.0)
        assert rep.verdict.kind == "blowup"

    def test_report_carries_concentration(self):
        rep = classify(Chandrasekhar(3, 1.0), 3, 2.0)
        assert rep.concentration.value == pytest.approx(2 * sphere_area(3), rel=1e-9)

    def test_accepts_bare_mass_profile(self):
        rep = classify(mass_profile(ShellAtom(3, 80.0, 1.0)), 3, 2.0)
        assert rep.verdict.kind == "blowup"

    def test_measure_datum_never_global(self):
        # a tiny shell cannot sit strictly below the singular density pointwise
        rep = classify(ShellAtom(3, 1e-3, 1.0), 3, 2.0)
        assert rep.verdict.kind == "indeterminate"


class TestBlowupRateBound:
    def test_at_zero_returns_initial(self):
        assert blowup_rate_bound(3.0, 1.3, 0.0) == pytest.approx(3.0)

    def test_marginal_initial_value_gives_hyperbola(self):
        c, T = 1.3, 2.0
        w0 = c / T
        for t in (0.5, 1.0, 1.9):
            assert blowup_rate_bound(w0, c, t) == pytest.approx(c / (T - t), rel=1e-12)

    def test_direct_arithmetic_case(self):
        c, T = 1.3, 2.0
        w0 = 2 * c / T
        assert blowup_rate_bound(w0, c, T / 4) == pytest.approx(4 * c / T, rel=1e-12)

    def test_pole_error(self):
        with pytest.raises(ValidationError):
            blowup_rate_bound(2.0, 1.0, 0.5)
