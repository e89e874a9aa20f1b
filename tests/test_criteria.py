import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from semigroup_oracle import singular_semigroup_quadrature

import kscrit.criteria
from kscrit.cli import main
from kscrit.criteria import (
    _first_above,
    blowup_constant_fractional,
    classify,
    criterion_constants,
    criterion_curve,
    shell_semigroup_peak,
    singular_semigroup_value,
)
from kscrit.errors import NumericsError, ValidationError
from kscrit.radial import (
    Chandrasekhar,
    ExplicitBlowupDatum,
    Gaussian,
    MassProfile,
    ShellAtom,
    TruncatedChandrasekhar,
    mass_profile,
    scale_profile,
    sphere_area,
)

# frozen after cross-checking against an independent midpoint rule on [0, 50]
# with 1e6 points (agreement 4e-16)
C3_GOLDEN = 1.3113590848375973


def mpmath_blowup_constant(d):
    """C(d) = 16/Gamma(d/2) int rho^(d+1) e^(-rho^2) / (2(d-2) + 4 rho^2) drho at 30 digits."""
    with mpmath.workdps(30):
        peak = mpmath.sqrt(mpmath.mpf(d + 1) / 2)
        body = mpmath.quad(
            lambda r: r ** (d + 1) * mpmath.exp(-r * r) / (2 * (d - 2) + 4 * r * r),
            [0, peak, peak + 40],
        )
        return float(16 * body / mpmath.gamma(mpmath.mpf(d) / 2))


def _gap_to_classical(d, alpha):
    return abs(blowup_constant_fractional(d, alpha)[0] / blowup_constant_fractional(d, 2.0)[0] - 1.0)


class TestBlowupConstant:
    def test_two_dimensions_exact(self):
        assert abs(blowup_constant_fractional(2, 2.0)[0] - 2.0) <= 1e-10

    def test_d3_frozen_golden_value(self):
        assert blowup_constant_fractional(3, 2.0)[0] == pytest.approx(C3_GOLDEN, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 5, 10, 30, 60, 100, 200])
    def test_matches_mpmath_oracle(self, d):
        assert abs(blowup_constant_fractional(d, 2.0)[0] / mpmath_blowup_constant(d) - 1.0) <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 6, 10, 30])
    def test_classical_error_estimate_recorded(self, d):
        cc = criterion_constants(d, 2.0)
        assert 0.0 < cc.residuals["C_abserr"] <= 1e-10 * cc.C

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
        assert blowup_constant_fractional(3, 2.0)[0] == pytest.approx(oracle, abs=1e-8)

    def test_range_and_monotone_trend(self):
        vals = [blowup_constant_fractional(d, 2.0)[0] for d in range(3, 31)]
        assert all(1.0 <= v < 2.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_fractional_continuity_at_alpha_two(self):
        # |C_alpha(5)/C(5) - 1| is 2.0e-2, 1.1e-2 and 2.3e-3 at these alpha
        gaps = [_gap_to_classical(5, a) for a in (1.9, 1.95, 1.99)]
        assert gaps[-1] <= 5e-3
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_continuity_gap_keeps_shrinking(self):
        # the alpha = 1.995 kernel has 777 subordinator nodes (1.4e5 on a grid
        # uniform in s)
        assert _gap_to_classical(5, 1.995) < _gap_to_classical(5, 1.99)


class TestSingularSemigroupValue:
    def test_classical_is_one(self):
        for d in (3, 7, 30):
            assert singular_semigroup_value(d, 2.0) == 1.0

    def test_two_routes_agree(self):
        for d, alpha in ((3, 1.0), (5, 1.5), (6, 0.5)):
            closed = singular_semigroup_value(d, alpha)
            quadrature, _ = singular_semigroup_quadrature(d, alpha)
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

    @pytest.mark.parametrize("d", [3, 5, 10, 20])
    def test_poisson_closed_form_at_alpha_one(self, d):
        # at alpha = 1 the kernel is Poisson's, Gamma((d+1)/2) pi^(-(d+1)/2) (1 + rho^2)^(-(d+1)/2),
        # so rho^(d-1) R peaks at rho* = sqrt((d-1)/2), at time 1/rho*
        rho = math.sqrt(0.5 * (d - 1))
        expected = math.exp(
            math.lgamma(0.5 * (d + 1))
            - 0.5 * (d + 1) * math.log(math.pi)
            + (d - 1) * math.log(rho)
            - 0.5 * (d + 1) * math.log1p(rho**2)
        )
        val, t_at = shell_semigroup_peak(d, 1.0)
        assert val == pytest.approx(expected, rel=1e-12)
        assert t_at == pytest.approx(1.0 / rho, rel=1e-5)

    def test_d2_limit_value(self):
        val, t_at = shell_semigroup_peak(2, 2.0)
        assert val == pytest.approx(0.25 / math.pi, rel=1e-12)
        assert math.isinf(t_at)


class TestThreshold:
    def test_two_dimensional_threshold_is_8pi(self):
        assert criterion_constants(2, 2.0).N_threshold == pytest.approx(8 * math.pi, rel=1e-12)

    def test_asymptotic_ratio_bounded_and_decreasing(self):
        ratios = [
            criterion_constants(d, 2.0).N_threshold / (4 * sphere_area(d) * math.sqrt(math.pi * (d - 2)))
            for d in (20, 50, 100)
        ]
        assert all(r <= 1.1 for r in ratios)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_fractional_order_bound(self):
        alpha = 1.5
        vals = [
            criterion_constants(d, alpha).N_threshold / (sphere_area(d) * d ** (alpha / 2))
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

    @pytest.mark.parametrize("d,alpha", [(4, 0.0997), (5, 0.05)])
    def test_small_alpha_K_quadrature_matches_closed_form(self, d, alpha):
        k, _ = singular_semigroup_quadrature(d, alpha)
        assert abs(k / singular_semigroup_value(d, alpha) - 1.0) <= 1e-10

    def test_records_quadrature_errors_read_only(self):
        cc = criterion_constants(5, 1.5)
        assert 0.0 < cc.residuals["C_abserr"] <= 1e-10 * cc.C
        _, k_err = singular_semigroup_quadrature(5, 1.5)
        assert k_err <= 1e-10 * cc.K
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

        # a direct call and classify share one cache entry per (d, alpha)
        calls.clear()
        criterion_constants.cache_clear()
        direct = criterion_constants(5, 1.5)
        assert classify(datum, 5, 1.5).constants is direct
        assert len(calls) == 1


class TestCriterionCurve:
    def test_scaled_singular_datum_constant_curve(self):
        m = mass_profile(Chandrasekhar(3, 2.5))
        cur = criterion_curve(m, 2.0)
        np.testing.assert_allclose(cur.values, 2.5, rtol=1e-6)
        assert cur.sup == pytest.approx(2.5, rel=1e-6)

    @pytest.mark.parametrize(
        "d,alpha,bound,T_range",
        [
            (5, 0.9, 1e-10, None),
            (4, 1.2, 1e-10, None),
            (5, 1.5, 1e-10, None),
            (6, 0.5, 1e-8, None),
            (3, 0.6, 1e-8, None),
            (4, 0.0997, 1e-6, None),
            # the integrand grows like rho^(d+1) up to its peak near
            # rho = sqrt(2d); at d = 100 the default T scan overflows
            # T^(1-d/2), so a narrower one is used
            (60, 2.0, 1e-12, None),
            (100, 2.0, 1e-12, (1e-2, 1e2)),
        ],
    )
    def test_singular_datum_curve_is_K(self, d, alpha, bound, T_range):
        # T W0(T) of the singular stationary density is K_alpha(d) at every T
        cur = criterion_curve(mass_profile(Chandrasekhar(d, 1.0, alpha)), alpha, T_range=T_range)
        k = singular_semigroup_value(d, alpha)
        assert np.max(np.abs(cur.values / k - 1.0)) <= bound

    def test_high_dimension_gaussian_verdict(self):
        # sup T W0(T) (at T near width^2/(2d)) as a trapezoid rule on 641
        # nodes over [1e-6, 1e4] gives it; the mass puts it 6% above C(40)
        rep = classify(Gaussian(40, 2e12), 40, 2.0)
        assert rep.verdict.kind == "blowup"
        assert rep.curve.sup == pytest.approx(1.0756997192501836, rel=1e-12)

    def test_shell_maximizer_time(self):
        d = 3
        cur = criterion_curve(mass_profile(ShellAtom(d, 10.0, 1.0)), 2.0)
        l_val, t_star = shell_semigroup_peak(d, 2.0)
        assert cur.sup == pytest.approx(10.0 * l_val, rel=1e-9)
        assert cur.T_at_sup == pytest.approx(t_star, rel=1e-4)

    def test_zero_datum(self):
        cur = criterion_curve(mass_profile(Gaussian(3, 0.0)), 2.0)
        assert np.all(cur.values == 0.0)

    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_blocked_curve_is_the_whole_matrix(self, alpha):
        # a scan evaluated in blocks of T rows, each block a lattice of its own,
        # gives the same rows as the whole scan on one lattice
        from kscrit.criteria import _CurveEvaluator

        m = mass_profile(ShellAtom(3, 1.0, 2.0))
        cur = criterion_curve(m, alpha, T_range=(1e-4, 1e4))
        ev = _CurveEvaluator(m, alpha)
        whole = ev.values(cur.T)
        np.testing.assert_array_equal(whole, cur.values)
        blocked = np.concatenate([ev.values(block) for block in np.array_split(cur.T, 7)])
        np.testing.assert_array_equal(blocked, whole)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        d=st.integers(3, 10),
        alpha=st.sampled_from([2.0, 1.5, 0.9, 0.3]),
        kind=st.sampled_from(["shell", "gauss", "trunc"]),
        decades=st.sampled_from([8, 4]),
    )
    def test_scan_equals_one_row_evaluations(self, d, alpha, kind, decades):
        # the scan lies on one lattice, k = ceil(2/alpha) steps apart, and the
        # correlation over it gives every T the sum of its own one-row lattice
        from kscrit.criteria import _CurveEvaluator

        profile = {
            "shell": ShellAtom(d, 1.0, 2.0),
            "gauss": Gaussian(d, 5.0, 1.3),
            "trunc": TruncatedChandrasekhar(d, 0.7, 0.3, 20.0, gamma=alpha),
        }[kind]
        m = mass_profile(profile)
        t_lo = 10.0 ** (-decades / 2) * m.r_char**alpha
        cur = criterion_curve(m, alpha, T_range=(t_lo, t_lo * 10.0**decades))
        ev = _CurveEvaluator(m, alpha)
        steps = np.log(cur.T / cur.T[0]) / (alpha * ev.h)
        np.testing.assert_allclose(steps, math.ceil(2.0 / alpha) * np.arange(cur.T.size), rtol=0, atol=1e-9)
        rows = np.array([ev.values(cur.T[i : i + 1])[0] for i in range(cur.T.size)])
        np.testing.assert_allclose(cur.values, rows, rtol=1e-13, atol=0)

    def test_flat_supremum_is_reported_at_its_left_end(self):
        # T W0(T) of eta u_C and r^(alpha-d) M(r) are constant: the reported argmaxes
        # are the plateaus' left ends, which last-digit changes of eta cannot move
        reports = [
            classify(Chandrasekhar(5, eta, 1.5), 5, 1.5) for eta in (0.719229, 0.719229 * (1.0 + 1e-13))
        ]
        assert reports[0].curve.T_at_sup == reports[1].curve.T_at_sup == reports[0].curve.T[0]
        assert reports[0].concentration.attained_radius == reports[1].concentration.attained_radius == 0.0

    def test_exact_datum_crosses_threshold_at_blowup_time(self):
        # the criterion curve of the explicit blowing-up datum equals C(d)
        # exactly at its blowup time
        T = 1.0
        m = mass_profile(ExplicitBlowupDatum(3, T))
        from kscrit.criteria import _CurveEvaluator

        ev = _CurveEvaluator(m, 2.0)
        assert ev.values(np.array([T]))[0] == pytest.approx(blowup_constant_fractional(3, 2.0)[0], rel=1e-5)
        t_star = classify(m, 3, 2.0).verdict.t_star
        assert t_star == pytest.approx(T, rel=0.08)  # first grid node past T

    @pytest.mark.parametrize(
        "profile,alpha",
        [
            (Gaussian(3, 5.0, 1.0), 2.0),
            (Gaussian(5, 5.0, 1.3), 1.5),
            (ShellAtom(3, 1.0, 2.0), 1.5),
            (ExplicitBlowupDatum(3, 1.0), 2.0),
            (Chandrasekhar(5, 1.0, 1.0), 1.0),
        ],
        ids=["gauss-d3", "gauss-d5", "shell-d3", "exact-d3", "chandrasekhar-d5"],
    )
    def test_matches_quadrature_oracle(self, profile, alpha):
        # adaptive quad per T, independent of the curve's fixed trapezoid nodes
        from semigroup_oracle import semigroup_at_origin

        m = mass_profile(profile)
        cur = criterion_curve(m, alpha, T_range=(1e-2, 1e2))
        for t, value in zip(cur.T[::4], cur.values[::4]):
            assert value == pytest.approx(t * semigroup_at_origin(m, t, alpha), rel=1e-10)

    def test_monotone_in_datum(self):
        m1 = mass_profile(ShellAtom(3, 75.0, 1.0))
        m2 = mass_profile(ShellAtom(3, 150.0, 1.0))
        c = blowup_constant_fractional(3, 2.0)[0]
        cur1, cur2 = criterion_curve(m1, 2.0), criterion_curve(m2, 2.0)
        assert np.all(cur2.values >= cur1.values)
        assert _first_above(cur2, c) <= _first_above(cur1, c)


def _unimodal_loop(vals):
    """The step-by-step form of ``_discretely_unimodal``, kept as its reference."""
    tol = 1e-9 * max(float(np.max(np.abs(vals))), 1e-300)
    fell = False
    for step in np.diff(vals):
        if step < -tol:
            fell = True
        elif step > tol and fell:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([-1.0, -1e-12, 0.0, 1e-12, 1.0]), st.floats(-10.0, 10.0)),
        min_size=0,
        max_size=30,
    )
)
def test_discretely_unimodal_matches_the_loop(steps):
    # steps of 1e-12 lie inside the tolerance, steps of 1 outside it
    from kscrit.criteria import _discretely_unimodal

    vals = np.cumsum([1.0, *steps])
    assert _discretely_unimodal(vals) is _unimodal_loop(vals)


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
        n = criterion_constants(3, 2.0).N_threshold
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

    @pytest.mark.parametrize("lam", [1e-20, 1e50])
    def test_suprema_keep_their_accuracy_far_from_unit_scale(self, lam):
        # the refinement stops at a fixed width in log coordinates, which is
        # the same relative width at every scale
        prof = Gaussian(3, 5.0, 1.0)
        rep1 = classify(prof, 3, 2.0)
        rep2 = classify(scale_profile(prof, lam, 2.0), 3, 2.0)
        assert rep2.curve.sup == pytest.approx(rep1.curve.sup, rel=1e-13, abs=0.0)
        assert rep2.concentration.value == pytest.approx(rep1.concentration.value, rel=1e-13, abs=0.0)

    def test_truncated_singular_datum_blows_up(self):
        # bounded compactly supported data above the threshold still blow up
        rep = classify(TruncatedChandrasekhar(3, 4.0, 1.0, 50.0), 3, 2.0)
        assert rep.verdict.kind == "blowup"

    def test_report_carries_concentration(self):
        rep = classify(Chandrasekhar(3, 1.0), 3, 2.0)
        assert rep.concentration.value == pytest.approx(2 * sphere_area(3), rel=1e-9)

    def test_two_basins_warn_and_keep_the_outer_sup(self):
        # shells N = 10 at R = 1 and N = 2000 at R = 100: T W0(T) peaks near T = 0.5,
        # falls, and rises to a higher peak near T = 5000
        m = MassProfile(
            d=3,
            fn=lambda r: np.where(r >= 1.0, 10.0, 0.0) + np.where(r >= 100.0, 2000.0, 0.0),
            total_mass=2010.0,
            r_char=10.0,
            breakpoints=(1.0, 100.0),
            head_exponent=math.inf,
            tail_coefficient=2010.0,
            atoms=((1.0, 10.0), (100.0, 2000.0)),
        )
        rep = classify(m, 3, 2.0)
        assert not rep.curve.unimodal
        assert any("not discretely unimodal" in w for w in rep.warnings)
        assert rep.curve.sup > 10.0 * shell_semigroup_peak(3, 2.0)[0]  # above the inner peak
        assert rep.curve.sup == pytest.approx(0.388289441750720, rel=1e-12)
        assert rep.curve.T_at_sup == pytest.approx(4959.0, rel=1e-3)

    def test_accepts_bare_mass_profile(self):
        rep = classify(mass_profile(ShellAtom(3, 80.0, 1.0)), 3, 2.0)
        assert rep.verdict.kind == "blowup"

    @pytest.mark.parametrize(
        "datum, d, tests",
        [
            # the plane: the mass rule alone, on either side of 8 pi
            (Gaussian(2, 8 * math.pi * 1.01), 2, [("mass_8pi", "blowup")]),
            (Gaussian(2, 8 * math.pi * 0.99), 2, [("mass_8pi", "global")]),
            # exactly 8 pi decides nothing: indeterminate, with epsilon 1
            (Gaussian(2, 8 * math.pi), 2, [("mass_8pi", None)]),
            # a shell is a measure: no density test
            (ShellAtom(3, 80.0, 1.0), 3, [("curve", "blowup")]),
            # inside the dichotomy gap both tests apply and neither decides
            (Chandrasekhar(3, 1.2), 3, [("curve", None), ("density", None)]),
            (Chandrasekhar(3, 0.9), 3, [("curve", None), ("density", "global")]),
        ],
    )
    def test_verdict_follows_from_its_tests(self, datum, d, tests):
        verdict = classify(datum, d, 2.0).verdict
        assert [(test.name, test.certifies) for test in verdict.tests] == tests
        certified = {kind for _, kind in tests} - {None}
        assert verdict.kind == (certified.pop() if certified else "indeterminate")
        decisive = verdict.tests[0]
        if verdict.kind == "blowup":
            assert verdict.margin == decisive.value / decisive.threshold - 1.0
            assert verdict.epsilon is None and verdict.t_star is not None
        else:
            # the global side is the last test: density, or the plane's mass rule
            assert verdict.margin is None and verdict.t_star is None
            assert verdict.epsilon == verdict.tests[-1].value
        threshold = {"curve": criterion_constants(d, 2.0).C, "density": 1.0, "mass_8pi": 1.0}
        assert [test.threshold for test in verdict.tests] == [threshold[name] for name, _ in tests]

    def test_opposite_certificates_are_a_numerics_error(self, monkeypatch, tmp_path):
        # a singular density four times too large puts 2 u_C at half of it: the density
        # test certifies global while the curve, at 2 > C(3), certifies blowup
        real = kscrit.criteria.singular_coefficient
        monkeypatch.setattr(kscrit.criteria, "singular_coefficient", lambda d, alpha: 4.0 * real(d, alpha))
        with pytest.raises(NumericsError, match="consistency violated"):
            classify(Chandrasekhar(3, 2.0), 3, 2.0)
        args = ["classify", "--profile", "chandrasekhar(eta=2)", "--d", "3", "--alpha", "2"]
        assert main(args + ["--out", str(tmp_path / "r")]) == 2

    def test_measure_datum_never_global(self):
        # a tiny shell cannot sit strictly below the singular density pointwise
        rep = classify(ShellAtom(3, 1e-3, 1.0), 3, 2.0)
        assert rep.verdict.kind == "indeterminate"
