import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscrit.criteria import criterion_curve
from kscrit.errors import MeasureDataError, ValidationError
from kscrit.radial import (
    _KINDS,
    Chandrasekhar,
    ExplicitBlowupDatum,
    Gaussian,
    ShellAtom,
    Tabulated,
    TruncatedChandrasekhar,
    density,
    mass_profile,
    parse_profile,
    radial_concentration,
    scale_profile,
    singular_coefficient,
    sphere_area,
)

D3 = 3
SIG3 = sphere_area(3)


class TestSphereArea:
    def test_small_dimensions(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_log_gamma_matches_direct_gamma(self):
        for d in range(2, 31):
            direct = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
            assert sphere_area(d) == pytest.approx(direct, rel=1e-12)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValidationError):
            sphere_area(1)
        with pytest.raises(ValidationError):
            sphere_area(2.5)


class TestSingularCoefficient:
    def test_classical_value(self):
        assert singular_coefficient(3) == 2.0
        assert singular_coefficient(7) == 10.0

    def test_fractional_d3_alpha1(self):
        assert singular_coefficient(3, 1.0) == pytest.approx(4 / math.pi, rel=1e-13)

    def test_gamma_recurrence_limit_matches_classical(self):
        # the Gamma-product form must continue to 2(d-2) as alpha -> 2
        for d in (5, 8, 12):
            near2 = singular_coefficient(d, 2.0 - 1e-9)
            assert near2 == pytest.approx(2 * (d - 2), rel=1e-7)

    def test_large_d_asymptote_trend(self):
        # Gamma-ratio asymptotics: s(alpha,d) ~ 2^(alpha/2) Gamma(alpha)/Gamma(alpha/2)
        # * d^(alpha/2), so the concentration of the singular density,
        # sigma_d s/(d-alpha), decays like sigma_d d^(alpha/2-1)
        d, alpha = 10, 1.0
        prefactor = 2 ** (alpha / 2) * math.gamma(alpha) / math.gamma(alpha / 2)
        assert singular_coefficient(d, alpha) == pytest.approx(
            prefactor * d ** (alpha / 2), rel=0.25
        )
        conc = sphere_area(d) * singular_coefficient(d, alpha) / (d - alpha)
        assert conc == pytest.approx(
            prefactor * sphere_area(d) * d ** (alpha / 2 - 1), rel=0.25
        )

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            singular_coefficient(3, 1.5)  # 2*alpha = 3 >= d
        with pytest.raises(ValidationError):
            singular_coefficient(2, 2.0)


class TestDensity:
    def test_chandrasekhar_point_value(self):
        assert density(Chandrasekhar(3, 1.0), 1.0) == pytest.approx(2.0)

    def test_chandrasekhar_singularity_flagged(self):
        assert density(Chandrasekhar(3, 1.0), 0.0) == math.inf

    def test_exact_datum_origin_value(self):
        # density must be the radial derivative of the closed-form mass profile:
        # u0(0) = 2d/((d-2)T), which is 6 at d=3, T=1
        assert density(ExplicitBlowupDatum(3, 1.0), 0.0) == pytest.approx(6.0)

    def test_gaussian_decay(self):
        assert density(Gaussian(3, 5.0, 1.0), 40.0) == pytest.approx(0.0, abs=1e-300)

    def test_shell_rejected(self):
        with pytest.raises(MeasureDataError):
            density(ShellAtom(3, 1.0, 1.0), 1.0)

    @pytest.mark.parametrize("r", [-1.0, math.nan])
    def test_rejects_negative_and_nan_radius(self, r):
        for prof in (Chandrasekhar(3, 1.0), Gaussian(3, 1.0), ExplicitBlowupDatum(3, 1.0)):
            with pytest.raises(ValidationError, match="radius must be >= 0"):
                density(prof, np.array([0.5, r]))

    def test_truncation_window(self):
        p = TruncatedChandrasekhar(3, 2.0, 1.0, 10.0)
        assert density(p, 0.5) == 0.0
        assert density(p, 2.0) == pytest.approx(2.0 * 2.0 / 4.0)
        assert density(p, 20.0) == 0.0


class TestMassProfile:
    def test_chandrasekhar_closed_form(self):
        m = mass_profile(Chandrasekhar(3, 1.0))
        r = np.array([0.5, 1.0, 7.0])
        np.testing.assert_allclose(m(r), 2 * SIG3 * r, rtol=1e-14)
        assert m.total_mass == math.inf

    def test_shell_step(self):
        m = mass_profile(ShellAtom(3, 5.0, 1.0))
        assert m(0.999) == 0.0
        assert m(1.0) == 5.0
        assert m(100.0) == 5.0

    def test_exact_datum_closed_form(self):
        T = 2.0
        m = mass_profile(ExplicitBlowupDatum(3, T))
        r = np.array([0.3, 1.0, 5.0])
        np.testing.assert_allclose(m(r), 4 * SIG3 * r**3 / (r**2 + 2 * T), rtol=1e-14)

    def test_gaussian_total_mass(self):
        m = mass_profile(Gaussian(4, 7.5, 2.0))
        assert m(1e6) == pytest.approx(7.5, rel=1e-12)

    def test_tabulated_matches_quadrature(self):
        r = np.linspace(0.01, 10.0, 2000)
        u = np.exp(-r)
        m = mass_profile(Tabulated(3, r, u))
        # independent oracle: fine trapezoid of sigma_d u s^2
        s = np.linspace(0.01, 4.0, 40001)
        oracle = np.trapezoid(SIG3 * np.exp(-s) * s**2, s) + SIG3 * np.exp(-0.01) * 0.01**3 / 3
        assert m(4.0) == pytest.approx(oracle, rel=1e-4)

    def test_density_recovery_by_finite_differences(self):
        # u(r) = M'(r)/(sigma_d r^(d-1)) must match the density on [0.1, 10]
        for prof in (Gaussian(3, 20.0, 1.5), ExplicitBlowupDatum(3, 1.0), Chandrasekhar(5, 1.3)):
            m = mass_profile(prof)
            sig = sphere_area(prof.d)
            r = np.geomspace(0.1, 10.0, 40)
            h = 1e-5 * r
            u_rec = (m(r + h) - m(r - h)) / (2 * h) / (sig * r ** (prof.d - 1))
            # atol floor: cancellation noise of the finite differences themselves
            np.testing.assert_allclose(u_rec, density(prof, r), rtol=1e-6, atol=1e-12)

    def test_nonintegrable_singularity_unconstructible(self):
        # gamma >= d would make the mass diverge at the origin; the singular
        # coefficient itself is undefined there, so construction already fails
        with pytest.raises(ValidationError):
            TruncatedChandrasekhar(2, 1.0, 0.0, 1.0, gamma=2.0)
        with pytest.raises(ValidationError):
            Chandrasekhar(3, 1.0, gamma=1.9)  # 2*gamma >= d


class TestRadialConcentration:
    def test_chandrasekhar_constant_in_radius(self):
        m = mass_profile(Chandrasekhar(3, 1.0))
        c = radial_concentration(m, 2.0)
        assert c.value == pytest.approx(2 * SIG3, rel=1e-12)

    def test_exact_datum_attained_at_infinity(self):
        c = radial_concentration(mass_profile(ExplicitBlowupDatum(3, 1.0)), 2.0)
        assert c.value == pytest.approx(4 * SIG3, rel=1e-12)
        assert c.attained_radius == math.inf

    def test_shell_attained_at_its_radius(self):
        c = radial_concentration(mass_profile(ShellAtom(3, 7.0, 1.0)), 2.0)
        assert c.value == pytest.approx(7.0, rel=1e-12)
        assert c.attained_radius == pytest.approx(1.0, rel=1e-6)

    def test_mismatched_exponent_flags_infinity(self):
        # d/alpha-concentration of a steeper singular profile is infinite
        m = mass_profile(Chandrasekhar(7, 1.0, 2.0))
        c = radial_concentration(m, 1.0)
        assert math.isinf(c.value)

    def test_truncated_attained_at_outer_radius(self):
        m = mass_profile(TruncatedChandrasekhar(3, 1.0, 1.0, 10.0))
        c = radial_concentration(m, 2.0)
        expected = 2 * SIG3 * (1 - 1.0 / 10.0)
        assert c.value == pytest.approx(expected, rel=1e-9)
        assert c.attained_radius == pytest.approx(10.0, rel=1e-6)


_PROFILES = [
    Chandrasekhar(3, 2.5),
    TruncatedChandrasekhar(3, 1.5, 0.5, 20.0),
    Gaussian(3, 12.0, 1.0),
    ShellAtom(3, 9.0, 2.0),
    ExplicitBlowupDatum(3, 1.0),
    Gaussian(2, 10.0, 2.0),
    ShellAtom(5, 4.0, 1.0),
]


class TestScalingInvariance:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        idx=st.integers(min_value=0, max_value=len(_PROFILES) - 1),
        loglam=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_concentration_invariant_under_scaling(self, idx, loglam):
        prof = _PROFILES[idx]
        alpha = 2.0
        if isinstance(prof, ExplicitBlowupDatum) or prof.d < 2 * alpha:
            alpha = 2.0
        lam = 10.0**loglam
        c1 = radial_concentration(mass_profile(prof), alpha)
        c2 = radial_concentration(mass_profile(scale_profile(prof, lam, alpha)), alpha)
        assert c2.value == pytest.approx(c1.value, rel=1e-9)

    def test_fractional_scaling(self):
        prof = ShellAtom(4, 11.0, 1.0)
        c1 = radial_concentration(mass_profile(prof), 1.5)
        c2 = radial_concentration(mass_profile(scale_profile(prof, 37.0, 1.5)), 1.5)
        assert c2.value == pytest.approx(c1.value, rel=1e-12)


class TestProfileGrammar:
    def test_round_trip_examples(self):
        assert parse_profile("chandrasekhar(eta=2.5)", 3) == Chandrasekhar(3, 2.5)
        assert parse_profile("shell(N=30.0,R=1.0)", 3) == ShellAtom(3, 30.0, 1.0)
        assert parse_profile("trunc_chandrasekhar(eta=2.5,rin=1.0,rout=50.0)", 3) == (
            TruncatedChandrasekhar(3, 2.5, 1.0, 50.0)
        )
        assert parse_profile("gauss(mass=25.13,width=1.0)", 3) == Gaussian(3, 25.13, 1.0)
        assert parse_profile("exact_datum(T=1.0)", 3) == ExplicitBlowupDatum(3, 1.0)

    def test_table_from_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("0.1,1.0\n0.5,0.5\n1.0,0.1\n")
        prof = parse_profile(f"table(path={path})", 3)
        assert isinstance(prof, Tabulated)
        assert density(prof, 0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "bad",
        [
            "nope(eta=1)",
            "chandrasekhar(1.0)",
            "chandrasekhar()",
            "shell(N=1.0)",
            "shell(N=1.0,R=1.0,extra=2)",
            "gauss(mass=abc,width=1)",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValidationError):
            parse_profile(bad, 3)

    # one grammar example per registered kind; "data.csv" is written first
    EXAMPLES = {
        "chandrasekhar": "chandrasekhar(eta=2.5,alpha=1.0)",
        "trunc_chandrasekhar": "trunc_chandrasekhar(eta=2.5,rin=1.0,rout=50.0)",
        "shell": "shell(N=30.0,R=1.0)",
        "gauss": "gauss(mass=25.13,width=1.0)",
        "exact_datum": "exact_datum(T=1.0)",
        "table": "table(path=data.csv)",
    }

    def test_examples_cover_the_registry(self):
        assert set(self.EXAMPLES) == set(_KINDS)

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_every_kind_parses_to_its_class(self, kind, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("0.5,1.0\n1.0,0.5\n")
        prof = parse_profile(self.EXAMPLES[kind], 3)
        assert type(prof) is _KINDS[kind]
        assert prof.kind == mass_profile(prof).kind == kind

    @pytest.mark.parametrize("rout", ["inf", "Infinity", "INF"])
    def test_rout_infinity_spellings(self, rout):
        prof = parse_profile(f"trunc_chandrasekhar(eta=1,rin=0.5,rout={rout})", 3)
        assert prof.r_out == math.inf

    @pytest.mark.parametrize(
        "text,message",
        [
            ("chandrasekhar", "cannot parse profile string 'chandrasekhar'"),
            (
                "foo(eta=1)",
                "unknown profile kind 'foo'; known: chandrasekhar, exact_datum, gauss, shell, table, "
                "trunc_chandrasekhar",
            ),
            ("chandrasekhar(eta)", "expected param=value, got 'eta' in 'chandrasekhar(eta)'"),
            ("chandrasekhar()", "profile 'chandrasekhar' is missing parameters: ['eta']"),
            ("gauss(mass=1)", "profile 'gauss' is missing parameters: ['width']"),
            ("gauss(mass=1,width=1,zz=2)", "profile 'gauss' got unknown parameters: ['zz']"),
            ("chandrasekhar(eta=x)", "parameter 'eta' of 'chandrasekhar' is not a number"),
            ("gauss(width=x,mass=y)", "parameter 'mass' of 'gauss' is not a number"),
            # rout is read before the other parameters
            ("trunc_chandrasekhar(eta=x,rin=x,rout=y)", "parameter 'rout' of 'trunc_chandrasekhar' is not a number"),
            ("trunc_chandrasekhar(eta=1,rin=0,rout=nan)", "parameter r_out must be a number, got nan"),
            ("trunc_chandrasekhar(eta=1,rin=2,rout=1)", "need 0 <= r_in < r_out"),
            ("chandrasekhar(eta=-1)", "eta must be positive"),
            ("chandrasekhar(eta=nan)", "parameter eta must be finite, got nan"),
            ("shell(N=inf,R=1)", "parameter mass must be finite, got inf"),
            ("shell(N=1,R=-1)", "need mass >= 0 and radius > 0"),
            ("exact_datum(T=0)", "T must be positive"),
            ("chandrasekhar(eta=1,alpha=3)", "alpha must be in (0, 2], got 3.0"),
        ],
    )
    def test_error_text(self, text, message):
        with pytest.raises(ValidationError) as exc:
            parse_profile(text, 3)
        assert str(exc.value) == message


class TestPowerLaw:
    """Chandrasekhar is TruncatedChandrasekhar with r_in = 0 and r_out = inf."""

    @pytest.mark.parametrize("d,gamma", [(3, 2.0), (5, 1.5), (6, 1.0)])
    def test_untruncated_equals_chandrasekhar(self, d, gamma):
        plain = Chandrasekhar(d, 0.7, gamma)
        cut = TruncatedChandrasekhar(d, 0.7, 0.0, math.inf, gamma)
        r = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 161)])
        assert np.array_equal(density(plain, r), density(cut, r))
        assert np.array_equal(mass_profile(plain).fn(r), mass_profile(cut).fn(r))
        for alpha in (0.5, gamma, 2.0):
            assert plain.weighted_sup(alpha) == cut.weighted_sup(alpha)
        a, b = criterion_curve(mass_profile(plain), gamma), criterion_curve(mass_profile(cut), gamma)
        assert np.array_equal(a.values, b.values) and a.sup == b.sup and a.T_at_sup == b.T_at_sup

