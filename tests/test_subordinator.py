import math

import numpy as np
import pytest
from scipy.integrate import quad

from kscrit.errors import ValidationError
from kscrit.subordinator import StableSubordinator

BETAS = (0.25, 0.5, 0.75, 0.9)


def test_explicit_levy_value():
    # beta = 1/2, lam = 1/4: (2 sqrt(pi))^-1 * 8 * e^-1
    expected = 8.0 * math.exp(-1.0) / (2.0 * math.sqrt(math.pi))
    assert StableSubordinator(0.5).pdf(0.25) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("beta", BETAS)
def test_normalization(beta):
    sub = StableSubordinator(beta)
    total, _ = quad(lambda x: sub.pdf(x), 0, np.inf, limit=800)
    assert abs(total - 1.0) <= 1e-8


@pytest.mark.parametrize("beta", BETAS)
def test_laplace_transform_identity(beta):
    # int f(lam) e^(-lam) dlam = e^(-1) pins the defining transform at a = 1
    sub = StableSubordinator(beta)
    val, _ = quad(lambda x: sub.pdf(x) * math.exp(-x), 0, np.inf, limit=800)
    assert abs(val - math.exp(-1.0)) <= 1e-6


@pytest.mark.parametrize("beta", BETAS)
def test_laplace_transform_general_a(beta):
    sub = StableSubordinator(beta)
    for a in (0.3, 2.7):
        val, _ = quad(lambda x: sub.pdf(x) * math.exp(-a * x), 0, np.inf, limit=800)
        assert val == pytest.approx(math.exp(-(a**beta)), rel=1e-8)


def test_zolotarev_integral_matches_levy_closed_form():
    # force the generic integral path at beta = 1/2, where the answer is exact
    sub = StableSubordinator(0.5)
    lam = np.geomspace(5e-3, 1.9, 25)
    generic = sub._log_pdf_zolotarev(lam)
    exact = sub._log_pdf_levy(lam)
    np.testing.assert_allclose(generic, exact, rtol=0, atol=1e-11)


def test_series_and_integral_agree_across_switch():
    for beta in (0.25, 0.75, 0.9):
        sub = StableSubordinator(beta)
        lam = np.array([1.999, 2.001])
        below = float(sub._log_pdf_zolotarev(lam[:1])[0])
        above = float(sub._log_pdf_series(lam[1:])[0])
        crossed_below = float(sub._log_pdf_series(lam[:1])[0])
        crossed_above = float(sub._log_pdf_zolotarev(lam[1:])[0])
        assert below == pytest.approx(crossed_below, abs=1e-9)
        assert above == pytest.approx(crossed_above, abs=1e-9)


@pytest.mark.parametrize("beta", BETAS)
def test_mellin_negative_moment(beta):
    sub = StableSubordinator(beta)
    p = 0.8
    oracle, _ = quad(lambda x: sub.pdf(x) * x**-p, 0, np.inf, limit=800)
    assert sub.neg_moment(p) == pytest.approx(oracle, rel=1e-7)


def test_left_tail_is_exact_for_levy():
    sub = StableSubordinator(0.5)
    lam = np.array([1e-4, 1e-3])
    np.testing.assert_allclose(
        sub._log_pdf_left_tail(lam), sub._log_pdf_levy(lam), rtol=1e-14, atol=1e-10
    )


def test_density_nonnegative_and_vectorized():
    sub = StableSubordinator(0.75)
    lam = np.geomspace(1e-3, 1e3, 50)
    vals = sub.pdf(lam)
    assert vals.shape == lam.shape
    assert np.all(vals >= 0.0)
    assert isinstance(sub.pdf(1.0), float)


def test_rejects_bad_index_and_support():
    with pytest.raises(ValidationError):
        StableSubordinator(1.0)
    with pytest.raises(ValidationError):
        StableSubordinator(0.0)
    with pytest.raises(ValidationError):
        StableSubordinator(0.5).pdf(-1.0)
