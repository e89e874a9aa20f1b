"""Every closed form built from log-Gamma values against 30-digit mpmath.

Each site forms exp(sum of log-Gamma terms) in double precision.  The check is
1e-13 relative, or the rounding floor of that form where it is larger: each
term carries an error of up to about two ulps, so the result is good to about
2 eps sum |term| and no better.  The floor binds only where the terms sum past
about 230 in magnitude: at d >= 60, for the largest negative moments and for
the late series coefficients.
"""

import math

import mpmath
import pytest

from kscrit.criteria import singular_semigroup_value
from kscrit.kernels import tail_coefficient
from kscrit.radial import singular_coefficient, sphere_area
from kscrit.subordinator import StableSubordinator

DIMENSIONS = (2, 3, 5, 10, 60, 200)
ALPHAS = (0.1, 0.5, 0.9, 1.5, 1.9)
PAIRS = [(d, a) for d in DIMENSIONS for a in ALPHAS]


def lg(x) -> mpmath.mpf:
    return mpmath.loggamma(mpmath.mpf(x))


def check(value: float, sign: int, log_terms: list) -> None:
    """``value`` against sign * exp(sum(log_terms)), the terms in 30-digit arithmetic."""
    with mpmath.workdps(30):
        exact = sign * mpmath.exp(mpmath.fsum(log_terms))
        floor = 2.0 * 2.2e-16 * float(mpmath.fsum(abs(t) for t in log_terms))
        assert abs(mpmath.mpf(value) / exact - 1) <= max(1e-13, floor)


@pytest.mark.parametrize("d,alpha", [(d, a) for d, a in PAIRS if 2 * a < d])
def test_singular_semigroup_value(d, alpha):
    with mpmath.workdps(30):
        a, h = mpmath.mpf(alpha), mpmath.mpf(d) / 2
        terms = [lg(a), -lg(a / 2), -lg(1 + a / 2), lg(h - a / 2 + 1), lg(h - a / 2), -lg(h - a + 1), -lg(h)]
    check(singular_semigroup_value(d, alpha), 1, terms)


@pytest.mark.parametrize("d,alpha", [(d, a) for d, a in PAIRS if 2 * a < d])
def test_singular_coefficient(d, alpha):
    with mpmath.workdps(30):
        a, h = mpmath.mpf(alpha), mpmath.mpf(d) / 2
        terms = [a * mpmath.log(2), lg(h - a / 2 + 1), lg(a), -lg(h - a + 1), -lg(a / 2)]
    check(singular_coefficient(d, alpha), 1, terms)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_sphere_area(d):
    with mpmath.workdps(30):
        terms = [mpmath.log(2), mpmath.mpf(d) / 2 * mpmath.log(mpmath.pi), -lg(mpmath.mpf(d) / 2)]
    check(sphere_area(d), 1, terms)


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("d,alpha", PAIRS)
def test_tail_coefficient(d, alpha, k):
    with mpmath.workdps(30):
        a, h = mpmath.mpf(alpha) * k, mpmath.mpf(d) / 2
        sine = mpmath.sin(mpmath.pi * a / 2)
        terms = [-(h + 1) * mpmath.log(mpmath.pi), a * mpmath.log(2), lg(h + a / 2), lg(1 + a / 2), -lg(k + 1),
                 mpmath.log(abs(sine))]
    check(tail_coefficient(d, alpha, k), (-1) ** (k + 1) * int(mpmath.sign(sine)), terms)


@pytest.mark.parametrize(
    "d,alpha", [(d, a) for d, a in PAIRS if math.lgamma(1 + d / a) - math.lgamma(1 + d / 2) < 700]
)
def test_neg_moment(d, alpha):
    # E[S^-p] at p = d/2, the moment behind R(0), wherever it is a float
    beta, p = 0.5 * alpha, 0.5 * d
    with mpmath.workdps(30):
        terms = [lg(1 + mpmath.mpf(p) / mpmath.mpf(beta)), -lg(1 + mpmath.mpf(p))]
    check(StableSubordinator(beta).neg_moment(p), 1, terms)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_series_coefficients(alpha):
    # log |a_k| of a_k = (-1)^(k+1) Gamma(1 + k beta) sin(pi k beta) / k!, whose error is
    # the relative error of a_k.  The sine is taken at the float argument the code
    # forms, so what is checked is the log-Gamma part
    beta = 0.5 * alpha
    _, log_mag, exponent = StableSubordinator(beta)._series_terms
    assert len(log_mag) == 200
    for k, value in enumerate(log_mag.tolist(), start=1):
        with mpmath.workdps(30):
            sine = mpmath.sin(mpmath.mpf(math.pi * k * beta))
            terms = [lg(1 + k * mpmath.mpf(beta)), -lg(k + 1), mpmath.log(abs(sine))]
            floor = 2.0 * 2.2e-16 * float(mpmath.fsum(abs(t) for t in terms))
            assert abs(value - mpmath.fsum(terms)) <= max(1e-13, floor), k
        assert exponent[k - 1] == 1.0 + k * beta
