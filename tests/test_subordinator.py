import json
import math
import pathlib
from functools import cached_property

import numpy as np
import pytest
from scipy.integrate import quad

from kscrit.errors import ValidationError
from kscrit.subordinator import _LAYER_A0S, _LOG_HUGE, StableSubordinator

BETAS = (0.25, 0.5, 0.75, 0.9)


def test_explicit_levy_value():
    # beta = 1/2, lam = 1/4: (2 sqrt(pi))^-1 * 8 * e^-1
    expected = 8.0 * math.exp(-1.0) / (2.0 * math.sqrt(math.pi))
    assert np.exp(StableSubordinator(0.5).log_pdf(0.25)) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("beta", BETAS)
def test_normalization(beta):
    sub = StableSubordinator(beta)
    total, _ = quad(lambda x: np.exp(sub.log_pdf(x)), 0, np.inf, limit=800)
    assert abs(total - 1.0) <= 1e-8


@pytest.mark.parametrize("beta", BETAS)
def test_laplace_transform_identity(beta):
    # int f(lam) e^(-lam) dlam = e^(-1) pins the defining transform at a = 1
    sub = StableSubordinator(beta)
    val, _ = quad(lambda x: np.exp(sub.log_pdf(x)) * math.exp(-x), 0, np.inf, limit=800)
    assert abs(val - math.exp(-1.0)) <= 1e-6


@pytest.mark.parametrize("beta", BETAS)
def test_laplace_transform_general_a(beta):
    sub = StableSubordinator(beta)
    for a in (0.3, 2.7):
        val, _ = quad(lambda x: np.exp(sub.log_pdf(x)) * math.exp(-a * x), 0, np.inf, limit=800)
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
    oracle, _ = quad(lambda x: np.exp(sub.log_pdf(x)) * x**-p, 0, np.inf, limit=800)
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
    vals = np.exp(sub.log_pdf(lam))
    assert vals.shape == lam.shape
    assert np.all(vals >= 0.0)
    assert isinstance(np.exp(sub.log_pdf(1.0)), float)


def test_rejects_bad_index_and_support():
    with pytest.raises(ValidationError):
        StableSubordinator(1.0)
    with pytest.raises(ValidationError):
        StableSubordinator(0.0)
    with pytest.raises(ValidationError):
        StableSubordinator(0.5).log_pdf(-1.0)


_ORACLE = json.loads((pathlib.Path(__file__).with_name("density_oracle.json")).read_text())["rows"]
_LOG_TINY = math.log(np.finfo(float).tiny)


@pytest.mark.parametrize("beta", sorted({row["beta"] for row in _ORACLE}))
def test_log_pdf_matches_the_frozen_oracle(beta):
    # 30-digit mpmath values (tests/density_oracle.py) across every branch and
    # both sides of each switch; f is a normal float at every frozen point
    rows = [row for row in _ORACLE if row["beta"] == beta]
    lam = np.array([row["lam"] for row in rows])
    expected = np.array([float(row["log_f"]) for row in rows])
    assert np.all(expected > _LOG_TINY)
    got = StableSubordinator(beta).log_pdf(lam)
    np.testing.assert_array_less(np.abs(got - expected), 1e-13 * np.maximum(1.0, np.abs(expected)))


def _counting(monkeypatch, name, calls):
    original = getattr(StableSubordinator, name)

    def counted(self, *args):
        calls[name] = calls.get(name, 0) + 1
        return original(self, *args)

    monkeypatch.setattr(StableSubordinator, name, counted)


def test_zolotarev_nodes_are_built_once_per_subordinator(monkeypatch):
    calls = {}
    for name in ("_zolotarev_log_a", "_zolotarev_log_a_near_pi"):
        _counting(monkeypatch, name, calls)
    builder = StableSubordinator.__dict__["_zolotarev_nodes"]
    builds = []

    def build(self):
        builds.append(self)
        return builder.func(self)

    prop = cached_property(build)
    prop.__set_name__(StableSubordinator, "_zolotarev_nodes")
    monkeypatch.setattr(StableSubordinator, "_zolotarev_nodes", prop)

    sub = StableSubordinator(0.7)
    assert "_zolotarev_nodes" not in vars(sub)
    sub.log_pdf(np.geomspace(1e-2, 1.9, 50))
    after_first = dict(calls)
    assert len(builds) == 1 and after_first
    # a second call evaluates no sine of its own
    sub.log_pdf(np.geomspace(3e-2, 1.7, 70))
    assert len(builds) == 1 and calls == after_first



def test_zolotarev_panels_shared_by_both_node_sets_are_built_once(monkeypatch):
    # past the first rise of log A near u = pi the layer set and the interior set
    # have the same panels, so log A is taken there once for both
    points = []
    original = StableSubordinator._zolotarev_log_a_near_pi

    def counted(self, eps):
        points.append(np.size(eps))
        return original(self, eps)

    monkeypatch.setattr(StableSubordinator, "_zolotarev_log_a_near_pi", counted)
    layer, interior = StableSubordinator(0.9975)._zolotarev_nodes
    sizes = [key.size for _, _, key, _ in (layer, interior)]
    # beyond the larger set's nodes: the 513-point v table and single probes
    assert sum(n for n in points if n > 1) <= max(sizes) + 513


def _full_sum(sub, lam):
    """The Zolotarev integral over every node of the set each lam uses, unbanded."""
    log_s = -sub.c * np.log(lam)
    out = np.empty_like(lam)
    layer = sub.a0 * np.exp(log_s) >= _LAYER_A0S
    for rows, (windows_wa, windows_a, key, first) in zip((layer, ~layer), sub._zolotarev_nodes):
        # window j starts at node j, so the windows' first column holds every node
        log_wa, a = windows_wa[: key.size, 0], windows_a[: key.size, 0]
        log_a = np.log(a) if key[-1] < _LOG_HUGE else a
        terms = log_wa - np.exp(log_s[rows, None] + log_a)
        top = terms.max(axis=1)
        out[rows] = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    return math.log(sub.beta / (1.0 - sub.beta)) - math.log(math.pi) - np.log(lam) / (1.0 - sub.beta) + out


@pytest.mark.parametrize("beta", [0.05, 0.5086, 0.954, 0.99, 0.9975])
def test_each_lam_sums_at_most_320_nodes_and_drops_nothing(beta):
    # 320 is what every lam summed on the earlier five fixed 64-node panels
    sub = StableSubordinator(beta)
    assert max(windows_wa.shape[1] for windows_wa, *_ in sub._zolotarev_nodes) <= 320
    lam_left = math.exp(-(sub._left_switch - math.log(sub.a0)) / sub.c)
    lam = np.geomspace(lam_left, 2.0, 400, endpoint=False)
    banded = sub._log_pdf_zolotarev(lam)
    np.testing.assert_allclose(banded, _full_sum(sub, lam), rtol=1e-14, atol=1e-14)


def test_log_pdf_does_not_depend_on_its_companions():
    # each lam sums a fixed number of nodes from its own band, so a value is the
    # same bit for bit whichever other lam share the call
    sub = StableSubordinator(0.9)
    lam = np.geomspace(0.05, 50.0, 301)
    whole = sub.log_pdf(lam)
    assert np.array_equal(whole[::3], sub.log_pdf(lam[::3]))
    assert np.array_equal(whole[7:9], sub.log_pdf(lam[7:9]))
