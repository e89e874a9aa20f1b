"""Checks of the benchmark's own generation and tracing.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import time
from collections import Counter

import pytest

import tracing
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_ops(workload):
    first = json.dumps(workloads.op_list(workload, 7, 3), sort_keys=True)
    again = json.dumps(workloads.op_list(workload, 7, 3), sort_keys=True)
    assert first == again


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_move_inputs_but_not_the_mix(workload):
    a, b = workloads.op_list(workload, 1, 2), workloads.op_list(workload, 2, 2)
    assert [op["argvs"] for op in a] != [op["argvs"] for op in b]
    assert Counter(op["group"] for op in a) == Counter(op["group"] for op in b)


def test_verdicts_mix():
    ops = workloads.op_list("verdicts", 3, 4)
    groups = Counter(op["group"] for op in ops)
    assert groups["classical"] == 2 * groups["fractional"]
    fractional = {tuple(op["argvs"][0][-3::2]) for op in ops if op["group"] == "fractional"}
    assert len(fractional) == 3  # three (d, alpha) pairs that repeat
    classical_d = {int(op["argvs"][0][4]) for op in ops if op["group"] == "classical"}
    assert min(classical_d) == 2
    # per round: four cheaper classical ops, four Gaussian ones, four fractional ones, so that the
    # median op lies inside the Gaussian cluster rather than at the gap below it
    for r in range(4):
        round_ops = [op for op in ops if op["id"].startswith(f"r{r}-")]
        gaussian = [op for op in round_ops if op["group"] == "classical" and op["argvs"][0][2].startswith("gauss(")]
        assert (len(round_ops), len(gaussian)) == (12, 4)


def test_sweep_pairs_are_distinct_and_span_the_domain():
    ops = workloads.op_list("sweep", 5, 3)
    pairs = [(op["rule"]["d"], op["rule"]["alpha"]) for op in ops]
    assert len(set(pairs)) == len(pairs)
    assert all(2.0 * alpha < d for d, alpha in pairs)
    for r in range(3):
        alphas = [op["rule"]["alpha"] for op in ops if op["id"].startswith(f"r{r}-")]
        assert min(alphas) <= 0.1 and max(alphas) >= 1.9


def test_simulate_grid_sizes():
    ops = workloads.op_list("simulate", 5, 2)
    sizes = [int(op["argvs"][0][op["argvs"][0].index("--n") + 1]) for op in ops]
    assert 600 <= min(sizes) and max(sizes) <= 2000
    assert Counter(op["group"] for op in ops) == {"exact": 4, "subsingular": 4, "shell": 4, "infinite_mass": 4}


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        next(workloads.rounds("nope", 1))


def test_self_time_excludes_traced_children_and_nested_calls_count_once():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    def outer(depth):
        time.sleep(0.01)
        leaf()
        if depth:
            outer(depth - 1)  # nested call of a name already open: not a span of its own

    leaf = tracer._wrap("leaf", leaf)
    outer = tracer._wrap("outer", outer)
    tracer.op_id = 4
    outer(1)
    calls, busy, self_s = tracer.span_times()
    assert calls == {"outer": 1, "leaf": 2}
    assert self_s["outer"] == pytest.approx(busy["outer"] - busy["leaf"])
    assert self_s["leaf"] == pytest.approx(busy["leaf"])
    assert busy["outer"] >= 0.04
    assert all(span[4] == 4 for span in tracer.spans)
    assert [tracer.names[s[0]] for s in tracer.spans] == ["outer", "leaf", "leaf"]
    assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == 0


def test_each_op_is_scaled_by_the_calibrations_nearest_to_it(tmp_path, monkeypatch):
    import run

    # calibration k takes (k + 1) ms; op i runs between calibrations i and i + 1
    taken = iter(1e-3 * (k + 1) for k in range(100))
    monkeypatch.setattr(run, "warm_up", lambda: None)
    monkeypatch.setattr(run, "calibrate", lambda: next(taken))
    monkeypatch.setattr(run.workloads, "check", lambda op, outs, kernels: [])

    class FakeCli:
        @staticmethod
        def main(argv):
            return 0

    ops = [[{"id": f"op{i}", "group": "g", "argvs": [["classify"]]} for i in range(5)]]
    results = run.run_ops(ops, tmp_path, FakeCli, kernels=None)
    medians_ms = [2.0, 2.5, 3.5, 4.5, 5.0]  # calibrations 0-2, 0-3, 1-4, 2-5, 3-5
    for r, med in zip(results, medians_ms):
        assert r["error"] is None
        assert r["scaled"] == pytest.approx(r["seconds"] * run.CALIBRATION_REF_S / (1e-3 * med))
