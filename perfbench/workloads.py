"""Seeded op generation and correctness gates for the three workloads.

An op is one user action: one or two ``kscrit`` command lines (argv without
``--out``) plus what the theory says its outputs must satisfy.  Ops come in
rounds.  Every round of a workload has the same composition (the same
families, strata and grid-size levels); the seed only moves parameters inside
their strata.  Runs therefore differ by seed in their inputs, not in their mix,
and a run that stops at a round boundary always measures whole rounds.

Generation uses only the standard library and tables written below, never the
program, so two commits receive identical inputs for the same seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("verdicts", "sweep", "simulate")

#: rounds replayed by a traced run; fixed so that its layer counts repeat exactly
TRACE_ROUNDS = {"verdicts": 3, "sweep": 2, "simulate": 2}

# Classical (alpha = 2) shell-mass thresholds N(d) = C(d)/L(d) and blowup
# constants C(d), rounded from the program's values at the commit that
# introduced this benchmark.  They place inputs well away from the verdict
# boundaries, and a reported constant more than _CONSTANTS_TOL away from them
# fails the op: the theory gates use the reported constants, so they alone
# would not notice a wrong C.
_N_CLASSICAL = {2: 25.13, 3: 68.10, 4: 128.0, 5: 194.5, 6: 254.2, 7: 295.4, 8: 312.0, 9: 304.0, 10: 276.3}
_C_CLASSICAL = {2: 2.0, 3: 1.311, 4: 1.193, 5: 1.140, 6: 1.109, 7: 1.090, 8: 1.076, 9: 1.066, 10: 1.059}

# The fractional pairs (d, alpha), 2 alpha < d, low to high alpha, with their
# (C, K, N).  Every round uses each pair at least once, so the pairs repeat.  They are
# fixed rather than drawn: their s-grids (1770 to 1840 nodes) make fractional
# ops of one cost and memory footprint, which keeps op_p90_ms steady by seed.
_FRACTIONAL_PAIRS = {
    (5, 0.9): (1.0141, 0.69096, 107.89),
    (4, 1.2): (1.0484, 0.81653, 74.387),
    (5, 1.5): (1.058, 0.875, 125.41),
}

# Sweep strata (alpha band, d) over the advertised domain 0 < alpha < 2, both
# edges included, and over d from 3 to 10.  The seed moves alpha inside a
# band at most 0.005 wide, so every pair is new but each stratum keeps its cost: the
# kernel's s-grid, and with it the cost of a pair, depends on both d and alpha.
# A pair costs about 0.5 s mid-domain, 1.6 s at the high edge and 4 s at the
# low edge.  An odd number of strata puts the median inside one stratum.
_SWEEP_STRATA = (
    ((0.0995, 0.1), 4),
    ((0.415, 0.42), 9),
    ((0.715, 0.72), 3),
    ((1.015, 1.02), 10),
    ((1.265, 1.27), 5),
    ((1.765, 1.77), 6),
    ((1.905, 1.91), 8),
)

# simulate: two grid-size bands per datum, n from 600 to 2000.  Parameters
# that set the step count (horizon, radii, mass ratio) move in narrow bands, so
# n alone sets the cost.  The bands give three cost clusters (about 0.3, 0.8
# and 1.5 s) with the median op inside the middle one.
_SIM_LEVELS = {
    "exact": ((640, 660), (1080, 1120)),
    "subsingular": ((600, 620), (1280, 1320)),
    "shell": ((690, 710), (1080, 1120)),
    "infinite_mass": ((1130, 1170), (1960, 2000)),
}

#: margin by which a gated input must clear a verdict boundary
_MARGIN = 0.1
#: relative distance allowed between a reported constant and its table value
_CONSTANTS_TOL = 0.01


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(_fmt(rng.uniform(lo, hi)))


def _classify(op_id: str, group: str, profile: str, d: int, alpha: float, rule: dict) -> dict:
    argv = ["classify", "--profile", profile, "--d", str(d), "--alpha", _fmt(alpha)]
    return {"id": op_id, "group": group, "argvs": [argv], "rule": rule}


def _shell(rng, op_id, group, d, alpha, n_thr):
    radius = _uniform(rng, 0.5, 2.0)
    ratio = _uniform(rng, 1.3, 3.0)
    mass = float(_fmt(ratio * n_thr * radius ** (d - alpha)))
    return _classify(op_id, group, f"shell(N={_fmt(mass)},R={_fmt(radius)})", d, alpha,
                     {"kind": "shell", "mass": mass, "radius": radius})


def _gauss2d(rng, op_id):
    mass = _uniform(rng, 0.5, 0.9) if rng.random() < 0.5 else _uniform(rng, 1.1, 2.0)
    mass = float(_fmt(mass * 8.0 * math.pi))
    return _classify(op_id, "classical", f"gauss(mass={_fmt(mass)},width={_fmt(_uniform(rng, 0.5, 2.0))})",
                     2, 2.0, {"kind": "mass2d", "mass": mass})


def _gauss(rng, op_id):
    d = rng.randint(3, 10)
    return _classify(op_id, "classical",
                     f"gauss(mass={_fmt(_uniform(rng, 1.0, 100.0))},width={_fmt(_uniform(rng, 0.5, 2.0))})",
                     d, 2.0, {"kind": "none"})


def _verdicts_round(rng: random.Random, r: int) -> list[dict]:
    """Twelve classify ops: eight classical, four fractional.

    Classical ops fall into two cost clusters: shell, chandrasekhar, truncated
    and exact data (about 15-20 ms) and Gaussian data (about 25-30 ms).  Four
    of each, with the four slower fractional ops, put the median op in the
    middle of the Gaussian cluster, away from the gap between the clusters,
    where a small shift of either would move op_p50_ms by a third.
    """
    ops = []
    # classical group, cheaper cluster: one op per family, d from 3 to 10
    d = rng.randint(3, 10)
    ops.append(_shell(rng, f"r{r}-shell", "classical", d, 2.0, _N_CLASSICAL[d]))
    d = rng.randint(3, 10)
    if rng.random() < 0.5:
        eta = _uniform(rng, 0.3, 0.9)
    else:
        eta = _uniform(rng, 1.3, 2.5) * _C_CLASSICAL[d]
        eta = float(_fmt(eta))
    ops.append(_classify(f"r{r}-chandrasekhar", "classical", f"chandrasekhar(eta={_fmt(eta)})", d, 2.0,
                         {"kind": "singular", "eta": eta}))
    d = rng.randint(3, 10)
    eta = _uniform(rng, 0.3, 0.9)
    profile = (f"trunc_chandrasekhar(eta={_fmt(eta)},rin={_fmt(_uniform(rng, 0.0, 1.0))},"
               f"rout={_fmt(_uniform(rng, 10.0, 100.0))})")
    ops.append(_classify(f"r{r}-trunc", "classical", profile, d, 2.0, {"kind": "below_singular", "eta": eta}))
    d = rng.randint(3, 10)
    ops.append(_classify(f"r{r}-exact", "classical", f"exact_datum(T={_fmt(_uniform(rng, 0.5, 2.0))})",
                         d, 2.0, {"kind": "none"}))
    # classical group, Gaussian cluster: two at d = 2 (the mass rule), two at d from 3 to 10
    ops += [_gauss2d(rng, f"r{r}-gauss2d{k}") for k in range(2)]
    ops += [_gauss(rng, f"r{r}-gauss{k}") for k in range(2)]

    # fractional group: four ops, one per family; the pair rotates, so one
    # pair comes twice in a round and every pair repeats across rounds
    pairs = list(_FRACTIONAL_PAIRS.items())
    for k in range(4):
        (d, alpha), (c, kk, n_thr) = pairs[(r + k) % len(pairs)]
        op_id = f"r{r}-frac{k}"
        family = (r + k) % 4
        if family == 0:
            ops.append(_shell(rng, op_id, "fractional", d, alpha, n_thr))
        elif family == 1:
            eta = _uniform(rng, 0.3, 0.9) if rng.random() < 0.5 else float(_fmt(_uniform(rng, 1.3, 2.0) * c / kk))
            ops.append(_classify(op_id, "fractional", f"chandrasekhar(eta={_fmt(eta)},alpha={_fmt(alpha)})",
                                 d, alpha, {"kind": "singular", "eta": eta}))
        elif family == 2:
            eta = _uniform(rng, 0.5, 0.9)
            profile = (f"trunc_chandrasekhar(eta={_fmt(eta)},rin={_fmt(_uniform(rng, 0.2, 1.0))},"
                       f"rout={_fmt(_uniform(rng, 10.0, 50.0))},alpha={_fmt(alpha)})")
            ops.append(_classify(op_id, "fractional", profile, d, alpha, {"kind": "below_singular", "eta": eta}))
        else:
            profile = f"gauss(mass={_fmt(_uniform(rng, 0.5, 5.0))},width={_fmt(_uniform(rng, 0.5, 2.0))})"
            ops.append(_classify(op_id, "fractional", profile, d, alpha, {"kind": "none"}))
    return ops


def _sweep_round(rng: random.Random, r: int) -> list[dict]:
    ops = []
    for k, ((lo, hi), d) in enumerate(_SWEEP_STRATA):
        alpha = _uniform(rng, lo, hi)
        argvs = [
            ["kernel", "--d", str(d), "--alpha", _fmt(alpha)],
            ["constants", "--d-range", str(d), "--alpha", _fmt(alpha)],
        ]
        group = "edge" if k in (0, len(_SWEEP_STRATA) - 1) else "interior"
        ops.append({"id": f"r{r}-pair{k}", "group": group, "argvs": argvs, "rule": {"kind": "pair", "d": d, "alpha": alpha}})
    return ops


def _simulate_round(rng: random.Random, r: int) -> list[dict]:
    ops = []
    for level in (0, 1):
        def grid(group: str, r_max: float, inner: float | None = None) -> list[str]:
            args = ["--r-max", _fmt(r_max), "--n", str(rng.randint(*_SIM_LEVELS[group][level]))]
            return args + (["--inner-fraction", _fmt(inner)] if inner is not None else [])

        # the problem is scale invariant: T moves the inputs, not the cost
        T = _uniform(rng, 0.5, 1.5)
        argv = (["simulate", "--profile", f"exact_datum(T={_fmt(T)})", "--d", "3", "--t-end", _fmt(1.2 * T),
                 "--t-target", _fmt(T), "--stride", "100"] + grid("exact", 40.0 * math.sqrt(T), 0.5))
        ops.append({"id": f"r{r}-exact{level}", "group": "exact", "argvs": [argv], "rule": {"kind": "exact", "T": T}})

        rout = _uniform(rng, 30.0, 32.0)
        t_end = _uniform(rng, 1.45, 1.55)
        profile = f"trunc_chandrasekhar(eta={_fmt(_uniform(rng, 0.5, 0.9))},rin=0,rout={_fmt(rout)})"
        argv = (["simulate", "--profile", profile, "--d", "3", "--t-end", _fmt(t_end), "--stride", "100"]
                + grid("subsingular", 2.0 * rout, 0.35))
        ops.append({"id": f"r{r}-sub{level}", "group": "subsingular", "argvs": [argv],
                    "rule": {"kind": "global", "t_end": t_end}})

        mass = float(_fmt(_uniform(rng, 1.8, 2.0) * _N_CLASSICAL[3]))
        argv = (["simulate", "--profile", f"shell(N={_fmt(mass)},R=1)", "--d", "3", "--t-end", "1",
                 "--stride", "100"] + grid("shell", 8.0, 0.6))
        ops.append({"id": f"r{r}-shell{level}", "group": "shell", "argvs": [argv], "rule": {"kind": "blowup", "t_end": 1.0}})

        profile = f"trunc_chandrasekhar(eta={_fmt(_uniform(rng, 3.8, 4.2))},rin={_fmt(_uniform(rng, 0.55, 0.6))},rout=inf)"
        argv = ["simulate", "--profile", profile, "--d", "3", "--t-end", "5", "--stride", "100"] + grid("infinite_mass", 25.0)
        ops.append({"id": f"r{r}-infmass{level}", "group": "infinite_mass", "argvs": [argv],
                    "rule": {"kind": "blowup", "t_end": 5.0, "pinned": True}})
    return ops


def rounds(workload: str, seed: int):
    """Yield the workload's rounds of ops for ``seed``, without end."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    r = 0
    while True:
        rng = random.Random(f"{workload}:{seed}:{r}")
        if workload == "verdicts":
            ops = _verdicts_round(rng, r)
        elif workload == "sweep":
            ops = _sweep_round(rng, r)
        else:
            ops = _simulate_round(rng, r)
        rng.shuffle(ops)
        yield ops
        r += 1


def op_list(workload: str, seed: int, n_rounds: int) -> list[dict]:
    """The first ``n_rounds`` rounds of ``rounds(workload, seed)``, flattened."""
    gen = rounds(workload, seed)
    return [op for _ in range(n_rounds) for op in next(gen)]


# ---------------------------------------------------------------------------
# Correctness gates.  Each returns a list of failure messages (empty = pass).
# ---------------------------------------------------------------------------


def _finite(values, what: str) -> list[str]:
    bad = [v for v in values if not (isinstance(v, (int, float)) and math.isfinite(v))]
    return [f"{what}: non-finite value(s) {bad[:3]}"] if bad else []


def _read_csv_columns(path: Path) -> dict[str, list[float]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) if row[i] else math.nan for row in body] for i, name in enumerate(header)}


def _gate_classify(op: dict, out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    consts, verdict = report["constants"], report["verdict"]
    errors = _finite([consts["C"], consts["L"], consts["N_threshold"], report["curve_sup"], report["curve_T_at_sup"]]
                     + [consts[k] for k in ("K", "upper_bound") if consts[k] is not None]
                     + [verdict[k] for k in ("t_star", "margin", "epsilon") if verdict[k] is not None], "report")
    curve = _read_csv_columns(out / "curve.csv")
    errors += _finite(curve["T"] + curve["T_times_W0"], "curve.csv")
    kind = verdict["kind"]
    if kind not in ("blowup", "global", "indeterminate"):
        return errors + [f"unknown verdict kind {kind!r}"]
    if kind == "blowup" and verdict["t_star"] is None:
        errors.append("blowup verdict without a criterion time")

    rule, d, alpha = op["rule"], report["d"], report["alpha"]
    if alpha == 2.0:
        reference = {"C": _C_CLASSICAL[d], "K": 1.0 if d >= 3 else None, "N_threshold": _N_CLASSICAL[d]}
    else:
        reference = dict(zip(("C", "K", "N_threshold"), _FRACTIONAL_PAIRS[(d, alpha)]))
    for name, ref in reference.items():
        if ref is not None and not abs(consts[name] / ref - 1.0) <= _CONSTANTS_TOL:
            errors.append(f"constant {name} = {consts[name]}, table value {ref}")

    expected = None
    if rule["kind"] == "shell":
        ratio = rule["mass"] * rule["radius"] ** (alpha - d) / consts["N_threshold"]
        if ratio > 1.0 + _MARGIN:
            expected = "blowup"
    elif rule["kind"] == "singular":
        if rule["eta"] < 1.0 - _MARGIN:
            expected = "global"
        elif rule["eta"] * consts["K"] > (1.0 + _MARGIN) * consts["C"]:
            expected = "blowup"
    elif rule["kind"] == "below_singular":
        if rule["eta"] < 1.0 - _MARGIN:
            expected = "global"
    elif rule["kind"] == "mass2d":
        ratio = rule["mass"] / (8.0 * math.pi)
        if ratio > 1.0 + _MARGIN / 2:
            expected = "blowup"
        elif ratio < 1.0 - _MARGIN / 2:
            expected = "global"
    if expected is not None and kind != expected:
        errors.append(f"verdict {kind}, theory fixes {expected}")
    return errors


def _gate_pair(op: dict, outs: list[Path], kernels) -> list[str]:
    import numpy as np

    rule = op["rule"]
    kernel_dir, constants_dir = outs
    meta = json.loads((kernel_dir / "kernel.json").read_text(encoding="utf-8"))
    cols = _read_csv_columns(kernel_dir / "kernel.csv")
    errors = _finite(list(meta["residuals"].values()) + [meta["R0"]]
                     + [x for fit in meta["tail_fits"].values() for x in fit], "kernel.json")
    errors += _finite(cols["rho"] + cols["R"] + cols["Rp"] + cols["Rpp"], "kernel.csv")
    if errors:
        return errors
    rho, rp = np.array(cols["rho"]), np.array(cols["Rp"])
    table = kernels.KernelTable(
        d=meta["d"], alpha=meta["alpha"], rho=rho, R=np.array(cols["R"]), Rp=rp, Rpp=np.array(cols["Rpp"]),
        R0=meta["R0"], log_R=np.log(np.array(cols["R"])), log_abs_Rp=np.log(np.abs(rp)),
        tail_fits={k: tuple(v) for k, v in meta["tail_fits"].items()}, residuals=meta["residuals"],
    )
    validation = kernels.validate_kernel(table)
    if not validation.passed:
        errors.append(f"validate_kernel failed: {validation.failures()}")

    table_rows = _read_csv_columns(constants_dir / "constants.csv")
    if len(table_rows["d"]) != 1 or table_rows["d"][0] != rule["d"] or table_rows["alpha"][0] != rule["alpha"]:
        return errors + [f"constants.csv does not hold exactly the row for ({rule['d']}, {rule['alpha']})"]
    row = {k: v[0] for k, v in table_rows.items()}
    errors += _finite([row[k] for k in ("sigma_d", "C", "K", "L", "N_threshold", "upper_bound")], "constants.csv")
    if not errors and not row["K"] <= row["C"] <= row["upper_bound"]:
        errors.append(f"sandwich K <= C <= 2d/(d-2) violated: K={row['K']}, C={row['C']}, bound={row['upper_bound']}")
    return errors


def _gate_simulate(op: dict, out: Path) -> list[str]:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    traj = _read_csv_columns(out / "trajectory.csv")
    probes = [v for name, col in traj.items() if name.startswith("M_probe") for v in col]
    errors = _finite(traj["t"] + traj["dt"] + traj["origin_density"] + probes, "trajectory.csv")
    errors += _finite([summary["t_final"]], "summary.json")
    rule, event = op["rule"], summary["event"]
    if rule["kind"] == "exact":
        if event is None:
            errors.append("exact datum: no blowup detected")
        elif abs(event["detected_time"] - rule["T"]) > 0.05 * rule["T"]:
            errors.append(f"exact datum: blowup at {event['detected_time']}, T = {rule['T']} (5% bound)")
    elif rule["kind"] == "global":
        if event is not None or summary["t_final"] < rule["t_end"] * (1.0 - 1e-12):
            errors.append(f"sub-singular datum: event {event} before t_end = {rule['t_end']}")
    elif rule["kind"] == "blowup":
        if event is None or not event["detected_time"] < rule["t_end"]:
            errors.append(f"no blowup before t_end = {rule['t_end']}")
    if rule.get("pinned") and not any("pins M(r_max)" in w for w in summary["warnings"]):
        errors.append("infinite-mass datum did not pin the outer boundary")
    return errors


def check(op: dict, outs: list[Path], kernels) -> list[str]:
    """Gate one completed op on the files its commands wrote to ``outs``.

    ``kernels`` is the ``kscrit.kernels`` module, looked up at call time so that
    a traced run records the sweep gate's ``validate_kernel`` call.
    """
    first = op["argvs"][0][0]
    if first == "classify":
        return _gate_classify(op, outs[0])
    if first == "kernel":
        return _gate_pair(op, outs, kernels)
    return _gate_simulate(op, outs[0])
