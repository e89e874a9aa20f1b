"""kscrit benchmark: seeded workloads run in-process through ``kscrit.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

One process, one client, one op at a time (a closed loop).  ``--trace 0``
runs whole rounds of ops until ``--seconds`` have been spent in ops and reports
the end-to-end metrics; ``--trace 1`` replays a fixed number of rounds with
every layer boundary traced, after a fresh untraced process has run the same
rounds, and reports the per-layer metrics.  Reported op and set-up times are
host-scaled (see ``calibrate``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

CLI outputs go to a temporary directory under ``.perfbench/`` in the checkout,
removed at the end; a traced run also leaves its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one worker thread in every numerical library: the machine has 2 CPUs and
# the benchmark is a single closed-loop client.  Set before anything imports
# NumPy, because OpenBLAS reads its thread count when it loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 7

# Host speed.  On the shared 2-vCPU VM where the benchmark was built, the speed
# drifted by 10-15% from one second to the next and by 30-45% over tens of
# minutes, moving every op alike.
# A fixed piece of NumPy and interpreter work, timed between ops, tracks that
# speed; each reported time is scaled by CALIBRATION_REF_S over the
# calibration time measured around it, so it reads as the time on a host
# where the calibration takes CALIBRATION_REF_S.  The calibration calls no
# kscrit code, so a change to kscrit moves the scaled times as it moves the
# wall times.
CALIBRATION_REF_S = 3.0e-3
_CALIBRATION_ARRAY = np.random.default_rng(0).random((50, 2000))


def calibrate() -> float:
    """Seconds that one fixed piece of NumPy and interpreter work takes now."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.log(np.exp(_CALIBRATION_ARRAY).sum(axis=1))
    total = 0
    for i in range(30000):
        total += i
    counts: dict[int, float] = {}
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0.0) + 1.5
    return time.perf_counter() - t0


def warm_up() -> None:
    """Calibrate until the process is warm: the first few calibrations of a process run slow."""
    for _ in range(10):
        calibrate()


def host_scale(n: int = 5) -> float:
    """CALIBRATION_REF_S over the median of ``n`` calibrations."""
    return CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(n))


def import_kscrit():
    if not (SRC / "kscrit" / "__init__.py").is_file():
        sys.exit(f"error: no kscrit sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import kscrit.cli
    import kscrit.kernels

    if Path(kscrit.__file__).resolve().parent != SRC / "kscrit":
        sys.exit(f"error: imported kscrit from {kscrit.__file__}, not from {SRC}")
    return kscrit.cli, kscrit.kernels


def _digest(dirs: list[Path]) -> str:
    h = hashlib.sha256()
    for j, d in enumerate(dirs):
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            h.update(f"{j}/{path.relative_to(d)}\0".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_ops(ops, work: Path, cli, kernels, tracer=None, deadline_s: float | None = None) -> list[dict]:
    """Run ops in order (whole rounds while under ``deadline_s``) and gate each one."""
    results: list[dict] = []
    warm_up()
    calibrations = [calibrate()]
    spent = 0.0
    for round_ops in ops:
        if deadline_s is not None and spent >= deadline_s:
            break
        for op in round_ops:
            index = len(results)
            if tracer is not None:
                tracer.op_id = index
            outs = [work / f"op{index}-{j}" for j in range(len(op["argvs"]))]
            error = None
            stderr = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    for argv, out in zip(op["argvs"], outs):
                        code = cli.main(argv + ["--out", str(out)])
                        if code != 0:
                            error = f"exit {code}: {stderr.getvalue().strip()}"
                            break
            except SystemExit as exc:  # argparse rejected the command line
                error = f"exit {exc.code}: {stderr.getvalue().strip()}"
            except Exception as exc:  # any escape from the CLI is a failed op, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            spent += seconds
            if error is None:
                try:
                    problems = workloads.check(op, outs, kernels)
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
                if problems:
                    error = "; ".join(problems)
            digest = _digest(outs)
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
            results.append({"id": op["id"], "group": op["group"], "seconds": seconds, "error": error,
                            "digest": digest, "argvs": op["argvs"]})
            calibrations.append(calibrate())
    # op i ran between calibrations i and i + 1; scale it by the median of the
    # four calibrations nearest to it, which a stray interrupt cannot move
    for i, r in enumerate(results):
        r["scaled"] = r["seconds"] * CALIBRATION_REF_S / statistics.median(calibrations[max(0, i - 1): i + 3])
    return results


def _rounds(workload: str, seed: int, n_rounds: int | None):
    gen = workloads.rounds(workload, seed)
    return gen if n_rounds is None else (next(gen) for _ in range(n_rounds))


def _setup_seconds(args) -> list[tuple[float, float]]:
    """Launch-to-ready wall time of fresh processes that import kscrit and build the
    first round, each with the host scale measured here right after it."""
    times = []
    for _ in range(SETUP_PROBES):
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        ready = float(proc.stdout.strip().splitlines()[-1])
        warm_up()  # this process sat idle while the probe ran
        times.append((ready - launched, host_scale()))
    return times


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def _report_failures(results: list[dict]) -> None:
    for r in results:
        if r["error"]:
            print(f"  FAILED {r['id']}: {' && '.join(' '.join(a) for a in r['argvs'])}\n    {r['error']}")


def _end_to_end(args, work: Path, cli, kernels) -> tuple[dict, list[dict]]:
    setup = _setup_seconds(args)
    results = run_ops(_rounds(args.workload, args.seed, None), work, cli, kernels, deadline_s=args.seconds)
    completed = sum(r["error"] is None for r in results)

    def summary(key: str) -> dict:
        lat = [r[key] for r in results]
        return {"ops_per_s": completed / sum(lat), "op_p50_ms": 1e3 * statistics.median(lat),
                "op_p90_ms": 1e3 * _p90(lat)}

    values = {
        "setup_s": statistics.median(wall * scale for wall, scale in setup),
        **summary("scaled"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {"setup_s": statistics.median(wall for wall, _ in setup), **summary("seconds")}
    n = len(results)
    print(f"workload {args.workload}, seed {args.seed}: {n} ops in {sum(r['seconds'] for r in results):.2f} s "
          f"of op time, {n - completed} failed (failed_frac {(n - completed) / n:.4f}); host scale "
          f"{statistics.median(r['scaled'] / r['seconds'] for r in results):.3f} over the ops")
    print(f"  setup_s is the median of {len(setup)} fresh processes: "
          + ", ".join(f"{w:.3f} s wall x {sc:.3f}" for w, sc in setup))
    print(f"  {'metric':<12} {'host-scaled':>12} {'wall clock':>12}")
    for name, unit in END_TO_END:
        note = {"op_p50_ms": f"  (n={n})", "op_p90_ms": f"  (n={n}, {n // 10} beyond)"}.get(name, "")
        print(f"  {name:<12} {values[name]:12.4f} {wall.get(name, values[name]):12.4f} {unit}{note}")
    for g in sorted({r["group"] for r in results}):
        gl = [1e3 * r["scaled"] for r in results if r["group"] == g]
        print(f"  group {g:<14} n={len(gl):<4} median {statistics.median(gl):10.2f} ms  max {max(gl):10.2f} ms  (host-scaled)")
    _report_failures(results)
    return values, results


def _traced(args, work: Path, cli, kernels) -> tuple[dict, list[dict], bool]:
    n_rounds = workloads.TRACE_ROUNDS[args.workload]
    reference_file = work / "reference.json"
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
         "--reference", str(reference_file), "--workdir", str(work)],
        cwd=ROOT, timeout=170, check=True, stdout=subprocess.DEVNULL,
    )
    reference = json.loads(reference_file.read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    tracer.install()
    results = run_ops(_rounds(args.workload, args.seed, n_rounds), work, cli, kernels, tracer=tracer)
    traced_s = sum(r["scaled"] for r in results)
    mismatched = [r["id"] for r, ref in zip(results, reference["digests"]) if r["digest"] != ref]
    identical = len(results) == len(reference["digests"]) and not mismatched
    values = tracer.layer_metrics(traced_s / reference["op_seconds"] - 1.0)
    spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path)

    print(f"workload {args.workload}, seed {args.seed}, traced: {len(results)} ops in {n_rounds} rounds; "
          f"{traced_s:.2f} s traced vs {reference['op_seconds']:.2f} s untraced, host-scaled; "
          f"{len(tracer.spans)} spans in {spans_path.name}")
    print(f"  CLI outputs of traced and untraced runs byte-identical: {identical}"
          + (f" (differ: {mismatched[:5]})" if mismatched else ""))
    for name, unit, _ in tracing.LAYER_METRICS:
        print(f"  {name:<44} {values[name]:16.6g} {unit}")
    _report_failures(results)
    return values, results, identical and reference["failed"] == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the untraced reference pass of a traced run, and set-up probes
    parser.add_argument("--reference", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli, kernels = import_kscrit()
    if args.setup_probe:
        next(workloads.rounds(args.workload, args.seed))
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    if args.reference:
        results = run_ops(_rounds(args.workload, args.seed, workloads.TRACE_ROUNDS[args.workload]),
                          Path(args.workdir), cli, kernels)
        Path(args.reference).write_text(json.dumps({
            "op_seconds": sum(r["scaled"] for r in results),
            "failed": sum(r["error"] is not None for r in results),
            "digests": [r["digest"] for r in results],
        }), encoding="utf-8")
        return 0

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench"))
    try:
        if args.trace:
            values, results, consistent = _traced(args, work, cli, kernels)
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        else:
            values, results = _end_to_end(args, work, cli, kernels)
            consistent = True
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(r["error"] is not None for r in results)
    print(json.dumps({
        "correct": consistent and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
