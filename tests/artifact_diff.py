"""Run benchmark workloads' ops on two source trees and list every artifact that moved.

Run from the repository root:

    python3 tests/artifact_diff.py OLD_TREE NEW_TREE --workload verdicts sweep simulate --seeds 601 --rounds 2

Each tree is a checkout whose ``src/kscrit`` is imported.  The ops come from
this checkout's ``perfbench/workloads.py`` (op generation uses no kscrit code,
so both trees receive the same command lines); the script reads that file and
writes nothing under ``perfbench/``.  Each tree runs every op of every workload
named, in one fresh process through ``kscrit.cli.main``, into the same output
paths ``<work>/out/<workload>/seed<s>/<k>-<op id>/<j>``, so artifacts that
record their own path compare equal too.
The outputs are then kept as ``<work>/old`` and ``<work>/new`` (``--work``
defaults to a temporary directory, removed at the end unless ``--keep``).

The listing names each file that is missing on one side, and for each file
that differs:

* ``.json``: every field that moved, as a JSON path, with both values and, for
  numbers, the absolute and relative size of the move;
* ``.csv``: every column that moved, with the number of moved cells and the
  largest absolute and relative move;
* anything else (``.svg``): the number of differing lines.

Each tree's exit codes go to ``exit_codes.json``, compared like an artifact,
and an op that exits nonzero on either side is listed with both codes.  The
script ends with a count of identical and moved files, and exits 1 if any
artifact or exit code moved.  It needs only the standard library, and pytest
does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: (relative path, old value, new value, detail) of one moved item
Move = tuple[str, object, object, str]


def _ops(workload_names: list[str], seeds: list[int], n_rounds: int) -> list[tuple[str, list[list[str]]]]:
    """(output directory relative to the out root, argvs) of every op, in run order."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [
        (f"{workload}/seed{seed}/{k}-{op['id']}", op["argvs"])
        for workload in workload_names
        for seed in seeds
        for k, op in enumerate(workloads.op_list(workload, seed, n_rounds))
    ]


def _child(tree: str, ops_file: str, out_root: str) -> None:
    """Run the ops of ``ops_file`` with the kscrit of ``tree``; write their exit codes."""
    sys.path.insert(0, str(Path(tree) / "src"))
    import kscrit.cli

    if Path(kscrit.cli.__file__).resolve().parent != (Path(tree) / "src" / "kscrit").resolve():
        sys.exit(f"imported kscrit from {kscrit.cli.__file__}, not from {tree}")
    codes = {}
    for rel, argvs in json.loads(Path(ops_file).read_text(encoding="utf-8")):
        code = 0
        for j, argv in enumerate(argvs):
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = kscrit.cli.main(argv + ["--out", str(Path(out_root) / rel / str(j))])
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            if code != 0:
                break
        codes[rel] = code
    (Path(out_root) / "exit_codes.json").write_text(json.dumps(codes, indent=1), encoding="utf-8")


def _run_tree(tree: Path, ops_file: Path, out_root: Path, keep_as: Path) -> None:
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(tree), str(ops_file), str(out_root)],
                   env=env, check=True)
    out_root.rename(keep_as)


def _number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _size(old: float, new: float) -> str:
    if not (math.isfinite(old) and math.isfinite(new)):
        return "non-finite"
    diff = abs(new - old)
    rel = diff / abs(old) if old else math.inf
    return f"abs {diff:.3g}, rel {rel:.3g}"


def _json_moves(path: str, old: object, new: object, moves: list[Move]) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys(), key=str):
            sub = f"{path}.{key}"
            if key not in old or key not in new:
                moves.append((sub, old.get(key, "<absent>"), new.get(key, "<absent>"), "only on one side"))
            else:
                _json_moves(sub, old[key], new[key], moves)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _json_moves(f"{path}[{i}]", a, b, moves)
    elif old != new and not (_number(old) and _number(new) and math.isnan(old) and math.isnan(new)):
        detail = _size(float(old), float(new)) if _number(old) and _number(new) else ""
        moves.append((path, old, new, detail))


def _csv_moves(path: str, old_text: str, new_text: str, moves: list[Move]) -> None:
    old_rows, new_rows = list(csv.reader(io.StringIO(old_text))), list(csv.reader(io.StringIO(new_text)))
    if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
        moves.append((path, f"{len(old_rows)} rows", f"{len(new_rows)} rows", "shape or header moved"))
        return
    for c, name in enumerate(old_rows[0]):
        cells = [(a[c], b[c]) for a, b in zip(old_rows[1:], new_rows[1:]) if a[c] != b[c]]
        if not cells:
            continue
        try:
            pairs = [(float(a), float(b)) for a, b in cells]
            worst_abs = max(abs(b - a) for a, b in pairs)
            worst_rel = max(abs(b - a) / abs(a) if a else math.inf for a, b in pairs)
            detail = f"{len(cells)} cells, max abs {worst_abs:.3g}, max rel {worst_rel:.3g}"
        except ValueError:
            detail = f"{len(cells)} cells, not all numbers"
        moves.append((f"{path}:{name}", cells[0][0], cells[0][1], detail))


def compare(old_root: Path, new_root: Path) -> tuple[int, list[Move]]:
    """(number of identical files, every move) between two output trees."""
    old_files = {p.relative_to(old_root).as_posix() for p in old_root.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new_root).as_posix() for p in new_root.rglob("*") if p.is_file()}
    identical, moves = 0, []
    for rel in sorted(old_files ^ new_files):
        moves.append((rel, rel in old_files, rel in new_files, "file on one side only"))
    for rel in sorted(old_files & new_files):
        old_bytes, new_bytes = (old_root / rel).read_bytes(), (new_root / rel).read_bytes()
        if old_bytes == new_bytes:
            identical += 1
        elif rel.endswith(".json"):
            _json_moves(rel, json.loads(old_bytes), json.loads(new_bytes), moves)
        elif rel.endswith(".csv"):
            _csv_moves(rel, old_bytes.decode(), new_bytes.decode(), moves)
        else:
            old_lines, new_lines = old_bytes.splitlines(), new_bytes.splitlines()
            changed = sum(a != b for a, b in zip(old_lines, new_lines)) + abs(len(old_lines) - len(new_lines))
            moves.append((rel, f"{len(old_bytes)} bytes", f"{len(new_bytes)} bytes", f"{changed} lines differ"))
    return identical, moves


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        _child(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout of the reference tree")
    parser.add_argument("new", type=Path, help="checkout of the tree under test")
    parser.add_argument("--workload", required=True, nargs="+", choices=("verdicts", "sweep", "simulate"))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--rounds", type=int, default=1, help="rounds per seed (default 1)")
    parser.add_argument("--work", type=Path, help="where outputs go (default: a temporary directory)")
    parser.add_argument("--keep", action="store_true", help="keep the outputs of both trees")
    args = parser.parse_args(argv)

    work = args.work or Path(tempfile.mkdtemp(prefix="artifact_diff-"))
    ops = _ops(args.workload, args.seeds, args.rounds)
    try:
        work.mkdir(parents=True, exist_ok=True)
        ops_file = work / "ops.json"
        ops_file.write_text(json.dumps(ops), encoding="utf-8")
        for side, tree in (("old", args.old), ("new", args.new)):
            shutil.rmtree(work / side, ignore_errors=True)
            _run_tree(tree.resolve(), ops_file, work / "out", work / side)
        identical, moves = compare(work / "old", work / "new")
        codes = [json.loads((work / side / "exit_codes.json").read_text(encoding="utf-8")) for side in ("old", "new")]
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)
    for rel in codes[0]:
        if codes[0][rel] or codes[1].get(rel):
            print(f"EXIT {rel}: {codes[0][rel]} -> {codes[1].get(rel)}")
    for path, old, new, detail in moves:
        print(f"MOVED {path}: {old!r} -> {new!r}" + (f" ({detail})" if detail else ""))
    print(f"{' '.join(args.workload)}, seeds {' '.join(map(str, args.seeds))}, {args.rounds} round(s), {len(ops)} ops: "
          f"{identical} files identical, {len(moves)} moved items")
    return 1 if moves else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
