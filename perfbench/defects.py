"""Inputs on which kscrit failed when the benchmark was defined.

The timed workloads exclude these inputs so that every timed op succeeds;
this script keeps them visible.  Run it from the root of a checkout:

    python3 perfbench/defects.py

It prints, per input, whether it still fails, and exits 0 either way.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile

from run import ROOT, import_kscrit

#: (workload whose domain the input belongs to, argv, failure seen)
KNOWN = (
    ("sweep", ["constants", "--d-range", "5", "--alpha", "0.05"],
     "exit 2: shell peak maximizer at scan boundary"),
    ("verdicts", ["classify", "--profile", "gauss(mass=30,width=1)", "--d", "6", "--alpha", "0.5"],
     "exit 2: criterion consistency violated"),
    ("verdicts", ["classify", "--profile", "gauss(mass=1,width=1)", "--d", "3", "--alpha", "0.6"],
     "exit 2: criterion consistency violated"),
    ("verdicts", ["classify", "--profile", "trunc_chandrasekhar(eta=0.8,rin=0.5,rout=20,alpha=0.6)",
                  "--d", "3", "--alpha", "0.6"],
     "exit 2: criterion consistency violated"),
)


def main() -> int:
    cli, _ = import_kscrit()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="defects-", dir=ROOT / ".perfbench")
    try:
        for workload, argv, seen in KNOWN:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv + ["--out", work])
                except Exception as exc:  # report an escaping exception as this input's outcome
                    code = f"{type(exc).__name__}: {exc}"
            status = "passes now" if code == 0 else f"still fails: {code} {err.getvalue().strip()}"
            print(f"[{workload}] kscrit {' '.join(argv)}\n    was: {seen}\n    now: {status}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
