"""The README's examples run as written: every ``kscrit`` line of its CLI block,
its profile grammar table, its simulate INI file and its Library block; and its
table of ``report.json`` keys lists exactly the keys that ``classify`` writes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from kscrit.cli import main
from kscrit.radial import _KINDS, parse_profile

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def _cli_lines() -> list[list[str]]:
    text = next(block for block in _blocks("sh") if "kscrit " in block)
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("kscrit ")]


def _with_out(args: list[str], out: Path) -> list[str]:
    if "--out" in args:
        i = args.index("--out")
        args = args[:i] + args[i + 2 :]
    return args + ["--out", str(out)]


# the full `kscrit verify` is the acceptance suite, which tests/test_acceptance.py runs
CLI = [args for args in _cli_lines() if args[:1] != ["verify"] or "--only" in args]


def test_cli_block_is_found():
    assert [args[0] for args in CLI] == ["constants", "classify", "simulate", "kernel", "verify"]


@pytest.mark.parametrize("args", CLI, ids=" ".join)
def test_cli_example(args, tmp_path):
    assert main(_with_out(args, tmp_path / "out")) == 0


# the first cell of each row of the profile grammar table
GRAMMAR = re.findall(r"^\| `([a-z_]+\(.*?\))` \|", README, flags=re.MULTILINE)


def test_grammar_table_lists_the_registered_kinds():
    assert sorted(text.split("(")[0] for text in GRAMMAR) == sorted(_KINDS)


# the first column of the report.json key table
REPORT_TABLE = README.split("| key | value |\n", 1)[1].split("\n\n", 1)[0]
REPORT_KEYS = {
    key for row in REPORT_TABLE.splitlines()[1:] for key in re.findall(r"`([^`]+)`", row.split(" | ")[0])
}


def _key_paths(node, path: str = "") -> set[str]:
    """Every leaf of a JSON value as a dotted path, ``[]`` standing for each item of a list of objects."""
    if isinstance(node, dict):
        return set().union(*(_key_paths(value, f"{path}.{key}" if path else key) for key, value in node.items()))
    if isinstance(node, list) and node and all(isinstance(item, dict) for item in node):
        return set().union(*(_key_paths(item, path + "[]") for item in node))
    return {path}


def test_report_table_lists_every_report_key(tmp_path):
    # inside the dichotomy gap both the curve and the density test apply
    args = ["classify", "--profile", "chandrasekhar(eta=1.2)", "--d", "3", "--alpha", "2.0"]
    assert main(_with_out(args, tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["verdict"]["tests"]) == 2
    assert _key_paths(report) == REPORT_KEYS


@pytest.mark.parametrize("text", GRAMMAR)
def test_grammar_example(text, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("0.5,1.0\n1.0,0.5\n")
    assert parse_profile(text, 3).kind == text.split("(")[0]


def test_ini_example(tmp_path):
    (text,) = _blocks("ini")
    conf = tmp_path / "run.ini"
    conf.write_text(text)
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "trajectory.csv").exists()


def test_library_example():
    (code,) = _blocks("python")
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    assert names["report"].verdict.kind == "blowup"
    assert names["res"].event.detected_time == pytest.approx(1.0, abs=0.01)
