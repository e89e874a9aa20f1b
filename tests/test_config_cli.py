import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kscrit.cli import main
from kscrit.config import check_singular_comparison, parse_config, resolved_json
from kscrit.errors import ValidationError


class TestConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg.problem.d == 3 and cfg.problem.alpha == 2.0
        assert cfg.output.format == "csv"

    def test_file_and_override_precedence(self):
        text = "[problem]\nd = 5\nalpha = 2.0\n[grid]\nn = 500\n"
        cfg = parse_config(text, {"grid.n": 800})
        assert cfg.problem.d == 5
        assert cfg.grid.n == 800  # flag wins over file

    def test_unknown_section_and_key_are_hard_errors(self):
        with pytest.raises(ValidationError, match="unknown config section"):
            parse_config("[nope]\nx = 1\n")
        with pytest.raises(ValidationError, match="unknown config section"):
            parse_config("[nope]\n")  # an empty section sets nothing but is still checked
        with pytest.raises(ValidationError, match="grid.widgets"):
            parse_config("[grid]\nwidgets = 3\n")

    def test_type_errors_carry_key_path(self):
        with pytest.raises(ValidationError, match="grid.n"):
            parse_config("[grid]\nn = lots\n")

    def test_alpha_validation(self):
        with pytest.raises(ValidationError, match=r"alpha must be in \(0,2\]"):
            parse_config("[problem]\nalpha = 2.5\n")

    def test_fractional_precondition(self):
        # 2*alpha < d binds only the singular comparison, not every subcommand
        cfg = parse_config("[problem]\nd = 3\nalpha = 1.5\n")
        with pytest.raises(ValidationError, match="2\\*alpha < d"):
            check_singular_comparison(cfg)

    @pytest.mark.parametrize("key", ["T_target", "t_target"])
    def test_t_target_key_in_either_case(self, key):
        # configparser lowercases option names; both spellings set problem.T_target
        assert parse_config(f"[problem]\n{key} = 0.5\n").problem.T_target == 0.5

    def test_resolved_round_trip(self):
        cfg = parse_config("[problem]\nd = 4\n[time]\nt_end = 2.5\n", {"grid.n": 800})
        again = parse_config(resolved_json(cfg))
        assert again == cfg

    def test_resolved_values_are_checked_like_ini_values(self):
        with pytest.raises(ValidationError, match="grid.n"):
            parse_config('{"grid": {"n": 3.5}}')
        with pytest.raises(ValidationError, match="JSON object"):
            parse_config('{"grid": 5}')


def run_cli(args):
    return main(args)


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    # main builds its parser once per process: a second call with another subcommand
    # must write the same bytes as when each call has a process of its own
    calls = {
        "constants": ["constants", "--d-range", "3:4", "--alpha", "2.0", "--format", "json"],
        "classify": ["classify", "--profile", "shell(N=30,R=1)", "--d", "3", "--alpha", "2"],
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def in_one_process(runs):
        code = (
            "import sys\nfrom kscrit import cli\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "assert codes == [0] * len(codes), codes\n"
            "assert cli._build_parser.cache_info().misses == 1\n"
        )
        subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)

    for name, argv in calls.items():
        in_one_process([argv + ["--out", str(tmp_path / "alone" / name)]])
    in_one_process([argv + ["--out", str(tmp_path / "shared" / name)] for name, argv in calls.items()])

    def contents(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    for name in calls:
        alone, shared = tmp_path / "alone" / name, tmp_path / "shared" / name
        written = contents(shared)
        assert len(written) >= 3
        # report.json names its curve.csv by the output path
        written = {k: v.replace(bytes(shared), bytes(alone)) for k, v in written.items()}
        assert written == contents(alone)


class TestCli:
    def test_constants_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["constants", "--d-range", "3:5", "--alpha", "2.0", "--out", str(out1)]) == 0
        assert run_cli(["constants", "--d-range", "3:5", "--alpha", "2.0", "--out", str(out2)]) == 0
        assert (out1 / "constants.csv").read_bytes() == (out2 / "constants.csv").read_bytes()

    def test_constants_csv_shape(self, tmp_path):
        out = tmp_path / "c"
        run_cli(["constants", "--d-range", "2:6", "--alpha", "2.0", "--out", str(out)])
        lines = (out / "constants.csv").read_text().strip().splitlines()
        assert lines[0] == "d,alpha,sigma_d,C,K,L,N_threshold,upper_bound"
        assert len(lines) == 6  # header + 5 rows

    def test_classify_report(self, tmp_path):
        out = tmp_path / "r"
        code = run_cli(
            ["classify", "--profile", "chandrasekhar(eta=2.5)", "--d", "3", "--alpha", "2.0", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["kind"] == "blowup"
        assert Path(report["curve_path"]).exists()
        assert (out / "curve.svg").exists()
        assert (out / "resolved.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_indeterminate_report_without_a_density_writes_null(self, tmp_path):
        # a shell has no density to compare with the singular one: that ratio is
        # null in report.json, never the string "nan"
        out = tmp_path / "r"
        args = ["classify", "--profile", "shell(N=0.328435,R=0.360752)", "--d", "6", "--alpha", "0.742"]
        assert run_cli(args + ["--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["kind"] == "indeterminate"
        assert report["verdict"]["diagnostics"]["density_over_singular"] is None

        def leaves(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [leaf for child in node for leaf in leaves(child)]
            return [node]

        assert not [v for v in leaves(report) if v in ("nan", "inf", "-inf")]

    def test_constants_json_matches_csv(self, tmp_path):
        out = tmp_path / "c"
        args = ["constants", "--d-range", "3:5", "--alpha", "2.0,0.5,1.5", "--format", "json"]
        assert run_cli(args + ["--out", str(out)]) == 0
        keys = ["d", "alpha", "C", "K", "L", "N_threshold", "upper_bound"]
        lines = (out / "constants.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        csv_rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        json_rows = json.loads((out / "constants.json").read_text())
        assert len(json_rows) == len(csv_rows) == 8  # 2*alpha < d leaves out (3, 1.5)
        for row, record in zip(csv_rows, json_rows):
            assert [row[k] for k in keys] == ["" if record[k] is None else repr(record[k]) for k in keys]

    @pytest.mark.parametrize(
        "args,message",
        [
            # --format belongs to constants only
            (["classify", "--profile", "gauss(mass=1,width=1)", "--format", "json"], "--format"),
            (["classify", "--d"], "--d"),
            (["kernel", "--bogus", "1"], "--bogus"),
            (["classify", "--d", "abc"], "problem.d: expected int"),
            (["simulate", "--t-end", "soon"], "time.t_end: expected finite float"),
            (["simulate", "--r-max", "nan"], "grid.r_max: expected finite float"),
            ([], "required: command"),
            (["simulate", "--t-target", "-1"], "problem.T_target must be positive"),
            # the blowup cap and step floor are derived by the solver, not set
            (["simulate", "--density-cap", "5"], "unrecognized arguments: --density-cap"),
            (["simulate", "--dt-floor", "1e-9"], "unrecognized arguments: --dt-floor"),
        ],
    )
    def test_usage_error_exit_code(self, args, message, capsys, tmp_path):
        # exit 2 is reserved for numerical failure
        assert run_cli(args + ["--out", str(tmp_path / "x")] if args else args) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--help"], ["--version"], ["constants", "--help"]])
    def test_help_and_version_exit_zero(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 0
        assert "kscrit" in capsys.readouterr().out

    def test_missing_config_file_exit_code(self, capsys, tmp_path):
        code = run_cli(["classify", "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["r,u\n0.1,1.0\n0.2,0.5\n", "0.1,1.0\n0.2,high\n"])
    def test_non_numeric_table_exit_code(self, text, capsys, tmp_path):
        table = tmp_path / "f.csv"
        table.write_text(text)
        code = run_cli(["classify", "--profile", f"table(path={table})", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "cannot read table file" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_table_exit_code(self, text, capsys, tmp_path):
        # the typed error is all that reaches stderr: no loadtxt warning before it
        table = tmp_path / "empty.csv"
        table.write_text(text)
        code = run_cli(["classify", "--profile", f"table(path={table})", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == f"error: table file {str(table)!r} holds no data\n"

    @pytest.mark.parametrize(
        "grid,message",
        [
            (["--d-range", "5:3"], "leaves no (d, alpha)"),
            (["--d-range", "2", "--alpha", "1.5"], "leaves no (d, alpha)"),
            (["--alpha", "nan"], "alpha must be in (0, 2]"),
            (["--d-range", "3:100000000000"], "dimension capped at"),
        ],
    )
    def test_empty_constants_table_exit_code(self, grid, message, capsys, tmp_path):
        code = run_cli(["constants", *grid, "--out", str(tmp_path / "x")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_constants_in_the_plane_below_alpha_one(self, alpha, tmp_path):
        # 2d/(d-2) is infinite at d = 2: upper_bound is left empty, as at alpha = 2
        out = tmp_path / "c"
        args = ["constants", "--d-range", "2", "--alpha", str(alpha), "--format", "json"]
        assert run_cli(args + ["--out", str(out)]) == 0
        (record,) = json.loads((out / "constants.json").read_text())
        assert record["upper_bound"] is None
        assert all(np.isfinite(record[k]) for k in ("C", "K", "L", "N_threshold"))
        assert record["K"] <= record["C"]
        if alpha == 0.5:
            assert (record["C"], record["K"], record["L"]) == pytest.approx((1.0263, 0.6854, 0.03927), rel=1e-4)

    @pytest.mark.parametrize(
        "profile,kind",
        [
            ("gauss(mass=1,width=1)", "global"),
            ("shell(N=30,R=1)", "blowup"),  # above N_threshold = 26.13
            ("chandrasekhar(eta=0.5,alpha=0.5)", "global"),
            ("chandrasekhar(eta=2.5,alpha=0.5)", "blowup"),
        ],
    )
    def test_classify_in_the_plane_below_alpha_one(self, profile, kind, tmp_path):
        out = tmp_path / "r"
        args = ["classify", "--profile", profile, "--d", "2", "--alpha", "0.5"]
        assert run_cli(args + ["--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["kind"] == kind
        assert report["constants"]["upper_bound"] is None

    def test_invalid_alpha_exit_code(self, capsys, tmp_path):
        code = run_cli(
            ["classify", "--profile", "gauss(mass=1.0,width=1.0)", "--d", "3", "--alpha", "2.5", "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "alpha must be in (0,2]" in capsys.readouterr().err

    def test_fractional_precondition_exit_code(self, capsys, tmp_path):
        code = run_cli(
            ["classify", "--profile", "gauss(mass=1.0,width=1.0)", "--d", "3", "--alpha", "1.5", "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "2*alpha < d" in capsys.readouterr().err

    def test_constants_fractional_precondition_exit_code(self, capsys, tmp_path):
        conf = tmp_path / "c.ini"
        conf.write_text("[problem]\nd = 3\nalpha = 1.5\n")
        assert run_cli(["constants", "--config", str(conf), "--out", str(tmp_path / "x")]) == 1
        assert "2*alpha < d" in capsys.readouterr().err

    def test_kernel_needs_no_singular_comparison(self, tmp_path):
        # the README example: a kernel table needs only 0 < alpha <= 2
        out = tmp_path / "k"
        assert run_cli(["kernel", "--d", "3", "--alpha", "1.5", "--out", str(out)]) == 0
        assert json.loads((out / "kernel.json").read_text())["alpha"] == 1.5

    @pytest.mark.parametrize("d", [60, 100])
    def test_high_dimension_concentration(self, d, capsys, tmp_path):
        # r^(alpha-d) overflows where M(r) ~ r^d underflows: a finite verdict
        # or a numerical failure, never a traceback
        out = tmp_path / "c"
        code = run_cli(
            ["classify", "--profile", "gauss(mass=1,width=1)", "--d", str(d), "--alpha", "2", "--out", str(out)]
        )
        if code == 2:
            assert "numerical failure" in capsys.readouterr().err
            return
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["kind"] in ("blowup", "global", "indeterminate")
        assert np.isfinite(report["concentration"]["value"]) and np.isfinite(report["curve_sup"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", [3, 5, 10])
    @pytest.mark.parametrize("T", [1e-300, 1e-250, 1e-200, 1e-150, 1e-100])
    def test_exact_datum_at_tiny_time(self, T, d, capsys, tmp_path):
        # the datum blows up at time T at every scale, so no T may turn the verdict:
        # r^d and (r^2 + b)^2 must not underflow into a global or indeterminate one
        out = tmp_path / "e"
        code = run_cli(["classify", "--profile", f"exact_datum(T={T!r})", "--d", str(d), "--out", str(out)])
        if code == 2:
            assert "numerical failure" in capsys.readouterr().err
            return
        assert code == 0
        assert json.loads((out / "report.json").read_text())["verdict"]["kind"] == "blowup"

    def test_wide_gaussian_at_high_dimension(self, tmp_path):
        # the density's normalization pi^(d/2) w^d holds w^d = 1e320 (w = 1e4, d = 80), beyond the float range
        out = tmp_path / "g"
        args = ["classify", "--profile", "gauss(mass=60,width=1e4)", "--d", "80", "--alpha", "2"]
        assert run_cli(args + ["--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["verdict"]["kind"] == "global"

    def test_kernel_caveat_reaches_every_report(self, capsys, tmp_path):
        # the kernel is cached after the first run; its caveat must not be lost with the cache
        args = ["classify", "--profile", "gauss(mass=60,width=1)", "--d", "70", "--alpha", "1.5"]
        for run in ("a", "b"):
            assert run_cli(args + ["--out", str(tmp_path / run)]) == 0
            report = json.loads((tmp_path / run / "report.json").read_text())
            assert any("above d=60" in w for w in report["warnings"])
        assert run_cli(["kernel", "--d", "70", "--alpha", "1.5", "--out", str(tmp_path / "k")]) == 0
        assert "warning: kernel accuracy degrades slowly above d=60" in capsys.readouterr().err
        assert any("above d=60" in w for w in json.loads((tmp_path / "k" / "kernel.json").read_text())["warnings"])

    @pytest.mark.parametrize(
        "profile",
        [
            "gauss(mass=nan,width=1)",
            "gauss(mass=1,width=inf)",
            "chandrasekhar(eta=inf)",
            "trunc_chandrasekhar(eta=0.8,rin=0.5,rout=nan)",
            "shell(N=inf,R=1)",
            "exact_datum(T=nan)",
        ],
    )
    def test_non_finite_profile_parameter_exit_code(self, profile, capsys, tmp_path):
        code = run_cli(["classify", "--profile", profile, "--d", "3", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile,d,alpha,kind",
        [
            ("gauss(mass=30,width=1)", 6, 0.5, "global"),
            ("gauss(mass=1,width=1)", 3, 0.6, "global"),
            ("trunc_chandrasekhar(eta=0.8,rin=0.5,rout=20,alpha=0.6)", 3, 0.6, "global"),
            # sup T W0(T) is about 0.4 C: past the cut the curve's tail must
            # continue M from its value there, not from its asymptote at r -> inf
            ("gauss(mass=60,width=1)", 6, 0.5, "indeterminate"),
        ],
    )
    def test_small_alpha_verdicts(self, profile, d, alpha, kind, tmp_path):
        out = tmp_path / "r"
        args = ["classify", "--profile", profile, "--d", str(d), "--alpha", str(alpha)]
        assert run_cli(args + ["--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["verdict"]["kind"] == kind

    @pytest.mark.parametrize(
        "args,message",
        [
            # T^(1-d/alpha) and M(T^(1/alpha) rho) overflow on the default T scan
            (["classify", "--profile", "chandrasekhar(eta=0.5,alpha=0.05)", "--d", "5", "--alpha", "0.05"],
             "criterion curve is not finite"),
            # R(0) = Gamma(1 + d/alpha)/(Gamma(1 + d/2) (4 pi)^(d/2)) is beyond the float range
            (["kernel", "--d", "3", "--alpha", "0.01"], "overflows a float"),
            # the total mass c r_out^p, p = 78, is beyond the float range
            (["classify", "--profile", "trunc_chandrasekhar(eta=30,rin=0.001,rout=1e4,alpha=2)",
              "--d", "80", "--alpha", "1.352"], "overflows a float"),
            # the default T window 1e-4..1e4 times r_char^alpha under- and overflows
            (["classify", "--profile", "gauss(mass=1e-200,width=1e-170)", "--d", "3", "--alpha", "2"],
             "T window 10^[-344, -336] around r_char^alpha is not representable in floats (r_char = 1e-170"),
            (["classify", "--profile", "gauss(mass=1,width=1e170)", "--d", "3", "--alpha", "2"],
             "T window 10^[336, 344] around r_char^alpha is not representable in floats (r_char = 1e+170"),
            # the subordination integral is still live where lam = e^s leaves the normal floats
            (["kernel", "--d", "2", "--alpha", "0.017"], "the smallest normal float"),
        ],
    )
    def test_overflow_is_a_numerical_failure(self, args, message, capsys, tmp_path):
        assert run_cli(args + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and message in err

    def test_narrow_gaussian_ends_in_a_verdict_or_typed_error(self, capsys, tmp_path):
        # m pi^(-d/2) w^(-d) and the head coefficient m w^(-d)/Gamma(d/2 + 1) exceed a float
        profile = ["--profile", "gauss(mass=1,width=1e-120)", "--d", "3"]
        out = tmp_path / "c"
        assert run_cli(["classify", *profile, "--alpha", "2", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["verdict"]["kind"] == "blowup"
        assert run_cli(["simulate", *profile, "--out", str(tmp_path / "s")]) == 2
        assert "grid is too coarse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile",
        [
            "gauss(mass=25.13274122871837,width=1)",
            # the extension windows reach the largest finite float
            "gauss(mass=25.132741229,width=1e150)",
        ],
    )
    def test_plane_blowup_without_t_star_warns(self, profile, capsys, tmp_path):
        # a mass just above 8 pi blows up by the mass rule, while its criterion
        # curve stays below C over every T window the extension scans
        out = tmp_path / "c"
        assert run_cli(["classify", "--profile", profile, "--d", "2", "--alpha", "2", "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["kind"] == "blowup" and report["verdict"]["t_star"] is None
        assert any("the last T scanned" in w for w in report["warnings"])

    def test_blowup_without_t_star_warns_above_the_plane(self, capsys, tmp_path):
        # only the refined supremum exceeds C (by 1.8e-6 relative): no scanned T gives t_star
        out = tmp_path / "c"
        profile = "trunc_chandrasekhar(eta=1.294953194,rin=0.3,rout=20,alpha=1.2)"
        assert run_cli(["classify", "--profile", profile, "--d", "4", "--alpha", "1.2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["kind"] == "blowup" and report["verdict"]["t_star"] is None
        assert any("only the refined supremum" in w and "no t_star" in w for w in report["warnings"])

    @pytest.mark.parametrize(
        "profile, d, alpha",
        [("exact_datum(T=1)", "80", "2"), ("chandrasekhar(eta=0.3,alpha=1.597)", "80", "1.722")],
    )
    def test_non_finite_scan_is_a_numerical_failure(self, profile, d, alpha, capsys, tmp_path):
        # the scan holds +-inf: refining its maximum once formed inf - inf, a RuntimeWarning
        args = ["classify", "--profile", profile, "--d", d, "--alpha", alpha, "--out", str(tmp_path / "c")]
        assert run_cli(args) == 2
        assert "criterion curve is not finite" in capsys.readouterr().err

    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "s"
        code = run_cli(
            [
                "simulate",
                "--profile", "gauss(mass=10.0,width=1.0)",
                "--d", "3",
                "--t-end", "0.05",
                "--r-max", "12",
                "--n", "300",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,dt,origin_density,W,M_probe_1")
        assert lines[0].endswith("blowup_flag")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["blew_up"] is False
        # solver telemetry: every accepted step costs at least one rhs evaluation
        assert summary["n_rhs"] >= summary["n_steps"] > 0
        assert summary["n_lu"] >= summary["n_jac"] >= 1
        assert (out / "trajectory.svg").exists()

    def test_readme_simulate_writes_every_step(self, tmp_path):
        # the default stride records the initial state and every accepted step
        out = tmp_path / "sim"
        code = run_cli(
            [
                "simulate",
                "--profile", "exact_datum(T=1.0)",
                "--d", "3",
                "--t-end", "1.2",
                "--r-max", "40",
                "--n", "4000",
                "--t-target", "1.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
        summary = json.loads((out / "summary.json").read_text())
        assert len(rows) == summary["n_steps"] + 1
        # the step loop's counts and end time, pinned: a change to the Jacobian's
        # representation must not move a single step
        counts = {k: summary[k] for k in ("n_steps", "n_rejected", "n_rhs", "n_jac", "n_lu")}
        assert counts == {"n_steps": 157, "n_rejected": 21, "n_rhs": 249, "n_jac": 3, "n_lu": 35}
        assert summary["t_final"] == 1.0000229138694767

    def test_simulate_rejects_fractional(self, capsys, tmp_path):
        code = run_cli(
            [
                "simulate",
                "--profile", "gauss(mass=1.0,width=1.0)",
                "--d", "5",
                "--alpha", "1.5",
                "--t-end", "0.1",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "alpha = 2" in capsys.readouterr().err

    def test_simulate_resolved_json_round_trip(self, tmp_path):
        conf = tmp_path / "run.ini"
        conf.write_text(
            "[problem]\nd = 3\n[initial]\nprofile = shell(N=10.0,R=1.0)\n"
            "[grid]\nr_max = 8.0\nn = 200\n[time]\nt_end = 0.02\n"
            f"[output]\npath = {tmp_path / 'o1'}\n"
        )
        assert run_cli(["simulate", "--config", str(conf)]) == 0
        # re-feeding resolved.json must reproduce the run byte for byte
        resolved = tmp_path / "o1" / "resolved.json"
        assert run_cli(
            ["simulate", "--config", str(resolved), "--out", str(tmp_path / "o2")]
        ) == 0
        t1 = (tmp_path / "o1" / "trajectory.csv").read_bytes()
        t2 = (tmp_path / "o2" / "trajectory.csv").read_bytes()
        assert t1 == t2

    @pytest.mark.parametrize(
        "text",
        [
            "[time]\nt_end = 1.0\ndensity_cap = 5\n",
            # a resolved.json written while the cap and floor were settings
            '{"time": {"density_cap": null, "dt_floor": null, "t_end": 1.0}}',
        ],
    )
    def test_retired_threshold_keys_are_unknown(self, text, capsys, tmp_path):
        conf = tmp_path / "run.cfg"
        conf.write_text(text)
        assert run_cli(["simulate", "--config", str(conf), "--out", str(tmp_path / "x")]) == 1
        assert "unknown config key time.density_cap" in capsys.readouterr().err

    def test_simulate_keeps_r_max_next_to_a_breakpoint(self, tmp_path):
        # the shell's radius is nearest to the last node, which once moved onto it
        out = tmp_path / "s"
        args = ["simulate", "--profile", "shell(N=5,R=19.99)", "--r-max", "20", "--n", "100"]
        assert run_cli(args + ["--out", str(out)]) == 0
        grid = json.loads((out / "summary.json").read_text())["grid"]
        assert grid["r_max"] == 20.0 and grid["n"] == 101

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import kscrit.cli as cli
        from kscrit.errors import NumericsError

        def boom(*a, **k):
            raise NumericsError("synthetic quadrature failure")

        monkeypatch.setattr(cli, "build_kernel_table", boom)
        code = run_cli(["kernel", "--d", "3", "--alpha", "1.0", "--out", str(tmp_path / "k")])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_kernel_outputs(self, tmp_path):
        out = tmp_path / "k"
        assert run_cli(["kernel", "--d", "3", "--alpha", "1.0", "--out", str(out)]) == 0
        lines = (out / "kernel.csv").read_text().strip().splitlines()
        assert lines[0] == "rho,R,Rp,Rpp"
        sidecar = json.loads((out / "kernel.json").read_text())
        assert abs(sidecar["residuals"]["norm_R"]) < 1e-6
        assert sidecar["tail_fits"]["R"][1] == pytest.approx(-4.0, abs=0.1)
        assert sidecar["warnings"] == []

    @pytest.mark.parametrize("d,alpha", [("3", "0.02"), ("2", "0.018")])
    def test_small_alpha_kernel_starts_its_window_above_underflow(self, d, alpha, tmp_path):
        # the window probe once began near lam = e^-1000, which underflows to 0 (exit 1);
        # it now starts at the smallest normal float, and the window fits above it
        # (at d = 2 it starts there, where rho^2/(4 lam) overflows for rho > 1)
        out = tmp_path / "k"
        assert run_cli(["kernel", "--d", d, "--alpha", alpha, "--out", str(out)]) == 0
        assert json.loads((out / "kernel.json").read_text())["warnings"] == []

    def test_kernel_reports_failed_checks(self, tmp_path, monkeypatch, capsys):
        # a check that fails is a warning on stderr and in kernel.json, not a silent exit 0
        import kscrit.kernels as kernels

        monkeypatch.setattr(kernels, "_TOL_NORM", 0.0)
        out = tmp_path / "k"
        assert run_cli(["kernel", "--d", "3", "--alpha", "1.0", "--out", str(out)]) == 0
        warnings = json.loads((out / "kernel.json").read_text())["warnings"]
        assert [w.split(":")[0] for w in warnings] == [
            "kernel check normalization_R failed",
            "kernel check normalization_Rp failed",
        ]
        err = capsys.readouterr().err
        assert all(f"warning: {w}\n" in err for w in warnings)

    def test_verify_single_criterion(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run_cli(["verify", "--only", "AC-1", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "AC-1: PASS" in captured
        payload = json.loads((out / "verify.json").read_text())
        assert all(item["passed"] for item in payload["items"])

    def test_verify_json_is_deterministic(self, tmp_path):
        # wall-clock runtimes go to timings.json, not into verify.json
        outs = [tmp_path / "v1", tmp_path / "v2"]
        for out in outs:
            assert run_cli(["verify", "--only", "AC-1", "--out", str(out)]) == 0
        assert (outs[0] / "verify.json").read_bytes() == (outs[1] / "verify.json").read_bytes()
        assert set(json.loads((outs[0] / "verify.json").read_text())) == {"items"}
        assert "AC-1" in json.loads((outs[0] / "timings.json").read_text())

    def test_simulate_pins_only_a_tables_end_nodes(self, tmp_path, monkeypatch):
        import kscrit.cli as cli
        from kscrit.solver import build_grid

        r = np.geomspace(0.01, 20.0, 60)
        table = tmp_path / "table.csv"
        np.savetxt(table, np.column_stack([r, 3.0 * np.exp(-r) / (1.0 + r)]), delimiter=",", fmt="%.17g")
        grids = []
        real_run = cli.run_sim

        def recording_run(mass, grid, controls):
            grids.append(grid)
            return real_run(mass, grid, controls)

        monkeypatch.setattr(cli, "run_sim", recording_run)
        args = ["simulate", "--profile", f"table(path={table})", "--d", "3", "--r-max", "40"]
        args += ["--n", "300", "--t-end", "0.01", "--out", str(tmp_path / "s")]
        assert run_cli(args) == 0
        expected = build_grid(40.0, 300, 0.5, breakpoints=(r[0], r[-1]))
        np.testing.assert_array_equal(grids[0].r, expected.r)

    def test_verify_unknown_criterion_exit_code(self, tmp_path, capsys):
        code = run_cli(["verify", "--only", "AC-99", "--out", str(tmp_path / "v")])
        assert code == 1
        assert "unknown acceptance criterion 'AC-99'" in capsys.readouterr().err

    def test_verify_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # a perturbed check must fail the run with exit code 3
        import kscrit.acceptance as acc

        def broken():
            return [acc.CheckItem("AC-1", "forced perturbation", "2", "2.5", "1e-10", False)]

        monkeypatch.setitem(acc.REGISTRY, "AC-1", broken)
        code = run_cli(["verify", "--only", "AC-1", "--out", str(tmp_path / "v")])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out
