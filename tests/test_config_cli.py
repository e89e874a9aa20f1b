import json
from pathlib import Path

import numpy as np
import pytest

from kscrit.cli import main
from kscrit.config import config_from_resolved, parse_config, resolved_json
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
        with pytest.raises(ValidationError, match="grid.widgets"):
            parse_config("[grid]\nwidgets = 3\n")

    def test_type_errors_carry_key_path(self):
        with pytest.raises(ValidationError, match="grid.n"):
            parse_config("[grid]\nn = lots\n")

    def test_alpha_validation(self):
        with pytest.raises(ValidationError, match=r"alpha must be in \(0,2\]"):
            parse_config("[problem]\nalpha = 2.5\n")

    def test_fractional_precondition(self):
        with pytest.raises(ValidationError, match="2\\*alpha < d"):
            parse_config("[problem]\nd = 3\nalpha = 1.5\n")

    def test_resolved_round_trip(self):
        cfg = parse_config("[problem]\nd = 4\n[time]\nt_end = 2.5\n", {"threads": 2})
        again = config_from_resolved(resolved_json(cfg))
        assert again == cfg


def run_cli(args):
    return main(args)


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
        assert (out / "trajectory.svg").exists()

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

    def test_verify_single_criterion(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run_cli(["verify", "--only", "AC-1", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "AC-1: PASS" in captured
        payload = json.loads((out / "verify.json").read_text())
        assert all(item["passed"] for item in payload["items"])

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

    def test_constants_threaded_sweep_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        args = ["constants", "--d-range", "4:8", "--alpha", "2.0,1.5", "--threads"]
        assert run_cli(args + ["2", "--out", str(out1)]) == 0
        assert run_cli(args + ["1", "--out", str(out2)]) == 0
        assert (out1 / "constants.csv").read_text() == (out2 / "constants.csv").read_text()
