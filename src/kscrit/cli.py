"""Command line interface.

Subcommands: ``constants``, ``classify``, ``simulate``, ``kernel``, ``verify``.
Every run echoes its fully resolved configuration to ``resolved.json`` in the
output directory, and identical resolved configs produce byte-identical
outputs (``verify`` keeps its wall-clock runtimes apart, in ``timings.json``).
Exit codes: 0 success, 1 domain/validation error, 2 numerical
failure, 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_acceptance
from .config import RunConfig, check_singular_comparison, parse_config, resolved_json
from .criteria import classify, criterion_constants
from .errors import AcceptanceError, KscritError, NumericsError, ValidationError
from .kernels import build_kernel_table, radial_kernel, validate_kernel
from .output import write_csv, write_json, write_svg_lineplot
from .radial import check_alpha, check_dimension, mass_profile, parse_profile
from .solver import SolverControls, build_grid, run as run_sim

__all__ = ["main"]


def _parse_d_range(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = (check_dimension(int(x)) for x in text.split(":", 1))
            return list(range(lo, hi + 1))
        return [check_dimension(int(x)) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --d-range {text!r}; expected a:b or a comma list") from exc


def _parse_alpha_list(text: str) -> list[float]:
    try:
        vals = [check_alpha(float(x)) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --alpha list {text!r}") from exc
    if not vals:
        raise ValidationError("--alpha list is empty")
    return vals


def _load_config(args) -> RunConfig:
    """Defaults < --config file < flags; a flag's dest is its 'section.key' config path."""
    text = None
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
    return parse_config(text, {path: value for path, value in vars(args).items() if "." in path})


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output.path)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved.json").write_text(resolved_json(cfg), encoding="utf-8")
    return out


def _cmd_constants(args) -> int:
    cfg = check_singular_comparison(_load_config(args))
    ds = _parse_d_range(args.d_range)
    alphas = _parse_alpha_list(args.alpha_list)
    cases = [(d, a) for d in ds for a in alphas if a == 2.0 or 2.0 * a < d]
    skipped = [(d, a) for d in ds for a in alphas if not (a == 2.0 or 2.0 * a < d)]
    if not cases:
        raise ValidationError(
            f"--d-range {args.d_range} --alpha {args.alpha_list} leaves no (d, alpha) with alpha = 2 or 2*alpha < d"
        )
    rows = [criterion_constants(d, a) for d, a in cases]
    out = _outdir(cfg)
    fields = ["d", "alpha", "sigma_d", "C", "K", "L", "N_threshold", "upper_bound"]
    path = write_csv(out / "constants.csv", {f: [getattr(c, f) for c in rows] for f in fields})
    if cfg.output.format == "json":
        write_json(out / "constants.json", rows)
    if skipped:
        print(f"skipped (need 2*alpha < d): {skipped}", file=sys.stderr)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_classify(args) -> int:
    cfg = check_singular_comparison(_load_config(args))
    out = _outdir(cfg)
    profile = parse_profile(cfg.initial.profile, cfg.problem.d)
    report = classify(profile, cfg.problem.d, cfg.problem.alpha)
    curve_path = write_csv(out / "curve.csv", {"T": report.curve.T, "T_times_W0": report.curve.values})
    write_svg_lineplot(
        out / "curve.svg",
        report.curve.T,
        {"T*W0(T)": report.curve.values, "C": np.full_like(report.curve.values, report.constants.C)},
        title=f"criterion curve, d={cfg.problem.d}, alpha={cfg.problem.alpha}",
        log_x=True,
    )
    payload = {
        "d": report.d,
        "alpha": report.alpha,
        "datum": report.datum,
        "verdict": report.verdict,
        "constants": report.constants,
        "concentration": report.concentration,
        "total_mass": report.total_mass,
        "curve_path": str(curve_path),
        "curve_sup": report.curve.sup,
        "curve_T_at_sup": report.curve.T_at_sup,
        "warnings": report.warnings,
    }
    path = write_json(out / "report.json", payload)
    print(f"verdict: {report.verdict.kind}  (report: {path})")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    if cfg.problem.alpha != 2.0:
        raise ValidationError(
            "simulate supports classical diffusion only (alpha = 2); "
            "fractional diffusion is covered at the kernel/criterion level"
        )
    profile = parse_profile(cfg.initial.profile, cfg.problem.d)
    mass = mass_profile(profile)
    grid = build_grid(
        cfg.grid.r_max,
        cfg.grid.n,
        cfg.grid.inner_fraction,
        # only the outermost breakpoints become nodes: a table datum lists every node
        breakpoints=mass.breakpoints[:1] + mass.breakpoints[-1:],
    )
    controls = SolverControls(
        t_end=cfg.time.t_end,
        stride=cfg.output.stride,
        moment_target=cfg.problem.T_target,
    )
    res = run_sim(mass, grid, controls)
    flags = np.zeros(res.t.size, dtype=int)
    if res.event is not None:
        flags[-1] = 1
    columns = {
        "t": res.t,
        "dt": res.dt,
        "origin_density": res.origin_density,
        "W": res.W,
        **{f"M_probe_{i + 1}": res.probes[:, i] for i in range(len(res.probe_radii))},
        "blowup_flag": flags,
    }
    csv_path = write_csv(out / "trajectory.csv", columns)
    write_svg_lineplot(
        out / "trajectory.svg",
        res.t,
        {"origin_density": res.origin_density},
        title="origin density",
        log_y=True,
    )
    summary = {
        "t_final": res.t_final,
        "blew_up": res.blew_up,
        "event": res.event,
        "n_steps": res.n_steps,
        "n_rejected": res.n_rejected,
        "n_rhs": res.n_rhs,
        "n_jac": res.n_jac,
        "n_lu": res.n_lu,
        "probe_radii": res.probe_radii,
        "warnings": res.warnings,
        "grid": {"n": res.grid.n, "r_first": res.grid.r[0], "r_max": res.grid.r[-1]},
    }
    write_json(out / "summary.json", summary)
    print(
        f"simulated to t={res.t_final:.6g}; "
        + (f"blowup at {res.event.detected_time:.6g} ({res.event.trigger})" if res.event else "no blowup")
        + f"; wrote {csv_path}"
    )
    return 0


def _cmd_kernel(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    table = build_kernel_table(cfg.problem.d, cfg.problem.alpha)
    warnings = list(radial_kernel(cfg.problem.d, cfg.problem.alpha).warnings)
    warnings += [
        f"kernel check {name} failed: {detail}"
        for name, ok, detail in validate_kernel(table).checks
        if not ok
    ]
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    path = write_csv(out / "kernel.csv", {"rho": table.rho, "R": table.R, "Rp": table.Rp, "Rpp": table.Rpp})
    write_json(
        out / "kernel.json",
        {
            "d": table.d,
            "alpha": table.alpha,
            "R0": table.R0,
            "tail_fits": table.tail_fits,
            "residuals": table.residuals,
            "warnings": warnings,
        },
    )
    print(f"wrote {path} ({table.rho.size} rows)")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    items, runtimes = run_acceptance(only=args.only)
    width = max(len(i.name) for i in items) + 2
    for item in items:
        status = "PASS" if item.passed else "FAIL"
        print(
            f"[{status}] {item.criterion:<6} {item.name:<{width}} "
            f"expected {item.expected} | actual {item.actual} | tol {item.tolerance}"
        )
    by_criterion: dict[str, bool] = {}
    for item in items:
        by_criterion[item.criterion] = by_criterion.get(item.criterion, True) and item.passed
    for crit, ok in by_criterion.items():
        print(f"{crit}: {'PASS' if ok else 'FAIL'} ({runtimes.get(crit, 0.0):.1f}s)")
    # wall-clock telemetry goes to its own file, so verify.json stays deterministic
    write_json(out / "verify.json", {"items": items})
    write_json(out / "timings.json", runtimes)
    if not all(by_criterion.values()):
        raise AcceptanceError(
            "failed criteria: " + ", ".join(c for c, ok in by_criterion.items() if not ok)
        )
    print("all acceptance criteria passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a ValidationError (exit 1): exit 2 means numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process (parse_args keeps no state); a setting's flag has its config
    # path as dest and is converted by parse_config
    parser = _Parser(
        prog="kscrit",
        description="Blowup criteria and radial simulation for parabolic-elliptic chemotaxis",
    )
    parser.add_argument("--version", action="version", version=f"kscrit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file, or a resolved.json to re-run")
        p.add_argument("--out", dest="output.path", help="output directory (default: out)")

    p = sub.add_parser("constants", help="criterion constants over a (d, alpha) grid")
    common(p)
    p.add_argument("--format", dest="output.format", choices=("csv", "json"), help="also write constants.json")
    p.add_argument("--d-range", default="3:10", help="a:b inclusive or comma list")
    p.add_argument("--alpha", dest="alpha_list", default="2.0", help="comma list of alpha values")

    p = sub.add_parser("classify", help="global/blowup verdict for a radial datum")
    common(p)
    p.add_argument("--profile", dest="initial.profile", help="profile grammar, e.g. chandrasekhar(eta=2.5)")
    p.add_argument("--d", dest="problem.d")
    p.add_argument("--alpha", dest="problem.alpha")

    p = sub.add_parser("simulate", help="integrate the radial mass equation (alpha = 2)")
    common(p)
    p.add_argument("--profile", dest="initial.profile")
    p.add_argument("--d", dest="problem.d")
    p.add_argument("--alpha", dest="problem.alpha")
    p.add_argument("--t-target", dest="problem.T_target", help="moment-tracking horizon")
    p.add_argument("--r-max", dest="grid.r_max")
    p.add_argument("--n", dest="grid.n")
    p.add_argument("--inner-fraction", dest="grid.inner_fraction")
    p.add_argument("--t-end", dest="time.t_end")
    p.add_argument("--stride", dest="output.stride")

    p = sub.add_parser("kernel", help="tabulate the radial kernel R, R', R''")
    common(p)
    p.add_argument("--d", dest="problem.d")
    p.add_argument("--alpha", dest="problem.alpha")

    p = sub.add_parser("verify", help="run the acceptance suite")
    common(p)
    p.add_argument("--only", help="run a single criterion, e.g. AC-5")
    return parser


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "constants": _cmd_constants,
        "classify": _cmd_classify,
        "simulate": _cmd_simulate,
        "kernel": _cmd_kernel,
        "verify": _cmd_verify,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except AcceptanceError as exc:
        print(f"acceptance failure: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except KscritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
