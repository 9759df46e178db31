"""Experiment runner: JSON config in, trace CSV + report JSON out.

Subcommands:
  run      <config.json>   solve one configuration, run requested checks
  compare  <config.json>   run >= 2 presets from the same start point
  check    <config.json>   full diagnostic battery plus a short checked run

Exit codes: 0 success (all requested checks pass or are skipped/inconclusive),
1 configuration error, 2 check failure or divergence.

Config schema (unknown fields are rejected):

  {
    "problem": {"name": str, "parameters": {...}, "seed": int, "x0": str},
    "preset": str | "strategies": [{"kind": str, "alpha_rule": {"kind": str, "value": num}}],
    "presets": [str, ...],            # compare only
    "solver": {"max_outer_iter": int, "residual_tol": num, "step_tol": num,
               "inner_tol": num, "inner_max_iter": int, "record_every": int},
    "checks": [str, ...],
    "output": {"trace": str, "report": str}
  }

"x0" is "default" (problem-specific start), "zeros", or a {block-id: [..]}
mapping. ``--seed N`` overrides problem.seed. ``compare`` runs its presets one
after another. Environment: BAM_LOG={error|info|debug} sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .blockvec import BlockVector
from .bregman import check_generator_convexity
from .bregman import (  # noqa: F401 -- re-exported; perfbench's tracer patches these names
    make_augmented_generator,
    make_linearization_generator,
    make_zero_generator,
)
from .driver import (
    AlphaRule,
    BlockStrategy,
    IterateTrace,
    RunResult,
    SolverConfig,
    make_generator,
    resolve_strategy_preset,
    run,
    validate_strategies,
)
from .errors import BamError, ConfigurationError
from .problem import (
    Problem,
    build_multiblock_quadratic,
    build_separable_quadratic,
    build_separable_quadratic_badgrad,
    build_sparse_group_instance,
)
from .prox import group_soft_threshold, soft_threshold

log = logging.getLogger("bam")

TRACE_HEADER = "k,phi,phi_half,step_norm_sq,bregman_paid,residual,cum_step,inner_flag"

CHECK_NAMES = (
    "monotone_descent",
    "sufficient_decrease",
    "residual_bound",
    "residual_vanishes",
    "critical_point",
    "gradcheck",
    "finite_length",
)


class ConfigError(ConfigurationError):
    """Malformed or inconsistent experiment configuration."""


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path!r} line {e.lineno}: {e.msg}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(
        cfg, {"problem", "preset", "strategies", "presets", "solver", "checks", "output"}, "config"
    )
    return cfg


def _build_sparse_group(params: dict, seed: int) -> Problem:
    n1, n2 = int(params["n1"]), int(params["n2"])
    if "groups" in params:
        groups = params["groups"]
    else:
        gs = int(params.get("group_size", 1))
        if n2 % gs != 0:
            raise ConfigError(f"group_size {gs} does not divide n2 = {n2}")
        groups = [list(range(i, i + gs)) for i in range(0, n2, gs)]
    a_matrix = None
    if "a_matrix_csv" in params:
        a_matrix = np.loadtxt(params["a_matrix_csv"], delimiter=",", ndmin=2)
    return build_sparse_group_instance(
        n1,
        n2,
        groups,
        seed=seed,
        lambda1=float(params.get("lambda1", 0.1)),
        lambda2=float(params.get("lambda2", 0.1)),
        a_matrix=a_matrix,
    )


# problem name -> (allowed parameter keys, builder(parameters, seed)). The
# entries call the builders by module-level name, so a builder replaced on this
# module (as perfbench's tracer does) is the one that runs.
PROBLEMS = {
    "separable_quadratic": (set(), lambda params, seed: build_separable_quadratic()),
    "separable_quadratic_badgrad": (
        set(),
        lambda params, seed: build_separable_quadratic_badgrad(),
    ),
    "sparse_group": (
        {"n1", "n2", "groups", "group_size", "lambda1", "lambda2", "a_matrix_csv"},
        _build_sparse_group,
    ),
    "multiblock_quadratic": (
        {"n_blocks"},
        lambda params, seed: build_multiblock_quadratic(int(params.get("n_blocks", 3)), seed=seed),
    ),
}


def build_problem(section: dict, seed_override=None) -> Problem:
    if not isinstance(section, dict) or "name" not in section:
        raise ConfigError("config needs problem.name")
    _require_keys(section, {"name", "parameters", "seed", "x0"}, "problem")
    name = section["name"]
    if name not in PROBLEMS:
        raise ConfigError(f"unknown problem name {name!r}; choose from {sorted(PROBLEMS)}")
    allowed, build = PROBLEMS[name]
    params = dict(section.get("parameters", {}))
    _require_keys(params, allowed, "problem.parameters")
    seed = seed_override if seed_override is not None else section.get("seed", 0)
    try:
        return build(params, seed)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad parameters for problem {name!r}: {e}") from e


def resolve_x0(p: Problem, section: dict) -> BlockVector:
    kind = section.get("x0", "default")
    if kind == "default":
        return p.default_x0
    if kind == "zeros":
        return p.zeros()
    if isinstance(kind, dict):
        missing = set(p.block_ids) - set(kind)
        if missing:
            raise ConfigError(f"x0 mapping is missing blocks: {sorted(missing)}")
        return BlockVector([(bid, kind[bid]) for bid in p.block_ids])
    raise ConfigError(f"x0 must be 'default', 'zeros', or a block mapping, got {kind!r}")


def build_strategies(cfg: dict, p: Problem) -> tuple[list[BlockStrategy], str]:
    if "preset" in cfg and "strategies" in cfg:
        raise ConfigError("give either 'preset' or 'strategies', not both")
    if "preset" in cfg:
        name = cfg["preset"]
        return resolve_strategy_preset(name, p.n_blocks), name
    if "strategies" in cfg:
        specs = cfg["strategies"]
        if not isinstance(specs, list):
            raise ConfigError("'strategies' must be a list")
        out = []
        for i, s in enumerate(specs):
            _require_keys(s, {"kind", "alpha_rule"}, f"strategies[{i}]")
            rule = None
            if "alpha_rule" in s:
                _require_keys(s["alpha_rule"], {"kind", "value"}, f"strategies[{i}].alpha_rule")
                rule = AlphaRule(s["alpha_rule"]["kind"], float(s["alpha_rule"]["value"]))
            out.append(BlockStrategy(s["kind"], alpha_rule=rule))
        return out, "custom"
    raise ConfigError("config needs 'preset' or 'strategies'")


def build_solver_config(cfg: dict) -> SolverConfig:
    section = dict(cfg.get("solver", {}))
    _require_keys(
        section,
        {
            "max_outer_iter",
            "residual_tol",
            "step_tol",
            "inner_tol",
            "inner_max_iter",
            "record_every",
        },
        "solver",
    )
    try:
        return SolverConfig(**section)
    except (BamError, TypeError) as e:
        raise ConfigError(f"bad solver section: {e}") from e


def fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_trace_csv(trace: IterateTrace, path: Path, preset: str | None = None) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_trace_csv_text(trace, preset))


def _trace_csv_text(trace: IterateTrace, preset: str | None = None) -> str:
    prefix = f"{preset}," if preset is not None else ""
    header = ("preset," if preset is not None else "") + TRACE_HEADER
    lines = [header]
    lines.append(
        f"{prefix}0,{fmt(trace.phi0)},{fmt(trace.phi0)},{fmt(0)},{fmt(0)},{fmt(0)},{fmt(0)},ok"
    )
    for r in trace.records:
        lines.append(
            f"{prefix}{r.k},{fmt(r.phi_end)},{fmt(r.phi_half)},{fmt(r.step_norm_sq)},"
            f"{fmt(r.bregman_paid)},{fmt(r.residual)},{fmt(r.cum_step)},{r.inner_flag}"
        )
    return "\n".join(lines) + "\n"


def _l_cross(p: Problem, x: BlockVector) -> float:
    if "cross_lipschitz" in p.metadata:
        return float(p.metadata["cross_lipschitz"])
    worst = 0.0
    for i in range(p.n_blocks):
        for j in range(p.n_blocks):
            if i != j:
                worst = max(worst, diag.estimate_cross_lipschitz(p, x, i, j))
    return worst


def run_checks(names, p: Problem, result: RunResult, x0: BlockVector) -> list[diag.CheckReport]:
    reports = []
    trace = result.trace
    for name in names:
        if name == "monotone_descent":
            reports.append(diag.check_monotone_descent(trace))
        elif name == "sufficient_decrease":
            reports.append(diag.check_sufficient_decrease(trace))
        elif name == "residual_bound":
            reports.append(diag.check_residual_bound(trace, l_cross=_l_cross(p, result.final_x)))
        elif name == "residual_vanishes":
            lips = [
                L for r in trace.records for L in r.lip_blocks if math.isfinite(L)
            ]
            l_hat = math.sqrt(2.0) * (_l_cross(p, result.final_x) + (max(lips) if lips else 0.0))
            reports.append(diag.check_residual_vanishes(trace, l_hat=l_hat))
        elif name == "critical_point":
            reports.append(diag.critical_point_certificate(p, result.final_x))
        elif name == "gradcheck":
            reports.append(diag.gradcheck(p, x0))
        elif name == "finite_length":
            fl = diag.finite_length_monitor(trace)
            converged = result.status in ("residual-converged", "step-converged")
            status = "pass" if fl.plateau else ("inconclusive" if not converged else "fail")
            reports.append(
                diag.CheckReport(
                    "finite_length",
                    status,
                    details={
                        "total_length": fl.total_length,
                        "tail_increment": fl.tail_increment,
                        "plateau": fl.plateau,
                    },
                )
            )
        else:
            raise ConfigError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    return reports


def _report_json(p, preset, result, reports) -> dict:
    final_res = result.trace.records[-1].residual if result.trace.records else 0.0
    return {
        "problem": p.name,
        "preset": preset,
        "status": result.status,
        "sweeps": result.sweeps,
        "phi": result.trace.records[-1].phi_end if result.trace.records else result.trace.phi0,
        "residual": final_res,
        "certificate": result.certificate.to_dict(),
        "checks": [r.to_dict() for r in reports],
    }


def _write_report(report: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_paths(cfg: dict, out_dir: str) -> tuple[Path, Path]:
    section = dict(cfg.get("output", {}))
    _require_keys(section, {"trace", "report"}, "output")
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    return base / section.get("trace", "trace.csv"), base / section.get("report", "report.json")


def cmd_run(cfg: dict, args) -> int:
    p = build_problem(cfg["problem"], args.seed)
    strategies, preset = build_strategies(cfg, p)
    solver_cfg = build_solver_config(cfg)
    x0 = resolve_x0(p, cfg["problem"])
    validate_strategies(p, strategies, x0)
    trace_path, report_path = _out_paths(cfg, args.out_dir)

    result = run(p, strategies, solver_cfg, x0)
    reports = run_checks(cfg.get("checks", []), p, result, x0)
    write_trace_csv(result.trace, trace_path)
    _write_report(_report_json(p, preset, result, reports), report_path)

    log.info(
        "run %s/%s: status=%s sweeps=%d phi=%.12g",
        p.name,
        preset,
        result.status,
        result.sweeps,
        result.trace.records[-1].phi_end if result.trace.records else result.trace.phi0,
    )
    if result.status == "diverged":
        log.error("run diverged")
        return 2
    if any(not r.acceptable for r in reports):
        failed = [r.name for r in reports if not r.acceptable]
        log.error("checks failed: %s", failed)
        return 2
    return 0


def cmd_compare(cfg: dict, args) -> int:
    presets = cfg.get("presets")
    if not isinstance(presets, list) or len(presets) < 2:
        raise ConfigError("compare needs a 'presets' list with at least 2 entries")
    p = build_problem(cfg["problem"], args.seed)
    solver_cfg = build_solver_config(cfg)
    x0 = resolve_x0(p, cfg["problem"])
    per_preset = {}
    for name in presets:
        strategies = resolve_strategy_preset(name, p.n_blocks)
        validate_strategies(p, strategies, x0)  # all presets validated before any run
        per_preset[name] = strategies
    trace_path, report_path = _out_paths(cfg, args.out_dir)

    results = {name: run(p, per_preset[name], solver_cfg, x0) for name in presets}

    chunks = []
    summary = []
    for idx, name in enumerate(presets):
        res = results[name]
        text = _trace_csv_text(res.trace, preset=name)
        chunks.append(text if idx == 0 else text.split("\n", 1)[1])
        summary.append(
            {
                "preset": name,
                "status": res.status,
                "final_phi": res.trace.records[-1].phi_end if res.trace.records else res.trace.phi0,
                "sweeps_to_tol": res.sweeps if res.status == "residual-converged" else None,
                "total_cum_step": res.trace.records[-1].cum_step if res.trace.records else 0.0,
            }
        )
    with open(trace_path, "w", newline="\n") as fh:
        fh.write("".join(chunks))
    _write_report({"problem": p.name, "summary": summary}, report_path)
    for row in summary:
        log.info(
            "%-10s status=%-18s phi=%.12g sweeps=%s",
            row["preset"],
            row["status"],
            row["final_phi"],
            row["sweeps_to_tol"],
        )
    return 0 if all(r.status != "diverged" for r in results.values()) else 2


def _grid_min_1d(obj, lo: float, hi: float, step: float) -> float:
    grid = np.arange(lo, hi + step, step)
    return float(grid[np.argmin(obj(grid))])


def _prox_spotcheck(seed: int = 0, cases: int = 10) -> diag.CheckReport:
    """Compare both prox maps against grid brute force on a few seeded cases."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        v = float(rng.uniform(-3, 3))
        tau = float(rng.uniform(0.05, 2.0))
        got = soft_threshold(np.array([v]), tau)[0]
        ref = _grid_min_1d(lambda u: tau * np.abs(u) + 0.5 * (u - v) ** 2, -5, 5, 1e-4)
        worst = max(worst, abs(got - ref))
    for _ in range(cases):
        v = rng.uniform(-3, 3, size=2)
        tau = float(rng.uniform(0.05, 2.0))
        got = group_soft_threshold(v, [[0, 1]], tau)
        # coarse-to-fine grid; the prox objective is strongly convex so the
        # refinement around the coarse argmin is safe
        lo, hi = -4.0, 4.0
        g = np.arange(lo, hi, 0.02)
        U = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
        obj = tau * np.linalg.norm(U, axis=-1) + 0.5 * np.sum((U - v) ** 2, axis=-1)
        cu = U[np.unravel_index(np.argmin(obj), obj.shape)]
        g2a = np.arange(cu[0] - 0.03, cu[0] + 0.03, 1e-3)
        g2b = np.arange(cu[1] - 0.03, cu[1] + 0.03, 1e-3)
        U = np.stack(np.meshgrid(g2a, g2b, indexing="ij"), axis=-1)
        obj = tau * np.linalg.norm(U, axis=-1) + 0.5 * np.sum((U - v) ** 2, axis=-1)
        ref = U[np.unravel_index(np.argmin(obj), obj.shape)]
        worst = max(worst, float(np.max(np.abs(got - ref))))
    status = "pass" if worst <= 1e-3 else "fail"
    return diag.CheckReport("prox_brute_force", status, worst_violation=worst)


def _generator_convexity_reports(p: Problem, strategies, x0) -> list[diag.CheckReport]:
    reports = []
    for i, s in enumerate(strategies):
        gen, _ = make_generator(s, p, x0, i, 0)
        rep = check_generator_convexity(gen, p.block_dims[i], probes=30, seed=0, radius=2.0)
        reports.append(
            diag.CheckReport(
                f"generator_convexity[{p.block_ids[i]}]",
                "pass" if rep.passed else "fail",
                worst_violation=rep.modulus_nu - rep.min_ratio,
                details={"label": rep.label, "min_ratio": rep.min_ratio, "modulus_nu": rep.modulus_nu},
            )
        )
    return reports


def cmd_check(cfg: dict, args) -> int:
    p = build_problem(cfg["problem"], args.seed)
    strategies, preset = build_strategies(cfg, p)
    solver_cfg = build_solver_config(cfg)
    x0 = resolve_x0(p, cfg["problem"])
    validate_strategies(p, strategies, x0)
    trace_path, report_path = _out_paths(cfg, args.out_dir)

    reports = [diag.gradcheck(p, x0)]
    reports.extend(_generator_convexity_reports(p, strategies, x0))
    reports.append(_prox_spotcheck())

    result = run(p, strategies, solver_cfg, x0)
    names = cfg.get("checks") or [
        "monotone_descent",
        "sufficient_decrease",
        "residual_bound",
        "residual_vanishes",
        "critical_point",
        "finite_length",
    ]
    reports.extend(run_checks([n for n in names if n != "gradcheck"], p, result, x0))
    write_trace_csv(result.trace, trace_path)
    _write_report(_report_json(p, preset, result, reports), report_path)

    bad = [r.name for r in reports if not r.acceptable]
    for r in reports:
        log.info("check %-28s %s (worst=%.3g)", r.name, r.status, r.worst_violation)
    if result.status == "diverged" or bad:
        log.error("failing checks: %s", bad)
        return 2
    return 0


def _setup_logging(quiet: bool) -> None:
    level_name = os.environ.get("BAM_LOG", "info").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.INFO
    )
    if quiet:
        level = logging.ERROR
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bam", description="Bregman alternating minimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "check"):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to the experiment config JSON")
        sp.add_argument("--out-dir", default=".", help="directory for trace/report files")
        sp.add_argument("--seed", type=int, default=None, help="override the problem seed")
        sp.add_argument("--quiet", action="store_true", help="only log errors")
    args = parser.parse_args(argv)
    _setup_logging(args.quiet)

    try:
        cfg = load_config(args.config)
        if args.command == "run":
            return cmd_run(cfg, args)
        if args.command == "compare":
            return cmd_compare(cfg, args)
        return cmd_check(cfg, args)
    except (ConfigError, ConfigurationError, BamError) as e:
        log.error("%s", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
