"""Experiment runner: JSON config in, trace CSV (one row per sweep) + report JSON out.

Subcommands:
  run      <config.json>   solve one configuration, run requested checks
  compare  <config.json>   run >= 2 distinct presets from the same start point
  check    <config.json>   ``run`` plus the pre-run checks of the inputs
                           (gradcheck at x0, generator convexity per block,
                           declared against estimated L_i per block); the
                           requested checks default to all of CHECK_NAMES

Check names and checks come from ``diagnostics.CHECK_NAMES`` and
``diagnostics.CHECKS``. ``check`` has no ``prox_brute_force`` entry: the prox
maps do not depend on the config, and acceptance test 05 brute-forces them.

Exit codes: 0 success (all requested checks pass or are skipped/inconclusive),
1 configuration error, 2 check failure or divergence.

Config schema (unknown fields are rejected):

  {
    "problem": {"name": str, "parameters": {...}, "seed": int, "x0": str},
    "preset": str | "strategies": [{"kind": str, "alpha_rule": {"kind": str, "value": num}}],
    "presets": [str, ...],
    "solver": {"max_outer_iter": int, "residual_tol": num, "step_tol": num,
               "inner_tol": num, "inner_max_iter": int},
    "checks": [str, ...],
    "output": {"trace": str, "report": str}
  }

Each command accepts only the top-level keys it reads (``COMMAND_KEYS``):
``run`` and ``check`` take "preset" or "strategies" and "checks" but not
"presets"; ``compare`` takes "presets" but not "preset", "strategies" or
"checks". "problem", "solver" and "output" are common to all three.

"x0" is "default" (problem-specific start), "zeros", or a {block-id: [..]}
mapping with exactly the problem's block ids. ``--seed N`` overrides
problem.seed. ``compare`` runs its presets one after another. Environment:
BAM_LOG={error|info|debug} sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .blockvec import BlockVector
from .diagnostics import CHECK_NAMES, check_generator_convexity
from .driver import (
    AlphaRule,
    BlockStrategy,
    IterateTrace,
    RunResult,
    SolverConfig,
    is_integer,
    is_real,
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

# Re-exported only because perfbench's tracer patches these names on this module.
from .bregman import (  # noqa: F401
    make_augmented_generator,
    make_linearization_generator,
    make_zero_generator,
)
from .prox import group_soft_threshold, soft_threshold  # noqa: F401

log = logging.getLogger("bam")

TRACE_HEADER = "k,phi,phi_half,step_norm_sq,bregman_paid,residual,cum_step,inner_flag"


def _require_keys(section, allowed: set[str], where: str) -> dict:
    """A copy of ``section`` after checking that it is an object with only ``allowed`` keys."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"unknown field(s) in {where}: {sorted(unknown)}")
    return dict(section)


# command -> the top-level config keys it reads; any other key is a configuration error
_RUN_KEYS = {"problem", "preset", "strategies", "solver", "checks", "output"}
COMMAND_KEYS = {
    "run": _RUN_KEYS,
    "check": _RUN_KEYS,
    "compare": {"problem", "presets", "solver", "output"},
}


def load_config(path: str, command: str) -> dict:
    def reject_non_finite(literal: str):
        raise ConfigurationError(f"config {path!r}: {literal} is not allowed; numbers must be finite")

    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=reject_non_finite)
    except OSError as e:
        raise ConfigurationError(f"cannot read config {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config {path!r} line {e.lineno}: {e.msg}") from e
    return _require_keys(cfg, COMMAND_KEYS[command], f"{command} config")


def _build_sparse_group(params: dict, seed: int) -> Problem:
    n1, n2 = params["n1"], params["n2"]
    if "groups" in params and "group_size" in params:
        raise ConfigurationError("give either 'groups' or 'group_size', not both")
    if "groups" in params:
        groups = params["groups"]
    else:
        gs = params.get("group_size", 1)
        if gs < 1 or n2 % gs != 0:
            raise ConfigurationError(f"group_size {gs} must be >= 1 and divide n2 = {n2}")
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
        lambda params, seed: build_multiblock_quadratic(params.get("n_blocks", 3), seed=seed),
    ),
}


def build_problem(section: dict, seed_override=None) -> Problem:
    section = _require_keys(section, {"name", "parameters", "seed", "x0"}, "problem")
    name = section.get("name")
    if not isinstance(name, str) or name not in PROBLEMS:
        raise ConfigurationError(f"unknown problem name {name!r}; choose from {sorted(PROBLEMS)}")
    allowed, build = PROBLEMS[name]
    params = _require_keys(section.get("parameters", {}), allowed, "problem.parameters")
    for key in ("n1", "n2", "group_size", "n_blocks"):  # sizes: the solver's integer test
        if key in params and not is_integer(params[key]):
            raise ConfigurationError(f"{key} must be an integer, got {params[key]!r}")
    for key in ("lambda1", "lambda2"):
        if key in params and not is_real(params[key]):
            raise ConfigurationError(f"{key} must be a number, got {params[key]!r}")
    seed = seed_override if seed_override is not None else section.get("seed", 0)
    if not is_integer(seed):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    try:
        return build(params, seed)
    except (KeyError, TypeError, ValueError, OSError) as e:
        raise ConfigurationError(f"bad parameters for problem {name!r}: {e}") from e


def resolve_x0(p: Problem, section: dict) -> BlockVector:
    kind = section.get("x0", "default")
    if kind == "default":
        return p.default_x0
    if kind == "zeros":
        return p.zeros()
    if isinstance(kind, dict):
        if set(kind) != set(p.block_ids):
            raise ConfigurationError(
                f"x0 mapping must give exactly the blocks {list(p.block_ids)}, got {sorted(kind)}"
            )
        try:
            return BlockVector([(bid, kind[bid]) for bid in p.block_ids])
        except (TypeError, ValueError) as e:
            raise ConfigurationError(f"bad x0 mapping: {e}") from e
    raise ConfigurationError(f"x0 must be 'default', 'zeros', or a block mapping, got {kind!r}")


def build_strategies(cfg: dict, p: Problem) -> tuple[list[BlockStrategy], str]:
    if "preset" in cfg and "strategies" in cfg:
        raise ConfigurationError("give either 'preset' or 'strategies', not both")
    if "preset" in cfg:
        name = cfg["preset"]
        return resolve_strategy_preset(name, p.n_blocks), name
    if "strategies" in cfg:
        specs = cfg["strategies"]
        if not isinstance(specs, list):
            raise ConfigurationError("'strategies' must be a list")
        out = []
        for i, s in enumerate(specs):
            s = _require_keys(s, {"kind", "alpha_rule"}, f"strategies[{i}]")
            rule = None
            if "alpha_rule" in s:
                r = _require_keys(s["alpha_rule"], {"kind", "value"}, f"strategies[{i}].alpha_rule")
                value = r.get("value")
                if not is_real(value):
                    raise ConfigurationError(
                        f"bad strategies[{i}].alpha_rule: value must be a number, got {value!r}"
                    )
                rule = AlphaRule(r.get("kind"), float(value))
            try:
                out.append(BlockStrategy(s.get("kind"), alpha_rule=rule))
            except BamError as e:
                raise ConfigurationError(f"bad strategies[{i}]: {e}") from e
        return out, "custom"
    raise ConfigurationError("config needs 'preset' or 'strategies'")


def build_solver_config(cfg: dict) -> SolverConfig:
    section = _require_keys(cfg.get("solver", {}), {f.name for f in fields(SolverConfig)}, "solver")
    try:
        return SolverConfig(**section)
    except (BamError, TypeError) as e:
        raise ConfigurationError(f"bad solver section: {e}") from e


def fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_trace_csv(trace: IterateTrace, path: Path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_trace_csv_text(trace))


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


def run_checks(names, p: Problem, result: RunResult, x0: BlockVector) -> list[diag.CheckReport]:
    return [diag.CHECKS[name](p, result, x0) for name in names]


def _report_json(p, preset, result, reports) -> dict:
    final_res = result.trace.records[-1].residual if result.trace.records else 0.0
    return {
        "problem": p.name,
        "preset": preset,
        "status": result.status,
        "sweeps": result.sweeps,
        "phi": result.trace.phi_series()[-1],
        "residual": final_res,
        "certificate": result.certificate.to_dict(),
        "checks": [r.to_dict() for r in reports],
    }


def _write_report(report: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_names(cfg: dict) -> list:
    names = cfg.get("checks", [])
    if not isinstance(names, list) or not all(n in CHECK_NAMES for n in names):
        raise ConfigurationError(
            f"'checks' must be a list of names from {CHECK_NAMES}, got {names!r}"
        )
    return names


def _out_paths(cfg: dict, out_dir: str) -> tuple[Path, Path]:
    section = _require_keys(cfg.get("output", {}), {"trace", "report"}, "output")
    names = section.get("trace", "trace.csv"), section.get("report", "report.json")
    if not all(isinstance(n, str) for n in names):
        raise ConfigurationError(f"output file names must be strings, got {names!r}")
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    return base / names[0], base / names[1]


def cmd_run(cfg: dict, args) -> int:
    """``bam run``, and ``bam check``: the pre-run checks, then every check by default."""
    p = build_problem(cfg.get("problem"), args.seed)
    names = _check_names(cfg)
    strategies, preset = build_strategies(cfg, p)
    solver_cfg = build_solver_config(cfg)
    x0 = resolve_x0(p, cfg["problem"])
    validate_strategies(p, strategies, x0)
    trace_path, report_path = _out_paths(cfg, args.out_dir)

    reports = []
    if args.command == "check":  # check the inputs before the run
        reports.append(diag.gradcheck(p, x0))
        for i, strategy in enumerate(strategies):
            gen, _ = make_generator(strategy, p, x0, i, 0)
            rep = check_generator_convexity(gen, p.block_dims[i])
            reports.append(replace(rep, name=f"generator_convexity[{p.block_ids[i]}]"))
        reports += [diag.check_declared_lipschitz(p, x0, i) for i in range(p.n_blocks)]
        names = [n for n in names or CHECK_NAMES if n != "gradcheck"]
    result = run(p, strategies, solver_cfg, x0)
    reports += run_checks(names, p, result, x0)
    write_trace_csv(result.trace, trace_path)
    _write_report(_report_json(p, preset, result, reports), report_path)

    log.info(
        "run %s/%s: status=%s sweeps=%d phi=%.12g",
        p.name,
        preset,
        result.status,
        result.sweeps,
        result.trace.phi_series()[-1],
    )
    for r in reports:
        log.info("check %-28s %s (worst=%.3g)", r.name, r.status, r.worst_violation)
    bad = [r.name for r in reports if not r.acceptable]
    if result.status == "diverged" or bad:
        log.error("run %s; failing checks: %s", result.status, bad)
        return 2
    return 0


def cmd_compare(cfg: dict, args) -> int:
    presets = cfg.get("presets")
    if not isinstance(presets, list) or len(presets) < 2:
        raise ConfigurationError("compare needs a 'presets' list with at least 2 entries")
    if any(presets.count(name) > 1 for name in presets):
        raise ConfigurationError(f"compare presets must be distinct, got {presets!r}")
    p = build_problem(cfg.get("problem"), args.seed)
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
                "final_phi": res.trace.phi_series()[-1],
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
        cfg = load_config(args.config, args.command)
        if args.command == "compare":
            return cmd_compare(cfg, args)
        return cmd_run(cfg, args)
    except BamError as e:
        log.error("%s", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
