"""Fingerprint the command line's output files on a fixed set of invocations.

Usage:  python tools/cli_bytes.py <src-dir>

``<src-dir>`` is the directory holding the ``bam`` package to test (the
``src`` directory of a checkout). For each of 72 invocations the script prints
one line: a label, the exit code, the sha256 of ``trace.csv`` and of
``report.json`` ("-" for a file that was not written), and then, read from
``report.json``, the run's status, sweep count and final phi (``%.17g``) and
every check that did not pass, as ``name=status`` after ``not-passed=``
("-" when all passed); for ``compare``, whose report holds no checks, one
status, sweep count and phi per preset, with the sweep count its
``sweeps_to_tol`` ("-" when the preset did not converge). Run it on two
checkouts and diff the two outputs to see whether a change moved any output
byte, by how much it moved phi, and which check verdicts it changed:

    python tools/cli_bytes.py ../parent/src > before.txt
    python tools/cli_bytes.py src > after.txt
    diff before.txt after.txt

The invocations: ``separable_quadratic``, ``separable_quadratic_badgrad``,
``multiblock_quadratic`` with n = 5 at seed 2 and n = 16 at seed 7 (300 sweeps,
``residual_tol`` 1e-10), and ``sparse_group`` 50x40 with group size 5 at seeds
7 and 11 (60 sweeps, ``inner_max_iter`` 300); for each problem, ``run`` with
every check and ``check`` for each preset, and one ``compare`` over all
presets; plus one ``run`` of explicit strategies (linearized alpha 4,
augmented alpha 0.5) on ``separable_quadratic`` from {y: 0.7, z: -2}, and
``check`` for each preset on the seed-7 ``sparse_group`` instance from
``"zeros"``, its minimizer, where every preset converges in one sweep.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
import tempfile
from pathlib import Path

PRESETS = ["am", "plam", "aam", "am-plam", "plam-am"]
QUADRATIC_SOLVER = {"max_outer_iter": 300, "residual_tol": 1e-10}
SPARSE_SOLVER = {"max_outer_iter": 60, "inner_max_iter": 300}
PROBLEMS = [
    ("sep", {"name": "separable_quadratic"}, QUADRATIC_SOLVER),
    ("badgrad", {"name": "separable_quadratic_badgrad"}, QUADRATIC_SOLVER),
    ("mb5", {"name": "multiblock_quadratic", "parameters": {"n_blocks": 5}, "seed": 2},
     QUADRATIC_SOLVER),
    ("mb16", {"name": "multiblock_quadratic", "parameters": {"n_blocks": 16}, "seed": 7},
     QUADRATIC_SOLVER),
    ("sg7", {"name": "sparse_group", "parameters": {"n1": 50, "n2": 40, "group_size": 5},
             "seed": 7}, SPARSE_SOLVER),
    ("sg11", {"name": "sparse_group", "parameters": {"n1": 50, "n2": 40, "group_size": 5},
              "seed": 11}, SPARSE_SOLVER),
]


def invocations(check_names):
    """(label, command, config) for every invocation, in a fixed order."""
    for tag, problem, solver in PROBLEMS:
        for preset in PRESETS:
            for command in ("run", "check"):
                cfg = {"problem": problem, "preset": preset, "solver": solver,
                       "checks": list(check_names)}
                yield f"{tag}/{command}/{preset}", command, cfg
        yield f"{tag}/compare", "compare", {"problem": problem, "presets": PRESETS,
                                            "solver": solver}
    strategies = [
        {"kind": "linearized", "alpha_rule": {"kind": "constant", "value": 4.0}},
        {"kind": "augmented", "alpha_rule": {"kind": "constant", "value": 0.5}},
    ]
    problem = {"name": "separable_quadratic", "x0": {"y": [0.7], "z": [-2.0]}}
    yield "sep/run/strategies", "run", {
        "problem": problem, "strategies": strategies,
        "solver": {"max_outer_iter": 300, "residual_tol": 1e-12}, "checks": list(check_names),
    }
    problem, solver = {tag: rest for tag, *rest in PROBLEMS}["sg7"]
    for preset in PRESETS:
        cfg = {"problem": {**problem, "x0": "zeros"}, "preset": preset, "solver": solver,
               "checks": list(check_names)}
        yield f"sg7-zeros/check/{preset}", "check", cfg


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def outcome(path: Path) -> str:
    """Status, sweep count, final phi and the checks that did not pass from a
    report; status, sweep count and phi per preset for ``compare``."""
    if not path.exists():
        return "-"
    report = json.loads(path.read_text())
    if "summary" not in report:
        failed = ",".join(f"{c['name']}={c['status']}" for c in report["checks"]
                          if c["status"] != "pass")
        return (f"status={report['status']} sweeps={report['sweeps']} phi={report['phi']:.17g} "
                f"not-passed={failed or '-'}")
    return " ".join(
        f"{row['preset']}:status={row['status']} sweeps={row['sweeps_to_tol'] or '-'} "
        f"phi={row['final_phi']:.17g}" for row in report["summary"]
    )


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    src = Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    import bam
    from bam.cli import main as bam_main
    from bam.diagnostics import CHECK_NAMES

    if Path(bam.__file__).resolve().parent != src / "bam":
        print(f"bam was imported from {bam.__file__}, not from {src}", file=sys.stderr)
        return 1
    logging.disable(logging.CRITICAL)
    for label, command, cfg in invocations(CHECK_NAMES):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            config = out / "config.json"
            config.write_text(json.dumps(cfg))
            rc = bam_main([command, str(config), "--out-dir", str(out), "--quiet"])
            print(f"{label} exit={rc} trace={digest(out / 'trace.csv')} "
                  f"report={digest(out / 'report.json')} {outcome(out / 'report.json')}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
