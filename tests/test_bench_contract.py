"""The traced benchmark (perfbench/tracer.py) patches bam's module attributes by
name; this test fails when a refactor unbinds one of them, or changes a
signature so that a traced solve no longer runs.

It traces library ``run`` calls, and ``bam check`` and ``bam compare`` through
``cli.main``. The tracer runs in a subprocess so that a failure half-way
through ``instrument`` cannot leave ``bam`` patched for later tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path[:0] = [{src!r}, {perfbench!r}]
from tracer import Tracer, instrument
from bam.problem import build_sparse_group_instance

tracer = Tracer()
with instrument(tracer):
    pass
p = build_sparse_group_instance(6, 4, [[0, 1], [2, 3]], seed=1)
wrapped = tracer.wrap_problem(p)
assert wrapped.block_ids == p.block_ids and wrapped.coupling is not p.coupling

# a short traced solve goes through every wrapper the engine calls
import bam.driver as driver
cfg = driver.SolverConfig(max_outer_iter=3, residual_tol=0.0, step_tol=0.0)
with instrument(tracer):
    with tracer.root("solve", timed=True):
        res = driver.run(wrapped, driver.resolve_strategy_preset("plam"), cfg, wrapped.default_x0)
assert res.sweeps == 3 and len(res.trace.records) == 3, res
assert tracer.open_spans() == 0, tracer.open_spans()
counts = tracer.counts(timed_only=True)
assert counts["driver.run"] == 1 and counts["driver.step_block"] == 6, counts
assert counts["problem.h_value"] > 0, counts
# the z prox must reach the group kernel through problem.group_shrink
assert counts["prox.group_shrink"] > 0, counts

# am's y step runs the inner solver, which the tracer wraps by argument position
cfg = driver.SolverConfig(max_outer_iter=2, residual_tol=0.0, step_tol=0.0, inner_max_iter=20)
with instrument(tracer):
    with tracer.root("solve", timed=True):
        res = driver.run(wrapped, driver.resolve_strategy_preset("am"), cfg, wrapped.default_x0)
assert res.sweeps == 2, res
assert tracer.open_spans() == 0, tracer.open_spans()
counts = tracer.counts(timed_only=True)
assert counts["prox.inner_exact_min"] > 0 and counts["prox.inner_iters"] > 0, counts

# `bam check` goes through the cli wrappers: file i/o, the problem builder,
# the pre-run checks and the trace and report writers
import json, tempfile
import bam.cli as cli
with tempfile.TemporaryDirectory() as out:
    config = out + "/config.json"
    with open(config, "w") as fh:
        json.dump({{"problem": {{"name": "multiblock_quadratic", "parameters": {{"n_blocks": 3}},
                               "seed": 1}},
                   "preset": "plam", "solver": {{"residual_tol": 1e-10}}}}, fh)
    with instrument(tracer):
        with tracer.root("check", timed=True):
            code = cli.main(["check", config, "--out-dir", out, "--quiet"])
assert code == 0, code
assert tracer.open_spans() == 0, tracer.open_spans()
counts = tracer.counts(timed_only=True)
expected = {{"cli.file_write": 2, "cli.write_trace_csv": 1, "bregman.check_convexity": 3,
            "diagnostics.gradcheck": 1, "problem.build": 1}}
assert {{k: counts.get(k) for k in expected}} == expected, counts

# `bam compare` on the same problem, counted by a fresh tracer: one trace text
# per preset, one trace file and one report
tracer = Tracer()
with tempfile.TemporaryDirectory() as out:
    config = out + "/config.json"
    with open(config, "w") as fh:
        json.dump({{"problem": {{"name": "multiblock_quadratic", "parameters": {{"n_blocks": 3}},
                               "seed": 1}},
                   "presets": ["am", "plam"], "solver": {{"residual_tol": 1e-10}}}}, fh)
    with instrument(tracer):
        with tracer.root("compare", timed=True):
            code = cli.main(["compare", config, "--out-dir", out, "--quiet"])
assert code == 0, code
assert tracer.open_spans() == 0, tracer.open_spans()
counts = tracer.counts(timed_only=True)
expected = {{"cli.file_write": 2, "cli.trace_csv_text": 2, "cli.write_report": 1,
            "problem.build": 1, "driver.run": 2, "diagnostics.certificate": 2}}
assert {{k: counts.get(k) for k in expected}} == expected, counts
"""


def test_tracer_instruments_every_layer():
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
