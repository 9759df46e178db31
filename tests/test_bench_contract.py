"""The traced benchmark (perfbench/tracer.py) patches bam's module attributes by
name; this test fails when a refactor unbinds one of them.

The tracer runs in a subprocess so that a failure half-way through
``instrument`` cannot leave ``bam`` patched for later tests.
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
"""


def test_tracer_instruments_every_layer():
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
