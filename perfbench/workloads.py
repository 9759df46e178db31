"""The benchmark's workloads: inputs drawn from the seed, the timed solves, and
the checks on every solve's output.

Every workload is a closed loop: one solve (or one ``bam`` command) starts
after the previous one has finished, in one process. The library is reached
through module attributes at call time, so the same code runs traced and
untraced.
"""

from __future__ import annotations

import contextlib
import csv
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bam.cli as cli
import bam.diagnostics as diagnostics
import bam.driver as driver
import bam.problem as problem
from bam.blockvec import BlockVector

perf_counter = time.perf_counter

PRESETS = ("am", "plam", "aam", "am-plam", "plam-am")
PHI_TOL = 1e-8  # converged objective against its reference
FLOOR_TOL = 1e-12  # engine iterates against the hand-written loop
REF_SWEEPS = 100  # numpy-loop sweeps per reference sample
SWEEP_COUNT_KEYS = ("problem.h_value", "problem.partial_grad", "blockvec.with_block")


@dataclass
class PassResult:
    """One pass of a workload: its timed calls and the checks on their outputs."""

    # per timed call into the library: (wall seconds, sweeps, per-sweep seconds)
    units: list = field(default_factory=list)
    # untraced passes: the reference kernel's time before each timed call and after the last
    ref_seconds: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    # library workloads: (preset, RunResult, sweep seconds)
    solves: list = field(default_factory=list)
    # traced sg runs: oracle calls between two plam callbacks, the most common delta
    plam_sweep_counts: dict | None = None

    @property
    def seconds(self) -> float:
        return sum(u[0] for u in self.units)

    @property
    def sweeps(self) -> int:
        return sum(u[1] for u in self.units)

    @property
    def sweep_seconds(self) -> list:
        return [s for u in self.units for s in u[2]]


# Reference kernels. Timing one next to every timed call gives the host's
# speed at that moment, which on a shared host drifts by up to 2x over tens of
# seconds. The sparse_group workloads use one sweep of their own hand-written
# numpy loop; mb-cli uses this fixed mix of interpreter work and small and
# medium numpy products.
_REF_RNG = np.random.default_rng(20160527)
_REF_SMALL = _REF_RNG.standard_normal((40, 50))
_REF_LARGE = _REF_RNG.standard_normal((300, 400))
_REF_V = _REF_RNG.standard_normal(50)
_REF_U = _REF_RNG.standard_normal(400)


def mixed_kernel_seconds(repeats: int = 3) -> float:
    """Median wall time of the mixed reference kernel over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc, kept = 0.0, []
        for i in range(1200):
            w = _REF_SMALL @ _REF_V
            acc += float(w @ w)
            kept.append((i, w, {"k": i}))
            if i % 16 == 0:
                acc += float((_REF_LARGE @ _REF_U)[0])
        times.append(perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


class _Timed:
    """Times one call into the library; under a tracer it is a timed root span.

    Untraced, the reference kernel is timed just before the call.
    """

    def __init__(self, out: PassResult, tracer, name, reference):
        self._out = out
        self._root = tracer.root(name, timed=True) if tracer else contextlib.nullcontext()
        self._tracer = tracer
        self._reference = reference
        self.seconds = 0.0

    def __enter__(self):
        if self._tracer is None:
            self._out.ref_seconds.append(self._reference())
        self._root.__enter__()
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = perf_counter() - self._t0
        self._root.__exit__(*exc)
        if self._tracer is not None:
            self.seconds = self._tracer.timed_roots[-1][1]
        return False


def _end_pass(out: PassResult, tracer, reference) -> None:
    if tracer is None:
        out.ref_seconds.append(reference())


def _untimed(tracer, name):
    return tracer.root(name, timed=False) if tracer else contextlib.nullcontext()


def _sweep_seconds(stamps) -> list:
    return np.diff(np.asarray(stamps)).tolist()


# ---------------------------------------------------------------------------
# sparse_group library workloads


@dataclass
class SparseGroupState:
    problem: object
    x0: BlockVector
    cfg: object
    strategies: dict


@dataclass(frozen=True)
class SparseGroupWorkload:
    """Solves of one sparse_group instance, one ``driver.run`` per preset."""

    name: str
    n1: int
    n2: int
    group_size: int
    presets: tuple
    solver: dict
    expected_status: str
    has_floor: bool

    def inputs(self, seed: int) -> dict:
        """A and the start point, drawn as the library draws them for ``seed``."""
        A = np.random.default_rng(seed).standard_normal((self.n2, self.n1))
        start = np.random.default_rng([seed, 1])
        x0 = BlockVector(
            [("y", start.standard_normal(self.n1)), ("z", start.standard_normal(self.n2))]
        )
        return {"seed": seed, "A": A, "x0": x0}

    def setup(self, inputs: dict) -> SparseGroupState:
        x0 = inputs["x0"]
        gs = self.group_size
        groups = [list(range(i, i + gs)) for i in range(0, self.n2, gs)]
        p = problem.build_sparse_group_instance(
            self.n1, self.n2, groups, seed=inputs["seed"], lambda1=0.1, lambda2=0.1,
            a_matrix=inputs["A"],
        )
        cfg = driver.SolverConfig(**self.solver)
        strategies = {}
        for name in self.presets:
            strategies[name] = driver.resolve_strategy_preset(name, p.n_blocks)
            driver.validate_strategies(p, strategies[name], x0)
        return SparseGroupState(p, x0, cfg, strategies)

    def run_pass(self, state: SparseGroupState, tracer=None) -> PassResult:
        out = PassResult()
        p = state.problem

        def reference():
            return self.reference_seconds(state)

        if tracer is not None:
            with _untimed(tracer, "bench.instrument"):
                p = tracer.wrap_problem(p)
        for name in self.presets:
            stamps, snaps = [], []

            def callback(k, x, stamps=stamps):
                stamps.append(perf_counter())

            if tracer is not None and name == "plam":
                def callback(k, x, stamps=stamps, snaps=snaps):
                    stamps.append(perf_counter())
                    snaps.append(tuple(tracer.count(key) for key in SWEEP_COUNT_KEYS))

            with _Timed(out, tracer, "bench.solve", reference) as t:
                res = driver.run(p, state.strategies[name], state.cfg, state.x0, callback=callback)
            sweep_seconds = _sweep_seconds(stamps)
            out.units.append((t.seconds, len(stamps), sweep_seconds))
            out.solves.append((name, res, sweep_seconds))
            if len(snaps) > 1:
                deltas = Counter(tuple(b - a for a, b in zip(s0, s1))
                                 for s0, s1 in zip(snaps, snaps[1:]))
                top = deltas.most_common(1)[0][0]
                out.plam_sweep_counts = dict(zip(SWEEP_COUNT_KEYS, top))
        _end_pass(out, tracer, reference)
        with _untimed(tracer, "bench.gate"):
            for name, res, _ in out.solves:
                out.attempted += 1
                out.failures += self._check_solve(name, res)
        return out

    def _check_solve(self, preset: str, res) -> list:
        """One message if the solve's output fails a check, else nothing."""
        why = []
        if res.status != self.expected_status:
            why.append(f"status {res.status}, expected {self.expected_status}")
        md = diagnostics.check_monotone_descent(res.trace)
        if not md.passed:
            why.append(f"monotone descent {md.status} ({md.worst_violation:g})")
        sd = diagnostics.check_sufficient_decrease(res.trace)
        positive = any(nu > 0.0 for rec in res.trace.records for nu in rec.nu_blocks)
        if (positive and not sd.passed) or (not positive and sd.status != "skipped"):
            why.append(f"sufficient decrease {sd.status} ({sd.worst_violation:g})")
        if res.status == "residual-converged":
            if not res.certificate.passed:
                why.append(f"criticality certificate {res.certificate.status}")
            phi = res.trace.records[-1].phi_end
            # every term is nonnegative and vanishes at the origin
            if abs(phi) > PHI_TOL:
                why.append(f"phi {phi:.3e} is not within {PHI_TOL:g} of 0")
        return [f"{self.name}/{preset}: " + "; ".join(why)] if why else []

    def floor(self, state: SparseGroupState, sweeps: int):
        """The hand-written numpy prox-gradient loop; returns (y, z) per sweep and its time."""
        p = state.problem
        A = p.metadata["A"]
        lam1, lam2 = p.metadata["lambda1"], p.metadata["lambda2"]
        a1, a2 = 1.1 * p.metadata["L1"], 1.1 * p.metadata["L2"]
        t1, t2 = (1.0 / a1) * lam1, (1.0 / a2) * lam2
        n_groups = self.n2 // self.group_size
        y = state.x0.block(0).copy()
        z = state.x0.block(1).copy()
        ys = np.empty((sweeps, self.n1))
        zs = np.empty((sweeps, self.n2))
        t0 = perf_counter()
        for k in range(sweeps):
            v = y - 2.0 * (A.T @ (A @ y - z)) / a1
            y = np.sign(v) * np.maximum(np.abs(v) - t1, 0.0)
            w = (z + 2.0 * (A @ y - z) / a2).reshape(n_groups, self.group_size)
            norms = np.sqrt(np.einsum("ij,ij->i", w, w))
            scale = np.maximum(1.0 - t2 / np.where(norms > 0.0, norms, 1.0), 0.0)
            z = (w * np.where(norms > 0.0, scale, 0.0)[:, None]).ravel()
            ys[k] = y
            zs[k] = z
        return ys, zs, perf_counter() - t0

    def reference_seconds(self, state: SparseGroupState) -> float:
        """One sweep of the numpy loop, from the median of three 100-sweep runs."""
        times = sorted(self.floor(state, REF_SWEEPS)[2] for _ in range(3))
        return times[1] / REF_SWEEPS

    def check_floor(self, state: SparseGroupState) -> tuple:
        """A plam solve against the numpy loop: largest deviation over every
        iterate, and the loop's seconds per sweep. Not part of any timed pass."""
        iterates = []
        driver.run(state.problem, state.strategies["plam"], state.cfg, state.x0,
                   callback=lambda k, x: iterates.append(x.arrays))
        ys, zs, seconds = self.floor(state, len(iterates))
        engine_y = np.stack([it[0] for it in iterates])
        engine_z = np.stack([it[1] for it in iterates])
        dev = max(float(np.max(np.abs(engine_y - ys))), float(np.max(np.abs(engine_z - zs))))
        return dev, seconds / len(iterates)


# ---------------------------------------------------------------------------
# the command-line workload


@dataclass
class CliState:
    compare_cfg: Path
    check_cfg: Path
    out_dir: Path
    phi_star: float


@dataclass(frozen=True)
class CliWorkload:
    """``bam compare`` over every preset, then ``bam check``, through ``cli.main``."""

    name: str
    n_blocks: int
    solver: dict
    check_preset: str
    out_dir: Path

    def inputs(self, seed: int) -> dict:
        """Write the compare and check configs; the seed goes into the problem section."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        section = {
            "name": "multiblock_quadratic",
            "parameters": {"n_blocks": self.n_blocks},
            "seed": seed,
            "x0": "default",
        }
        compare = {
            "problem": section,
            "presets": list(PRESETS),
            "solver": self.solver,
            "output": {"trace": "compare_trace.csv", "report": "compare_report.json"},
        }
        check = {
            "problem": section,
            "preset": self.check_preset,
            "solver": self.solver,
            "output": {"trace": "check_trace.csv", "report": "check_report.json"},
        }
        paths = self.out_dir / "compare.json", self.out_dir / "check.json"
        for path, cfg in zip(paths, (compare, check)):
            path.write_text(json.dumps(cfg, indent=2) + "\n")
        return {"section": section, "paths": paths}

    def setup(self, inputs: dict) -> CliState:
        section, paths = inputs["section"], inputs["paths"]
        p = cli.build_problem(section)
        x0 = cli.resolve_x0(p, section)
        for name in PRESETS:
            driver.validate_strategies(p, driver.resolve_strategy_preset(name, p.n_blocks), x0)
        return CliState(paths[0], paths[1], self.out_dir, float(p.metadata["phi_star"]))

    def run_pass(self, state: CliState, tracer=None) -> PassResult:
        out = PassResult()
        stamp_lists = []
        run = cli.run

        # the same per-sweep timestamps the library workloads take; the compare
        # pool's threads interleave under the interpreter lock, so only the
        # main thread's runs give per-sweep wall times
        def run_with_stamps(p, strategies, cfg, x0, callback=None):
            stamps = []
            stamp_lists.append((threading.current_thread() is threading.main_thread(), stamps))
            return run(p, strategies, cfg, x0, callback=lambda k, x: stamps.append(perf_counter()))

        common = ["--out-dir", str(state.out_dir), "--quiet"]
        cli.run = run_with_stamps
        try:
            rcs = []
            for command, cfg in (("compare", state.compare_cfg), ("check", state.check_cfg)):
                del stamp_lists[:]
                with _Timed(out, tracer, "bench.command", mixed_kernel_seconds) as t:
                    rcs.append(cli.main([command, str(cfg), *common]))
                sweep_seconds = [s for on_main, stamps in stamp_lists if on_main
                                 for s in _sweep_seconds(stamps)]
                out.units.append((t.seconds, sum(len(st) for _, st in stamp_lists), sweep_seconds))
        finally:
            cli.run = run
        _end_pass(out, tracer, mixed_kernel_seconds)
        rc_compare, rc_check = rcs
        with _untimed(tracer, "bench.gate"):
            out.attempted = len(PRESETS) + 1
            out.failures += self._check_compare(state, rc_compare)
            out.failures += self._check_check(state, rc_check)
        return out

    def _check_compare(self, state: CliState, rc: int) -> list:
        if rc != 0:
            return [f"compare: exit code {rc}"] * len(PRESETS)
        report = json.loads((state.out_dir / "compare_report.json").read_text())
        rows = {r["preset"]: r for r in report["summary"]}
        chains = _descent_chains(state.out_dir / "compare_trace.csv")
        fails = []
        for name in PRESETS:
            row = rows.get(name)
            if row is None:
                fails.append(f"compare/{name}: no summary row")
                continue
            why = []
            if row["status"] != "residual-converged":
                why.append(f"status {row['status']}")
            if abs(row["final_phi"] - state.phi_star) > PHI_TOL:
                why.append(f"phi {row['final_phi']!r} vs phi_star {state.phi_star!r}")
            if not chains.get(name, False):
                why.append("trace.csv objective increases")
            if why:
                fails.append(f"compare/{name}: " + "; ".join(why))
        return fails

    def _check_check(self, state: CliState, rc: int) -> list:
        if rc != 0:
            return [f"check: exit code {rc}"]
        report = json.loads((state.out_dir / "check_report.json").read_text())
        why = []
        if report["status"] != "residual-converged":
            why.append(f"status {report['status']}")
        if report["certificate"]["status"] != "pass":
            why.append(f"certificate {report['certificate']['status']}")
        if abs(report["phi"] - state.phi_star) > PHI_TOL:
            why.append(f"phi {report['phi']!r} vs phi_star {state.phi_star!r}")
        status = {c["name"]: c["status"] for c in report["checks"]}
        why += [f"{n} {s}" for n, s in status.items() if s == "fail"]
        for needed in ("monotone_descent", "sufficient_decrease"):
            if status.get(needed) != "pass":
                why.append(f"{needed} {status.get(needed)}")
        return [f"check/{self.check_preset}: " + "; ".join(why)] if why else []


def _descent_chains(path: Path) -> dict:
    """Per preset: does every trace row keep phi_prev >= phi_half >= phi (with slack)?"""
    ok: dict = {}
    prev: dict = {}
    slack: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            name = row["preset"]
            phi, half = float(row["phi"]), float(row["phi_half"])
            if row["k"] == "0":
                ok[name], prev[name] = True, phi
                slack[name] = 1e-10 * (1.0 + abs(phi))
                continue
            s = slack[name]
            ok[name] = ok[name] and half <= prev[name] + s and phi <= half + s
            prev[name] = phi
    return ok


def make_workloads(out_root: Path) -> dict:
    """The named workloads; ``out_root`` receives the files the cli writes."""
    fast = {"max_outer_iter": 5000, "residual_tol": 1e-8, "step_tol": 0.0}
    exact = {"max_outer_iter": 25, "residual_tol": 1e-8, "step_tol": 0.0,
             "inner_tol": 1e-8, "inner_max_iter": 1500}
    budget = {"max_outer_iter": 1000, "residual_tol": 0.0, "step_tol": 0.0}
    return {
        "sg-plam": SparseGroupWorkload("sg-plam", 50, 40, 5, ("plam", "plam-am"), fast,
                                       "residual-converged", True),
        "sg-exact": SparseGroupWorkload("sg-exact", 50, 40, 5, ("am", "aam", "am-plam"), exact,
                                        "max-iter", False),
        "sg-large": SparseGroupWorkload("sg-large", 400, 300, 10, ("plam", "plam-am"), budget,
                                        "max-iter", True),
        "mb-cli": CliWorkload("mb-cli", 16,
                              {"max_outer_iter": 2000, "residual_tol": 1e-10, "step_tol": 0.0},
                              "plam", out_root / "mb-cli"),
    }
