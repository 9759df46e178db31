#!/usr/bin/env python3
"""bam benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sg-plam --seed 7 --seconds 20 --trace 0

The benchmark imports ``bam`` from ``src/`` of the checkout; without it, it
exits with code 2. Each workload is a closed loop of solves in one process
(see ``workloads.py``):

* ``sg-plam``  sparse_group 50x40, presets plam and plam-am, run to 1e-8.
* ``sg-exact`` the same instance, presets am, aam and am-plam, 25 sweeps
  with the inner solver capped at 1500 iterations.
* ``sg-large`` sparse_group 400x300, plam and plam-am, 1000 sweeps.
* ``mb-cli``   ``bam compare`` over all five presets, then ``bam check``
  with plam, on multiblock_quadratic with 16 blocks.

The seed draws the instance (A and the start point for sparse_group, the
couplings and targets for multiblock_quadratic). Seed 7 is the default and
reproduces the acceptance-suite instance; seed 11 is held out, and any claim
made with the benchmark must also hold there.

``--trace 0`` repeats the workload's pass until ``--seconds`` of timed
section have run and reports the end-to-end metrics. A shared or
frequency-scaled host can drift in speed by 2x over tens of seconds, so every
timed call (a ``driver.run``, or a ``cli.main`` for mb-cli) is divided by the
time of a reference kernel measured just before and after it. For the sparse_group
workloads one ``ref`` is one sweep of the hand-written numpy loop on the same
instance, so their values read as multiples of that floor; for mb-cli it is
one run of a fixed mix of interpreter work and small and medium numpy
products (about 5 ms). The wall times behind each metric are printed too.

* ``run_per_sweep_ref`` the timed section over the sweeps it ran, median
  over passes. (The raw ``run_s`` scales with the number of sweeps the
  seed's instance needs to converge, so it is printed, not compared.)
* ``sweep_p50_ref`` per-sweep time between consecutive ``run()`` callbacks:
  the median over the run's sweeps of each preset, averaged over presets.
  For mb-cli only the ``bam check`` run counts, because the compare pool's
  threads interleave.
* ``setup_s`` wall time to build the instance and resolve and validate the
  strategies (input generation and config files are not counted). Set-ups
  are repeated in short rounds before the first pass and after each pass;
  the metric is the median over rounds of each round's fastest set-up, since
  on a shared host most set-ups are slowed by other processes by a varying
  amount while the fastest of a round is not. The median of all set-ups is
  printed too.
* ``peak_rss_mb`` peak resident memory of the process.

Printed beside them, but not compared, are the tail (per pass, the highest
percentile of the sweep times with at least 10 sweeps beyond it; the median
over passes, in ref and in ms), the raw wall times, and ``fail_frac``. On a
shared host the tail follows other tenants' scheduling more than the program.

Every solve's output is checked (status, monotone descent, sufficient
decrease, and on converged runs the criticality certificate and the
objective against its reference). sg-plam and sg-large also run plam against
a hand-written numpy loop, whose iterates must agree within 1e-12. The share
of checks that failed is ``failed`` over ``attempted`` in the result line,
and any failure makes the exit code 1.

``--trace 1`` runs one untraced pass and then two traced passes, and reports
the per-layer metrics (see ``tracer.py``). Count metrics must repeat
exactly between the two traced passes, and the layers' self times plus the
uncovered remainder must add up to the traced run time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
with the machine and the source version, goes to
``.bench_out/<workload>/result-trace<0|1>.json``; traced runs also write
their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
DEFAULT_SEED = 7
HELD_OUT_SEED = 11
# set-ups are timed in short rounds, one before the first pass and one after
# each pass, so that they cover the whole run rather than one moment; each
# round's fastest set-up is the one least disturbed by other processes
SETUP_ROUND_SECONDS = 0.25
SETUP_ROUND_MIN = 3
SETUP_ROUND_MAX = 1000
TRACED_PASSES = 2
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1  # the largest product is 400x300; a second thread only contends
WORKLOAD_NAMES = ("sg-plam", "sg-exact", "sg-large", "mb-cli")

END_TO_END_UNITS = {
    "run_per_sweep_ref": "ref",
    "sweep_p50_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "driver.sweeps": "count",
    "driver.ascent_rejected": "count",
    "driver.hit_cap": "count",
    "driver.self_us_per_sweep": "us/sweep",
    "driver.overhead_ratio": "ratio",
    "problem.h_value_per_sweep": "count/sweep",
    "problem.partial_grad_per_sweep": "count/sweep",
    "problem.partial_lipschitz_per_sweep": "count/sweep",
    "problem.term_value_per_sweep": "count/sweep",
    "problem.prox_per_sweep": "count/sweep",
    "problem.exact_min_per_sweep": "count/sweep",
    "problem.phi_value_per_sweep": "count/sweep",
    "problem.oracle_us_per_sweep": "us/sweep",
    "problem.matvec_flops_per_sweep": "flop/sweep",
    "problem.build_ms": "ms/call",
    "bregman.distance_per_sweep": "count/sweep",
    "bregman.gen_grad_per_sweep": "count/sweep",
    "bregman.us_per_sweep": "us/sweep",
    "prox.inner_calls": "count",
    "prox.inner_iters_per_call": "count/call",
    "prox.converged_frac": "ratio",
    "prox.inner_ms_per_call": "ms/call",
    "prox.shrink_us_per_call": "us/call",
    "blockvec.with_block_per_sweep": "count/sweep",
    "blockvec.to_flat_per_sweep": "count/sweep",
    "blockvec.copy_bytes_per_sweep": "B/sweep",
    "blockvec.us_per_sweep": "us/sweep",
    "diagnostics.residual_us_per_sweep": "us/sweep",
    "diagnostics.residual_grad_calls_per_sweep": "count/sweep",
    "diagnostics.certificate_ms": "ms/call",
    "diagnostics.checks_ms": "ms",
    "cli.build_ms": "ms/call",
    "cli.run_ms_sum": "ms",
    "cli.pool_speedup": "ratio",
    "cli.write_ms": "ms",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}

LAYERS = ("driver", "problem", "bregman", "prox", "blockvec", "diagnostics", "cli", "bench")
WRITE_SPANS = ("cli.write_trace_csv", "cli.trace_csv_text", "cli.write_report", "cli.file_write")
SHRINK_SPANS = ("prox.soft_threshold", "prox.group_shrink", "prox.group_soft_threshold")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_bam():
    """Import bam from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "bam" / "__init__.py").is_file():
        return None
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import bam

    if Path(bam.__file__).resolve().parent != (src / "bam").resolve():
        return None
    return bam


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    threads = int(getattr(handle, sym)())
                    break
    except OSError:
        pass
    return {
        "vendor": info.get("name", "unknown"),
        "version": info.get("version", "unknown"),
        "threads": threads,
        "threads_env": BLAS_THREADS,
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bam").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np

    return {
        "cpu": _cpu_model(),
        "nproc": NPROC,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


# ---------------------------------------------------------------------------
# measurement


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def floor_check(wl, state):
    """(failures, deviation, floor s/sweep) of the numpy-loop check."""
    from workloads import FLOOR_TOL

    dev, floor_s = wl.check_floor(state)
    fails = [f"plam iterates deviate from the numpy loop by {dev:.3e}"] if dev > FLOOR_TOL else []
    return fails, dev, floor_s


def time_setups(wl, inputs, rounds):
    """One round of set-ups; appends their wall times to ``rounds`` and
    returns the last state."""
    times = []
    while len(times) < SETUP_ROUND_MIN or (
            sum(times) < SETUP_ROUND_SECONDS and len(times) < SETUP_ROUND_MAX):
        t0 = time.perf_counter()
        state = wl.setup(inputs)
        times.append(time.perf_counter() - t0)
    rounds.append(times)
    return state


def end_to_end(wl, inputs, seconds, log):
    setup_rounds = []
    state = time_setups(wl, inputs, setup_rounds)
    passes = []
    measured = 0.0
    floor_dev = None
    extra_attempts, extra_fails = 0, []
    while not passes or measured < seconds:
        r = wl.run_pass(state)
        r.solves = None
        passes.append(r)
        measured += r.seconds
        time_setups(wl, inputs, setup_rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if getattr(wl, "has_floor", False):
        extra_fails, floor_dev, _ = floor_check(wl, state)
        extra_attempts = 1
    # each timed call is divided by the reference kernel's time around it
    pass_ref, tails = [], []
    by_call = {}  # the j-th timed call of every pass (one preset or command)
    for r in passes:
        total, pass_sweeps = 0.0, []
        for j, (sec, _, sweep_s) in enumerate(r.units):
            ref = 0.5 * (r.ref_seconds[j] + r.ref_seconds[j + 1])
            total += sec / ref
            normalized = [x / ref for x in sweep_s]
            pass_sweeps += normalized
            by_call.setdefault(j, []).extend(normalized)
        pass_ref.append(total / r.sweeps)
        tails.append(tail(pass_sweeps))
    # presets differ in sweep cost, so a median over all sweeps would sit
    # between their modes; take each preset's median and average them
    p50 = statistics.mean(statistics.median(v) for v in by_call.values() if v)
    values = {
        "run_per_sweep_ref": statistics.median(pass_ref),
        "sweep_p50_ref": p50,
        "setup_s": statistics.median(min(r) for r in setup_rounds),
        "peak_rss_mb": peak_rss_mb,
    }
    sweep_ms = [1e3 * x for r in passes for x in r.sweep_seconds]
    shown = {
        "sweep_tail_ref": (statistics.median(t for t, _ in tails), "ref"),
        "run_s": (statistics.median(r.seconds for r in passes), "s"),
        "run_ms_per_sweep": (statistics.median(1e3 * r.seconds / r.sweeps for r in passes), "ms"),
        "sweep_ms_p50": (statistics.median(sweep_ms), "ms"),
        "sweep_ms_tail": (statistics.median(
            tail([1e3 * x for x in r.sweep_seconds])[0] for r in passes), "ms"),
        "ref_ms": (statistics.median(1e3 * x for r in passes for x in r.ref_seconds), "ms"),
        "setup_s_median_all": (statistics.median(x for r in setup_rounds for x in r), "s"),
    }
    attempted = sum(r.attempted for r in passes) + extra_attempts
    failures = [f for r in passes for f in r.failures] + extra_fails
    log(f"passes {len(passes)}  sweeps per pass {[r.sweeps for r in passes]}")
    log("printed, not compared (run_s scales with the sweeps the seed's instance needs; "
        "tails and raw wall times move with the host's load):")
    for name, (v, unit) in shown.items():
        log(f"  {name:<42} {v:>16.6f} {unit}")
    log("sweep tails: median over passes of each pass's highest percentile with 10 sweeps "
        "beyond it: " + ", ".join(f"p{p:.3f} of {len(r.sweep_seconds)}"
                                  for (_, p), r in zip(tails, passes)))
    log(f"setup_s is the median over {len(setup_rounds)} rounds of each round's fastest "
        f"set-up ({sum(map(len, setup_rounds))} set-ups)")
    if floor_dev is not None:
        log(f"floor check: plam iterates within {floor_dev:.3e} of the numpy loop")
    details = {
        "passes": len(passes),
        "run_s_per_pass": [r.seconds for r in passes],
        "sweeps_per_pass": [r.sweeps for r in passes],
        "sweep_samples": len(sweep_ms),
        "sweep_tail_percentiles": [p for _, p in tails],
        "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "setup_repeats": [len(r) for r in setup_rounds],
        "floor_max_deviation": floor_dev,
    }
    return values, END_TO_END_UNITS, attempted, failures, details


def layer_metrics(tr, r):
    """Per-layer metrics of one traced pass."""
    from tracer import CHECK_FUNCTIONS

    # per-sweep counts are of the timed calls only (the traced set-up and the
    # output checks run outside them); per-call times use every call
    counts, incl, selfs = tr.counts(timed_only=True), tr.inclusive(), tr.timed_selfs
    all_counts = tr.counts()
    sweeps = sum(res.sweeps for res in tr.results)
    flags = {}
    for res in tr.results:
        for rec in res.trace.records:
            for f in rec.inner_flags:
                flags[f] = flags.get(f, 0) + 1
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, v in selfs.items():
        layer_self[name.split(".", 1)[0]] += v

    def c(key):
        return counts.get(key, 0)

    def per_sweep(key):
        return c(key) / sweeps

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(keys, scale):
        return scale * ratio(sum(incl.get(k, 0.0) for k in keys),
                             sum(all_counts.get(k, 0) for k in keys))

    inner = c("prox.inner_exact_min")
    oracle_s = sum(v for k, v in selfs.items() if k.startswith("problem.") and k != "problem.build")
    pool_wall = sum(u for u, _ in tr.pools)
    values = {
        "driver.sweeps": sweeps,
        "driver.ascent_rejected": flags.get("ascent-rejected", 0),
        "driver.hit_cap": flags.get("hit-cap", 0),
        "driver.self_us_per_sweep": 1e6 * layer_self["driver"] / sweeps,
        "problem.h_value_per_sweep": per_sweep("problem.h_value"),
        "problem.partial_grad_per_sweep": per_sweep("problem.partial_grad"),
        "problem.partial_lipschitz_per_sweep": per_sweep("problem.partial_lipschitz"),
        "problem.term_value_per_sweep": per_sweep("problem.term_value"),
        "problem.prox_per_sweep": per_sweep("problem.prox"),
        "problem.exact_min_per_sweep": per_sweep("problem.exact_min"),
        "problem.phi_value_per_sweep": per_sweep("problem.phi_value"),
        "problem.oracle_us_per_sweep": 1e6 * oracle_s / sweeps,
        "problem.matvec_flops_per_sweep": per_sweep("problem.matvec_flops"),
        "problem.build_ms": per_call(["problem.build"], 1e3),
        "bregman.distance_per_sweep": per_sweep("bregman.distance"),
        "bregman.gen_grad_per_sweep": per_sweep("bregman.gen_grad"),
        "bregman.us_per_sweep": 1e6 * layer_self["bregman"] / sweeps,
        "prox.inner_calls": inner,
        "prox.inner_iters_per_call": ratio(c("prox.inner_iters"), inner),
        "prox.converged_frac": ratio(c("prox.inner_converged"), inner),
        "prox.inner_ms_per_call": per_call(["prox.inner_exact_min"], 1e3),
        "prox.shrink_us_per_call": per_call(SHRINK_SPANS, 1e6),
        "blockvec.with_block_per_sweep": per_sweep("blockvec.with_block"),
        "blockvec.to_flat_per_sweep": per_sweep("blockvec.to_flat"),
        "blockvec.copy_bytes_per_sweep": per_sweep("blockvec.copy_bytes"),
        "blockvec.us_per_sweep": 1e6 * layer_self["blockvec"] / sweeps,
        "diagnostics.residual_us_per_sweep":
            1e6 * incl.get("diagnostics.subgradient_residual", 0.0) / sweeps,
        "diagnostics.residual_grad_calls_per_sweep": per_sweep("diagnostics.residual_grad_calls"),
        "diagnostics.certificate_ms": per_call(["diagnostics.certificate"], 1e3),
        "diagnostics.checks_ms":
            1e3 * sum(incl.get(f"diagnostics.{f}", 0.0) for f in CHECK_FUNCTIONS),
        "cli.build_ms": per_call(["cli.build_problem"], 1e3),
        "cli.run_ms_sum": 1e3 * sum(tr.pool_run_cpu),
        "cli.pool_speedup": ratio(sum(tr.pool_run_cpu), pool_wall),
        "cli.write_ms": 1e3 * sum(selfs.get(k, 0.0) for k in WRITE_SPANS),
        "cli.bytes_written": c("cli.bytes_written"),
    }
    traced_s = sum(d for _, d in tr.timed_roots)
    covered = sum(selfs.values())
    remainder = layer_self["bench"]
    why = []
    if sweeps != r.sweeps:
        why.append(f"traced results hold {sweeps} sweeps, the pass timed {r.sweeps}")
    if abs(covered - traced_s) > 1e-6 * traced_s:
        why.append(f"self times add up to {covered!r} s, traced run_s is {traced_s!r} s")
    if tr.open_spans():
        why.append(f"{tr.open_spans()} spans left open")
    checks = ["trace consistency: " + "; ".join(why)] if why else []
    summary = {
        "traced_run_s": traced_s,
        "uncovered_s": remainder,
        "layer_self_s": {k: v for k, v in layer_self.items() if k != "bench"},
        "plam_sweep_counts": r.plam_sweep_counts,
        "spans": tr.span_count(),
    }
    return values, all_counts, checks, summary


def per_layer(wl, inputs, log):
    import numpy as np
    from tracer import Tracer, instrument

    state = wl.setup(inputs)
    base = wl.run_pass(state)
    failures = list(base.failures)
    attempted = base.attempted
    overhead_ratio = 0.0
    if getattr(wl, "has_floor", False):
        fails, dev, floor_s = floor_check(wl, state)
        failures += fails
        attempted += 1
        engine = next(s for name, _, s in base.solves if name == "plam")
        overhead_ratio = statistics.median(engine) / floor_s
        log(f"floor: numpy loop {1e6 * floor_s:.2f} us/sweep, engine plam "
            f"{1e6 * statistics.median(engine):.2f} us/sweep (median), deviation {dev:.3e}")
    base.solves = None

    runs = []  # (values, counts, summary) per traced pass
    for i in range(TRACED_PASSES):
        tr = Tracer()
        with instrument(tr):
            with tr.root("bench.setup", timed=False):
                wl.setup(inputs)
            r = wl.run_pass(state, tracer=tr)
        values, counts, checks, summary = layer_metrics(tr, r)
        failures += r.failures + checks
        attempted += r.attempted + 1
        runs.append((values, counts, summary))
        if i == 0:
            out = OUT_ROOT / wl.name
            out.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(out / "spans.npz", names=np.array(tr.names), **tr.span_arrays())
        del tr

    (first, counts, summary), (second, counts2, _) = runs
    attempted += 1
    if counts != counts2:
        diff = sorted(k for k in set(counts) | set(counts2) if counts.get(k) != counts2.get(k))
        failures.append(f"counts differ between traced passes: {diff}")
    # counts are equal in both passes (checked above); times are averaged
    values = {k: (first[k] + second[k]) / 2.0 for k in first}
    values["driver.overhead_ratio"] = overhead_ratio
    traced_s = statistics.mean(s["traced_run_s"] for *_, s in runs)
    values["trace.overhead_frac"] = traced_s / base.seconds - 1.0
    values["trace.uncovered_frac"] = statistics.mean(
        s["uncovered_s"] / s["traced_run_s"] for *_, s in runs)

    log(f"untraced run_s {base.seconds:.6f} s, traced run_s {traced_s:.6f} s (mean of "
        f"{TRACED_PASSES} passes)")
    log("first traced pass, layer self times: " + ", ".join(
        f"{k} {1e3 * v:.1f} ms" for k, v in summary["layer_self_s"].items())
        + f"; uncovered {1e3 * summary['uncovered_s']:.3f} ms; together "
        f"{1e3 * (sum(summary['layer_self_s'].values()) + summary['uncovered_s']):.1f} ms "
        f"= traced run_s {1e3 * summary['traced_run_s']:.1f} ms")
    if summary["plam_sweep_counts"]:
        log("plam sweep (steady state): " + ", ".join(
            f"{k} {v}" for k, v in summary["plam_sweep_counts"].items()))
    log(f"{summary['spans']} spans kept in the first traced pass")
    details = {"untraced_run_s": base.seconds,
               "traced": [s for *_, s in runs],
               "counts": counts}
    ordered = {k: values[k] for k in PER_LAYER_UNITS}
    return ordered, PER_LAYER_UNITS, attempted, failures, details


def main(argv=None) -> int:
    args = parse_args(argv)
    bam = import_bam()
    if bam is None:
        print(f"bam sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    def log(msg):
        print(f"# {msg}", flush=True)

    wl = workloads.make_workloads(OUT_ROOT)[args.workload]
    prov = provenance(args.seed)
    log(f"bam benchmark  workload {args.workload}  seed {args.seed}  trace {args.trace}")
    log("machine " + json.dumps(prov, sort_keys=True))

    inputs = wl.inputs(args.seed)
    if args.trace == 0:
        values, units, attempted, failures, details = end_to_end(wl, inputs, args.seconds, log)
    else:
        values, units, attempted, failures, details = per_layer(wl, inputs, log)

    for name, v in values.items():
        log(f"{name:<44} {v:>16.6f} {units[name]}")
    fail_frac = len(failures) / attempted
    log(f"fail_frac {fail_frac:g} ({len(failures)} of {attempted} checked solves and checks failed)")
    for f in failures:
        log(f"FAILED {f}")

    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    out = OUT_ROOT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "provenance": prov,
              "metrics": metrics, "fail_frac": fail_frac, "failures": failures,
              "details": details}
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
