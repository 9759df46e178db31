#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs and write ``BENCH_<n>.json``.

Usage, from the root of the changed checkout:

    python tools/bench_pairs.py --parent ../parent --out BENCH_17.json \\
        --title "what the change does" sg-exact:7:10 sg-exact:11:10 sg-plam:7:3

``--parent`` is a checkout of the parent commit. Each ``workload:seed:pairs``
spec runs ``perfbench/run.py --trace 0`` at ``BENCHMARK.json``'s
``run_seconds`` in both checkouts, one run at a time; pair j runs the parent
first when j is even. Each (workload, seed) then gets one ``--trace 1`` run per
side. A run's result is the last line of its standard output, and its
provenance comes from ``.bench_out/<workload>/result-trace<0|1>.json``.

Per end-to-end metric of ``BENCHMARK.json`` the file records both sides'
medians and interquartile ranges, change median over parent median, and the
number of pairs in which the change was better (``pairs_change_better``) and
worse (``pairs_change_worse``); a tie counts for neither. A metric whose parent
IQR over median exceeds the metric's bound is marked ``unresolved`` unless the
two sides' runs do not overlap: when every change run is better than every
parent run, or every one worse, the difference is resolved however wide the
parent's spread; otherwise that spread is too wide to tell a change of the
bound's size from noise. Standard library only; the benchmark's files are read,
never written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INNER_SOLVER_METRICS = (
    "prox.inner_iters_per_call", "prox.converged_frac", "driver.hit_cap", "prox.inner_calls",
    "prox.inner_ms_per_call", "driver.self_us_per_sweep", "problem.oracle_us_per_sweep",
)


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in the checkout ``root``: its result line and provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} in {root} gave no result line:\n{out.stderr}")
    record = json.loads((root / ".bench_out" / workload / f"result-trace{trace}.json").read_text())
    return {"result": json.loads(lines[-1]), "provenance": record["provenance"]}


def iqr(values: list) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric: both medians and IQRs, the ratio, the pairs the change won
    and lost, and whether the parent's spread leaves the difference unresolved."""
    out = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
        change = [c["result"]["metrics"][name]["value"] for _, c in pairs]

        def better(a, b):  # is a better than b
            return a < b if lower else a > b

        row = {"n_pairs": len(pairs),
               "parent_median": statistics.median(parent), "parent_iqr": iqr(parent),
               "change_median": statistics.median(change), "change_iqr": iqr(change)}
        row["change_over_parent"] = row["change_median"] / row["parent_median"]
        row["pairs_change_better"] = sum(better(c, p) for p, c in zip(parent, change))
        row["pairs_change_worse"] = sum(better(p, c) for p, c in zip(parent, change))
        separated = (all(better(c, p) for c in change for p in parent)
                     or all(better(p, c) for c in change for p in parent))
        spread = None if row["parent_iqr"] is None else row["parent_iqr"] / row["parent_median"]
        row["unresolved"] = spread is not None and spread > m["bound"] and not separated
        out[name] = row
    out["all_correct"] = all(r["result"]["correct"] for pair in pairs for r in pair)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--out", required=True, type=Path, help="the BENCH file to write")
    ap.add_argument("--title", required=True, help="one line on what the change does")
    ap.add_argument("specs", nargs="+", help="workload:seed:pairs")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    runs, summary, trace1 = [], {}, {}
    for item in args.specs:
        workload, seed, n_pairs = item.split(":")
        seed, key = int(seed), f"{workload} seed {seed}"
        pairs = []
        for j in range(int(n_pairs)):
            order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
            done = {}
            for side in order:
                done[side] = bench(sides[side], workload, seed, seconds, 0)
                runs.append({"workload": workload, "seed": seed, "side": side, "pair": j, **done[side]})
                print(f"{key} pair {j} {side}: "
                      f"{done[side]['result']['metrics']['run_per_sweep_ref']['value']:.4g}",
                      file=sys.stderr, flush=True)
            pairs.append((done["parent"], done["change"]))
        summary[key] = summarize(pairs, spec["end_to_end"])
        trace1[key] = {side: bench(sides[side], workload, seed, seconds, 1) for side in sides}

    change_prov = next(r["provenance"] for r in runs if r["side"] == "change")
    parent_prov = next(r["provenance"] for r in runs if r["side"] == "parent")
    machine = {k: v for k, v in change_prov.items()
               if k not in ("source_sha256", "git_commit", "seed")}
    bench_file = {
        "title": args.title,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace <0|1>",
        "parent": f"{parent_prov['git_commit']} (parent commit), sources sha256 "
                  f"{parent_prov['source_sha256']}",
        "change": f"the working tree of this change, sources sha256 {change_prov['source_sha256']}",
        "order": "pairs alternate which side runs first (even pair: parent first); one run at "
                 "a time; then one --trace 1 run per side; " + ", ".join(args.specs)
                 + " (workload:seed:pairs)",
        "machine": machine,
        "summary": summary,
        "trace1_inner_solver": {
            key: {side: {m: r["result"]["metrics"][m]["value"] for m in INNER_SOLVER_METRICS
                         if m in r["result"]["metrics"]} for side, r in sides_runs.items()}
            for key, sides_runs in trace1.items()
        },
        "trace1": trace1,
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench_file, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
