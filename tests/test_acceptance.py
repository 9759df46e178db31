"""End-to-end acceptance suite.

Runs all five update schemes on all three built-in problems once (shared
session fixture, wall-clock budget enforced), then checks each guarantee the
library advertises. Every criterion prints one PASS/FAIL line.
"""

import functools
import json
import time

import numpy as np
import pytest

import bam.driver as driver
from bam.cli import main as cli_main
from bam.diagnostics import (
    check_monotone_descent,
    check_residual_bound,
    check_residual_vanishes,
    check_sufficient_decrease,
    gradcheck,
)
from bam.driver import SolverConfig, resolve_strategy_preset, run
from bam.problem import build_separable_quadratic_badgrad, phi_value
from bam.prox import group_soft_threshold, soft_threshold

from conftest import grid_min_1d, grid_min_2d_two_stage

PRESETS = ("am", "plam", "aam", "am-plam", "plam-am")

# per-problem solver settings sized so each run both exercises the scheme and
# leaves enough recorded sweeps for the trend checks
SEP_QUAD_CFG = SolverConfig(max_outer_iter=300, residual_tol=1e-13, step_tol=0.0)
SPARSE_FAST_CFG = SolverConfig(max_outer_iter=5000, residual_tol=1e-8, step_tol=0.0)
SPARSE_EXACT_CFG = SolverConfig(
    max_outer_iter=25, residual_tol=1e-8, step_tol=0.0, inner_tol=1e-8, inner_max_iter=1500
)
MULTIBLOCK_CFG = SolverConfig(max_outer_iter=2000, residual_tol=1e-10, step_tol=0.0)


def criterion(n, label):
    """Print one ACCEPTANCE line per criterion, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {n} ({label}): PASS")

        return wrapper

    return deco


def solver_cfg_for(problem_name, preset):
    if problem_name == "separable_quadratic":
        return SEP_QUAD_CFG
    if problem_name == "sparse_group":
        return SPARSE_FAST_CFG if preset in ("plam", "plam-am") else SPARSE_EXACT_CFG
    return MULTIBLOCK_CFG


@pytest.fixture(scope="session")
def suite(sep_quad, sparse_group, multiblock):
    """All 15 preset/problem runs plus the total wall-clock time."""
    problems = {p.name: p for p in (sep_quad, sparse_group, multiblock)}
    results = {}
    t0 = time.perf_counter()
    for p in problems.values():
        for preset in PRESETS:
            strategies = resolve_strategy_preset(preset, p.n_blocks)
            cfg = solver_cfg_for(p.name, preset)
            results[(p.name, preset)] = run(p, strategies, cfg, p.default_x0)
    elapsed = time.perf_counter() - t0
    return {"problems": problems, "results": results, "elapsed": elapsed}


@criterion(1, "per-sweep descent chain on all presets and problems")
def test_acceptance_01_descent(suite):
    for (pname, preset), res in suite["results"].items():
        rep = check_monotone_descent(res.trace)
        assert rep.passed, f"{pname}/{preset}: worst violation {rep.worst_violation}"
    assert suite["elapsed"] < 10.0, f"runs took {suite['elapsed']:.2f}s"


@criterion(2, "sufficient decrease where the generators are strongly convex")
def test_acceptance_02_sufficient_decrease(suite):
    for (pname, preset), res in suite["results"].items():
        rep = check_sufficient_decrease(res.trace)
        if preset == "am":
            assert rep.status == "skipped", f"{pname}/am: {rep.status}"
        else:
            assert rep.passed, f"{pname}/{preset}: worst violation {rep.worst_violation}"


@criterion(3, "generic engine reproduces hand-coded linearized updates")
def test_acceptance_03_generator_equivalence(sparse_group):
    p = sparse_group
    A = p.metadata["A"]
    groups = p.metadata["groups"]
    lam1, lam2 = p.metadata["lambda1"], p.metadata["lambda2"]
    a1 = 1.1 * p.metadata["L1"]
    a2 = 1.1 * p.metadata["L2"]

    # reference implementation: plain prox-gradient sweeps written out by hand
    hand = []
    y = p.default_x0.block(0).copy()
    z = p.default_x0.block(1).copy()
    for _ in range(100):
        y = soft_threshold(y - 2.0 * (A.T @ (A @ y - z)) / a1, lam1 / a1)
        z = group_soft_threshold(z + 2.0 * (A @ y - z) / a2, groups, lam2 / a2)
        hand.append(np.concatenate([y, z]))

    engine = []
    cfg = SolverConfig(max_outer_iter=100, residual_tol=0.0, step_tol=0.0)
    run(
        p,
        resolve_strategy_preset("plam"),
        cfg,
        p.default_x0,
        callback=lambda k, x: engine.append(x.to_flat()),
    )

    assert len(engine) == 100
    worst = max(float(np.max(np.abs(h - e))) for h, e in zip(hand, engine))
    assert worst <= 1e-12, f"max per-iterate deviation {worst}"


@criterion(4, "exact alternating minimization reaches the known minimizers")
def test_acceptance_04_exact_convergence(suite):
    sep = suite["problems"]["separable_quadratic"]
    res = suite["results"][("separable_quadratic", "am")]
    assert res.sweeps <= 200
    np.testing.assert_allclose(res.final_x.to_flat(), [1 / 3, -1 / 3], atol=1e-8)
    assert phi_value(sep, res.final_x) == pytest.approx(4.0 / 3.0, abs=1e-8)

    multi = suite["problems"]["multiblock_quadratic"]
    res = suite["results"][("multiblock_quadratic", "am")]
    np.testing.assert_allclose(res.final_x.to_flat(), multi.metadata["minimizer"], atol=1e-8)


def test_exact_sparse_group_steps_rarely_hit_the_inner_cap(suite):
    """The y block of sparse_group has no closed form, so am, aam and am-plam
    solve it with the inner solver: 75 solves, none of them capped."""
    capped = 0
    for preset in ("am", "aam", "am-plam"):
        res = suite["results"][("sparse_group", preset)]
        assert (res.status, res.sweeps) == ("max-iter", SPARSE_EXACT_CFG.max_outer_iter), preset
        capped += sum(r.inner_flags[0] == "hit-cap" for r in res.trace.records)
    assert capped == 0


def test_exact_sparse_group_y_solves_stop_on_the_relative_rule(sparse_group, monkeypatch):
    """The 75 y solves of those runs stop once their error is small against
    the step: at most 150 gradients per solve on average, the extra one for
    the certificate included (about 54; the absolute inner_tol alone needs
    about 513)."""
    inner, grads = driver.inner_exact_min, []

    def counting(smooth_value, smooth_grad, *args, **kwargs):
        grads.append(0)

        def grad(u):
            grads[-1] += 1
            return smooth_grad(u)

        return inner(smooth_value, grad, *args, **kwargs)

    monkeypatch.setattr(driver, "inner_exact_min", counting)
    for preset in ("am", "aam", "am-plam"):
        run(sparse_group, resolve_strategy_preset(preset), SPARSE_EXACT_CFG, sparse_group.default_x0)
    assert len(grads) == 75
    assert sum(grads) / len(grads) <= 150


@criterion(5, "prox maps agree with grid brute force on 100 seeded cases each")
def test_acceptance_05_prox_oracles():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        v = float(rng.uniform(-3, 3))
        tau = float(rng.uniform(0.05, 2.0))
        got = soft_threshold(np.array([v]), tau)[0]
        ref = grid_min_1d(lambda u: tau * np.abs(u) + 0.5 * (u - v) ** 2)
        assert abs(got - ref) <= 1e-3

    for _ in range(100):
        v = rng.uniform(-3, 3, size=2)
        tau = float(rng.uniform(0.05, 2.0))
        got = group_soft_threshold(v, [[0, 1]], tau)
        ref = grid_min_2d_two_stage(
            lambda U: tau * np.linalg.norm(U, axis=-1) + 0.5 * np.sum((U - v) ** 2, axis=-1)
        )
        assert float(np.max(np.abs(got - ref))) <= 1e-3


@criterion(6, "residual bounded by the analytic step-length constant")
def test_acceptance_06_residual_bound(sep_quad):
    alpha = 1.0  # augmented preset weight
    cfg = SolverConfig(max_outer_iter=200, residual_tol=0.0, step_tol=0.0)
    res = run(sep_quad, resolve_strategy_preset("aam"), cfg, sep_quad.zeros())
    # the run spans 200 sweeps unless the residual hits exactly zero first
    assert res.sweeps == 200 or res.trace.records[-1].residual == 0.0
    # every sweep's generators have Lipschitz constant alpha, so with the cross
    # constant 2 the bound checked is L_hat = sqrt(2) * (2 + alpha)
    assert all(rec.lip_blocks == (alpha, alpha) for rec in res.trace.records)
    rep = check_residual_bound(res.trace, l_cross=2.0)
    assert rep.passed, f"worst violation {rep.worst_violation} at sweep {rep.worst_iteration}"


@criterion(7, "residual trends to zero on every convergent run")
def test_acceptance_07_residual_vanishes(suite):
    for (pname, preset), res in suite["results"].items():
        if res.status != "residual-converged":
            continue
        p = suite["problems"][pname]
        rep = check_residual_vanishes(res.trace, l_cross=p.metadata["cross_lipschitz"])
        assert rep.passed, f"{pname}/{preset}: {rep.status} {rep.details}"
    for preset in ("plam", "plam-am"):
        res = suite["results"][("sparse_group", preset)]
        assert res.status == "residual-converged"
        assert res.sweeps <= 5000
        assert res.trace.records[-1].residual <= 1e-8


@criterion(8, "criticality certificate holds at every converged endpoint")
def test_acceptance_08_certificate(suite):
    converged = 0
    for (pname, preset), res in suite["results"].items():
        if res.status != "residual-converged":
            continue
        converged += 1
        assert res.certificate.passed, f"{pname}/{preset}: {res.certificate.details}"
    assert converged >= 12  # every run except the capped exact sparse-group ones


@criterion(9, "gradient validation passes, and a seeded fault is localized")
def test_acceptance_09_gradcheck(suite):
    for p in suite["problems"].values():
        rep = gradcheck(p, p.default_x0)
        assert rep.passed, f"{p.name}: worst {rep.worst_violation} at {rep.details}"
    bad = build_separable_quadratic_badgrad()
    rep = gradcheck(bad, bad.zeros())
    assert rep.status == "fail"
    _, block_id, coord = rep.details["worst_location"]
    assert (block_id, coord) == ("y", 0)


@criterion(10, "identical configurations produce byte-identical traces")
def test_acceptance_10_determinism(tmp_path):
    cfg = {
        "problem": {
            "name": "sparse_group",
            "parameters": {"n1": 50, "n2": 40, "group_size": 5},
            "seed": 7,
        },
        "preset": "plam",
        "solver": {"max_outer_iter": 200, "residual_tol": 0.0, "step_tol": 0.0},
    }
    traces = []
    for sub in ("first", "second"):
        d = tmp_path / sub
        d.mkdir()
        cfg_path = d / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["run", str(cfg_path), "--out-dir", str(d), "--quiet"]) == 0
        traces.append((d / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
