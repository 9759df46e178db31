import math
from dataclasses import replace

import numpy as np
import pytest

from bam.blockvec import BlockVector
from bam.bregman import make_augmented_generator, make_zero_generator
from bam.diagnostics import (
    check_monotone_descent,
    check_residual_bound,
    check_residual_vanishes,
    check_sufficient_decrease,
    critical_point_certificate,
    estimate_cross_lipschitz,
    finite_length_monitor,
    gradcheck,
    subgradient_residual,
)
from bam.driver import IterateTrace, SolverConfig, SweepRecord, resolve_strategy_preset, run
from bam.errors import ParameterError
from bam.problem import build_separable_quadratic_badgrad

from conftest import mixed_point_corrections


def make_record(k, phi_start, phi_partials, *, step_blocks=(1.0, 1.0), residual=0.0,
                cum_step=0.0, nus=(0.0, 0.0), lips=(0.0, 0.0)):
    return SweepRecord(
        k=k,
        phi_start=phi_start,
        phi_partials=tuple(phi_partials),
        phi_end=phi_partials[-1],
        step_norm_sq_blocks=tuple(step_blocks),
        step_norm_sq=float(sum(step_blocks)),
        bregman_paid=0.0,
        residual=residual,
        cum_step=cum_step,
        inner_flags=("ok", "ok"),
        nu_blocks=tuple(nus),
        lip_blocks=tuple(lips),
    )


def make_trace(phi0, records):
    return IterateTrace(phi0=phi0, block_ids=("y", "z"), records=list(records))


class TestMonotoneDescent:
    def test_flags_increase_with_location_and_size(self):
        trace = make_trace(1.0, [make_record(1, 1.0, (1.5, 1.2))])
        rep = check_monotone_descent(trace)
        assert rep.status == "fail"
        assert rep.worst_violation == pytest.approx(0.5)
        assert rep.worst_iteration == 1

    def test_flags_increase_across_sweeps(self):
        trace = make_trace(
            1.0,
            [make_record(1, 1.0, (0.8, 0.6)), make_record(2, 0.9, (0.5, 0.4))],
        )
        # sweep 2 claims to start at 0.9 > previous end 0.6
        rep = check_monotone_descent(trace)
        assert rep.status == "fail"
        assert rep.worst_iteration == 2

    def test_accepts_weak_decrease_within_slack(self):
        trace = make_trace(1.0, [make_record(1, 1.0, (1.0, 1.0 - 5e-11))])
        assert check_monotone_descent(trace).passed

    def test_empty_trace_inconclusive(self):
        assert check_monotone_descent(make_trace(1.0, [])).status == "inconclusive"

    def test_passes_on_real_runs(self, sep_quad, multiblock):
        cfg = SolverConfig(max_outer_iter=100, residual_tol=1e-10)
        for p, n in ((sep_quad, 2), (multiblock, 4)):
            for preset in ("am", "plam", "aam"):
                res = run(p, resolve_strategy_preset(preset, n), cfg, p.default_x0)
                assert check_monotone_descent(res.trace).passed


class TestSufficientDecrease:
    def test_skipped_for_zero_modulus(self, sep_quad):
        cfg = SolverConfig(max_outer_iter=30)
        res = run(sep_quad, resolve_strategy_preset("am"), cfg, sep_quad.zeros())
        assert check_sufficient_decrease(res.trace).status == "skipped"

    def test_passes_on_aam_run(self, sep_quad):
        cfg = SolverConfig(max_outer_iter=100, residual_tol=1e-10)
        res = run(sep_quad, resolve_strategy_preset("aam"), cfg, sep_quad.zeros())
        rep = check_sufficient_decrease(res.trace)
        assert rep.passed
        assert rep.details["nu_total"] == pytest.approx(1.0)
        assert rep.details["min_observed_ratio"] is not None

    def test_passes_on_plam_run(self, sparse_group):
        cfg = SolverConfig(max_outer_iter=200, residual_tol=0.0, step_tol=1e-10)
        res = run(sparse_group, resolve_strategy_preset("plam"), cfg, sparse_group.default_x0)
        rep = check_sufficient_decrease(res.trace)
        assert rep.passed
        assert min(rep.details["block_nus"]) > 0.0

    def test_fails_when_drop_is_too_small(self):
        # drop 0.5 against nu/2 * step^2 = 1.0
        trace = make_trace(
            2.0,
            [make_record(1, 2.0, (1.8, 1.5), step_blocks=(0.5, 0.5), nus=(2.0, 2.0), lips=(2.0, 2.0))],
        )
        rep = check_sufficient_decrease(trace)
        assert rep.status == "fail"

    def test_honors_explicit_nu_min(self):
        trace = make_trace(
            2.0,
            [make_record(1, 2.0, (1.5, 1.0), step_blocks=(0.5, 0.5), nus=(0.0, 0.0))],
        )
        assert check_sufficient_decrease(trace, nu_min=1.0).passed
        assert check_sufficient_decrease(trace, nu_min=10.0).status == "fail"


class TestSubgradientResidual:
    def test_closed_form_for_one_augmented_sweep(self, sep_quad):
        # alpha = 1 for both blocks; the sweep from the origin solves
        # 2(u-1) + 2u + u = 0 and 2(w+1) - 2(y-w) + w = 0.
        y1, z1 = 0.4, -0.24
        x0 = sep_quad.zeros()
        x1 = BlockVector([("y", [y1]), ("z", [z1])])
        gens = [make_augmented_generator(1.0, 1), make_augmented_generator(1.0, 1)]
        v, norm = subgradient_residual(sep_quad, x1, mixed_point_corrections(sep_quad, x0, x1, gens))
        # block y: grad_y H moved because z changed after y's solve, plus alpha*(y0 - y1)
        assert v[0][0] == pytest.approx(-2.0 * z1 - y1, abs=1e-12)
        # block z: H terms cancel (last block), leaving alpha*(z0 - z1)
        assert v[1][0] == pytest.approx(-z1, abs=1e-12)
        assert norm == pytest.approx(math.hypot(0.08, 0.24), abs=1e-12)

    def test_last_block_exact_step_gives_zero_component(self, sep_quad):
        cfg = SolverConfig(max_outer_iter=1, residual_tol=0.0, step_tol=0.0)
        res = run(sep_quad, resolve_strategy_preset("am"), cfg, sep_quad.zeros())
        x1 = res.final_x
        gens = [make_zero_generator(1), make_zero_generator(1)]
        v, _ = subgradient_residual(
            sep_quad, x1, mixed_point_corrections(sep_quad, sep_quad.zeros(), x1, gens)
        )
        assert v[1][0] == 0.0

    def test_matches_prox_optimality_for_linearized_sweep(self, sep_quad):
        cfg = SolverConfig(max_outer_iter=1, residual_tol=0.0, step_tol=0.0)
        res = run(sep_quad, resolve_strategy_preset("plam"), cfg, sep_quad.zeros())
        y1 = res.final_x.block(0)[0]
        z1 = res.final_x.block(1)[0]
        # residual block i = grad_i H(x1) + (subgradient of f_i at the prox output)
        vy = 2.0 * (y1 - z1) + 2.0 * (y1 - 1.0)
        vz = -2.0 * (y1 - z1) + 2.0 * (z1 + 1.0)
        assert res.trace.records[0].residual == pytest.approx(math.hypot(vy, vz), abs=1e-12)

    def test_vanishes_at_fixed_point(self, sep_quad):
        x = BlockVector([("y", [1 / 3]), ("z", [-1 / 3])])
        gens = [make_augmented_generator(3.0, 1), make_zero_generator(1)]
        _, norm = subgradient_residual(sep_quad, x, mixed_point_corrections(sep_quad, x, x, gens))
        assert norm == pytest.approx(0.0, abs=1e-14)


class TestResidualBound:
    def test_passes_on_linearized_run_with_derived_constant(self, sep_quad):
        cfg = SolverConfig(max_outer_iter=100, residual_tol=1e-10)
        res = run(sep_quad, resolve_strategy_preset("plam"), cfg, sep_quad.zeros())
        rep = check_residual_bound(res.trace, l_cross=sep_quad.metadata["cross_lipschitz"])
        assert rep.passed

    def test_passes_on_sparse_group_run(self, sparse_group):
        cfg = SolverConfig(max_outer_iter=150, residual_tol=0.0, step_tol=0.0)
        res = run(sparse_group, resolve_strategy_preset("plam"), cfg, sparse_group.default_x0)
        rep = check_residual_bound(res.trace, l_cross=sparse_group.metadata["cross_lipschitz"])
        assert rep.passed

    def test_fails_with_too_small_constant(self):
        trace = make_trace(1.0, [make_record(1, 1.0, (0.9, 0.8), residual=1.0)])
        rep = check_residual_bound(trace, l_hat=0.0)
        assert rep.status == "fail"
        assert rep.worst_violation == pytest.approx(1.0, abs=1e-9)

    def test_requires_a_constant(self):
        trace = make_trace(1.0, [make_record(1, 1.0, (0.9, 0.8))])
        with pytest.raises(ParameterError):
            check_residual_bound(trace)


class TestResidualVanishes:
    def test_short_trace_inconclusive(self):
        recs = [make_record(k, 1.0, (0.9, 0.8)) for k in range(1, 11)]
        assert check_residual_vanishes(make_trace(1.0, recs)).status == "inconclusive"

    def test_constant_residual_fails(self):
        recs = [
            make_record(k, 1.0, (0.9, 0.8), step_blocks=(0.0, 0.0), residual=1.0)
            for k in range(1, 31)
        ]
        assert check_residual_vanishes(make_trace(1.0, recs)).status == "fail"

    def test_decaying_residual_passes(self):
        recs = [
            make_record(
                k, 1.0, (0.9, 0.8), step_blocks=(0.5 * 0.5**k, 0.5 * 0.5**k), residual=0.5**k
            )
            for k in range(1, 41)
        ]
        assert check_residual_vanishes(make_trace(1.0, recs), l_hat=2.0).passed

    def test_passes_on_converging_run(self, sep_quad):
        cfg = SolverConfig(max_outer_iter=200, residual_tol=1e-13, step_tol=0.0)
        res = run(sep_quad, resolve_strategy_preset("plam"), cfg, sep_quad.zeros())
        assert len(res.trace.records) >= 20
        assert check_residual_vanishes(res.trace, l_hat=2.0 + 2.0 * math.sqrt(2.0)).passed


class TestCriticalPointCertificate:
    def test_pass_at_minimizer(self, sep_quad):
        x = BlockVector([("y", [1 / 3]), ("z", [-1 / 3])])
        rep = critical_point_certificate(sep_quad, x)
        assert rep.passed
        assert rep.worst_violation <= 1e-10

    def test_fail_away_from_minimizer(self, sep_quad):
        rep = critical_point_certificate(sep_quad, sep_quad.zeros())
        assert rep.status == "fail"
        assert set(rep.details["distances"]) == {"y", "z"}

    def test_origin_is_critical_for_sparse_group(self, sparse_group):
        # both nonsmooth terms hold the zero gradient in their subdifferential
        # at the origin, where the coupling gradient also vanishes
        rep = critical_point_certificate(sparse_group, sparse_group.zeros())
        assert rep.passed

    def test_origin_fails_when_penalty_is_weak(self):
        from bam.problem import build_sparse_group_instance
        from conftest import GROUPS_8x5

        p = build_sparse_group_instance(50, 40, GROUPS_8x5, seed=7, lambda1=0.1, lambda2=0.1)
        x = p.default_x0
        assert critical_point_certificate(p, x).status == "fail"

    def test_non_finite_distance_fails(self, sep_quad):
        nan_grad = lambda x, i: np.array([np.nan])
        p = replace(sep_quad, coupling=replace(sep_quad.coupling, partial_grad=nan_grad))
        rep = critical_point_certificate(p, BlockVector([("y", [1 / 3]), ("z", [-1 / 3])]))
        assert rep.status == "fail"


class TestGradcheck:
    def test_passes_on_builtin_problems(self, sep_quad, sparse_group, multiblock):
        for p in (sep_quad, sparse_group, multiblock):
            assert gradcheck(p, p.default_x0, probes=3).passed

    def test_localizes_a_seeded_gradient_fault(self):
        p = build_separable_quadratic_badgrad()
        rep = gradcheck(p, p.zeros(), probes=5)
        assert rep.status == "fail"
        _, bid, coord = rep.details["worst_location"]
        assert (bid, coord) == ("y", 0)
        # fault magnitude 0.1, scaled down by the relative-error denominator
        assert 0.01 <= rep.worst_violation <= 0.1

    def test_rejects_bad_step(self, sep_quad):
        with pytest.raises(ParameterError):
            gradcheck(sep_quad, sep_quad.zeros(), rel_step=0.0)


class TestFiniteLength:
    def test_empty_trace(self):
        rep = finite_length_monitor(make_trace(1.0, []))
        assert rep.details["total_length"] == 0.0 and not rep.details["plateau"]

    def test_plateau_detected(self):
        cums = [1.0 - 0.5**k for k in range(1, 61)]
        recs = [make_record(k + 1, 1.0, (0.9, 0.8), cum_step=c) for k, c in enumerate(cums)]
        rep = finite_length_monitor(make_trace(1.0, recs))
        assert rep.details["plateau"]
        assert rep.details["total_length"] == pytest.approx(cums[-1])

    def test_linear_growth_is_not_a_plateau(self):
        recs = [make_record(k, 1.0, (0.9, 0.8), cum_step=0.1 * k) for k in range(1, 61)]
        assert not finite_length_monitor(make_trace(1.0, recs)).details["plateau"]

    @pytest.mark.parametrize(
        "cum_step, converged, status",
        [
            (lambda k: 1.0 - 0.5**k, False, "pass"),
            (lambda k: 1.0 - 0.5**k, True, "pass"),
            (lambda k: 0.1 * k, False, "inconclusive"),
            (lambda k: 0.1 * k, True, "fail"),
        ],
        ids=["plateau", "plateau-converged", "no-plateau-unconverged", "no-plateau-converged"],
    )
    def test_status_rule(self, cum_step, converged, status):
        recs = [make_record(k, 1.0, (0.9, 0.8), cum_step=cum_step(k)) for k in range(1, 61)]
        rep = finite_length_monitor(make_trace(1.0, recs), converged=converged)
        assert rep.name == "finite_length" and rep.status == status

    def test_converged_run_plateaus(self, sep_quad):
        cfg = SolverConfig(max_outer_iter=300, residual_tol=1e-13, step_tol=0.0)
        res = run(sep_quad, resolve_strategy_preset("am"), cfg, sep_quad.zeros())
        assert finite_length_monitor(res.trace).details["plateau"]


class TestEstimateCrossLipschitz:
    def test_separable_quadratic(self, sep_quad):
        est = estimate_cross_lipschitz(sep_quad, sep_quad.zeros(), 0, 1, probes=20, seed=0)
        # the true modulus of grad_y H in z is exactly 2; safety factor 1.5
        assert est == pytest.approx(3.0, rel=1e-12)

    def test_same_block_rejected(self, sep_quad):
        with pytest.raises(ParameterError):
            estimate_cross_lipschitz(sep_quad, sep_quad.zeros(), 1, 1)
