import math
from dataclasses import replace

import numpy as np
import pytest

from bam.blockvec import BlockVector
from bam.bregman import make_augmented_generator, make_zero_generator
from bam.diagnostics import (
    CHECKS,
    SAFETY,
    check_declared_lipschitz,
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
from bam.problem import (
    build_multiblock_quadratic,
    build_separable_quadratic_badgrad,
    build_sparse_group_instance,
)

from conftest import make_underdeclared_problem, mixed_point_corrections


def make_record(k, phi_partials, *, step_blocks=(1.0, 1.0), residual=0.0,
                cum_step=0.0, nus=(0.0, 0.0), lips=(0.0, 0.0)):
    return SweepRecord(
        k=k,
        phi_partials=tuple(phi_partials),
        step_norm_sq_blocks=tuple(step_blocks),
        bregman_paid=0.0,
        residual=residual,
        cum_step=cum_step,
        inner_flags=("ok", "ok"),
        nu_blocks=tuple(nus),
        lip_blocks=tuple(lips),
    )


def make_trace(phi0, records):
    return IterateTrace(phi0=phi0, records=list(records))


class TestMonotoneDescent:
    def test_flags_increase_with_location_and_size(self):
        trace = make_trace(1.0, [make_record(1, (1.5, 1.2))])
        rep = check_monotone_descent(trace)
        assert rep.status == "fail"
        assert rep.worst_violation == pytest.approx(0.5)
        assert rep.worst_iteration == 1

    def test_flags_increase_across_sweeps(self):
        trace = make_trace(
            1.0,
            [make_record(1, (0.8, 0.6)), make_record(2, (0.9, 0.4))],
        )
        # sweep 2's first block rises to 0.9 above sweep 1's end 0.6
        rep = check_monotone_descent(trace)
        assert rep.status == "fail"
        assert rep.worst_iteration == 2

    def test_accepts_weak_decrease_within_slack(self):
        trace = make_trace(1.0, [make_record(1, (1.0, 1.0 - 5e-11))])
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
            [make_record(1, (1.8, 1.5), step_blocks=(0.5, 0.5), nus=(2.0, 2.0), lips=(2.0, 2.0))],
        )
        rep = check_sufficient_decrease(trace)
        assert rep.status == "fail"


class TestSubgradientResidual:
    def test_closed_form_for_one_augmented_sweep(self, sep_quad):
        # alpha = 1 for both blocks; the sweep from the origin solves
        # 2(u-1) + 2u + u = 0 and 2(w+1) - 2(y-w) + w = 0.
        y1, z1 = 0.4, -0.24
        x0 = sep_quad.zeros()
        x1 = BlockVector([("y", [y1]), ("z", [z1])])
        gens = [make_augmented_generator(1.0), make_augmented_generator(1.0)]
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
        gens = [make_zero_generator(), make_zero_generator()]
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
        gens = [make_augmented_generator(3.0), make_zero_generator()]
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

    def test_estimates_l_cross_without_metadata(self, sep_quad):
        # with no cross_lipschitz metadata the battery estimates l_cross over every
        # block pair: SAFETY times the exact cross ratio 2 of H = (y - z)^2
        metadata = {k: v for k, v in sep_quad.metadata.items() if k != "cross_lipschitz"}
        p = replace(sep_quad, metadata=metadata)
        cfg = SolverConfig(max_outer_iter=200, residual_tol=1e-10)
        res = run(p, resolve_strategy_preset("am"), cfg, p.zeros())
        assert res.status == "residual-converged"
        rep = CHECKS["residual_bound"](p, res, p.zeros())
        assert rep.details["l_cross"] == pytest.approx(SAFETY * 2.0, abs=1e-12)
        assert rep.status == "pass"

    @pytest.mark.parametrize("preset", ["plam", "am"])
    def test_reports_the_largest_inner_error_against_the_step(self, sparse_group, preset):
        """plam runs no inner solver, so its ratio is 0; am's is the largest
        sum_i ||e_i|| / ||step|| over the sweeps."""
        cfg = SolverConfig(max_outer_iter=10, residual_tol=0.0, step_tol=0.0)
        res = run(sparse_group, resolve_strategy_preset(preset), cfg, sparse_group.default_x0)
        rep = check_residual_bound(res.trace, l_cross=sparse_group.metadata["cross_lipschitz"])
        assert rep.passed
        expected = max(sum(r.inner_errors) / math.sqrt(r.step_norm_sq) for r in res.trace.records)
        assert rep.details["max_inner_error_ratio"] == expected
        assert (expected == 0.0) == (preset == "plam")

    def test_fails_with_too_small_constant(self):
        # l_cross 0 and generator Lipschitz constants 0 give L_hat = 0
        trace = make_trace(1.0, [make_record(1, (0.9, 0.8), residual=1.0)])
        rep = check_residual_bound(trace, l_cross=0.0)
        assert rep.status == "fail"
        assert rep.worst_violation == pytest.approx(1.0, abs=1e-9)


class TestResidualVanishes:
    def test_short_trace_inconclusive(self):
        recs = [make_record(k, (0.9, 0.8)) for k in range(1, 11)]
        assert check_residual_vanishes(make_trace(1.0, recs), l_cross=1.0).status == "inconclusive"

    def test_constant_residual_fails(self):
        recs = [
            make_record(k, (0.9, 0.8), step_blocks=(0.0, 0.0), residual=1.0)
            for k in range(1, 31)
        ]
        assert check_residual_vanishes(make_trace(1.0, recs), l_cross=1.0).status == "fail"

    def test_l_cross_is_required(self):
        trace = make_trace(1.0, [make_record(k, (0.9, 0.8)) for k in range(1, 31)])
        with pytest.raises(TypeError):
            check_residual_vanishes(trace)

    def test_decaying_residual_passes(self):
        recs = [
            make_record(k, (0.9, 0.8), step_blocks=(0.5 * 0.5**k, 0.5 * 0.5**k), residual=0.5**k)
            for k in range(1, 41)
        ]
        # generator constants 0, so L_hat = sqrt(2) * l_cross = 2
        rep = check_residual_vanishes(make_trace(1.0, recs), l_cross=math.sqrt(2.0))
        assert rep.passed and rep.details["l_hat"] == pytest.approx(2.0)

    def test_passes_on_converging_run(self, sep_quad):
        cfg = SolverConfig(max_outer_iter=200, residual_tol=1e-13, step_tol=0.0)
        res = run(sep_quad, resolve_strategy_preset("plam"), cfg, sep_quad.zeros())
        assert len(res.trace.records) >= 20
        rep = check_residual_vanishes(res.trace, l_cross=sep_quad.metadata["cross_lipschitz"])
        assert rep.passed


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
            assert gradcheck(p, p.default_x0).passed

    def test_rounding_excuses_only_coordinates_that_would_fail(self):
        """On sparse_group with A 300x400, H at the probes is about 1e5, and its
        rounding moves a few difference quotients on small gradients by more
        than the tolerance (a check without the rounding rule reads fail here,
        worst 2.3e-6). Only those are unresolved: every other coordinate is
        judged, all pass, and the check reads inconclusive, not fail."""
        p = build_sparse_group_instance(400, 300, [list(range(k, k + 5)) for k in range(0, 300, 5)],
                                        seed=7)
        rep = gradcheck(p, p.default_x0)
        assert rep.status == "inconclusive" and rep.note
        assert 0.0 < rep.worst_violation <= rep.details["tol"]

    def test_localizes_a_seeded_gradient_fault(self):
        p = build_separable_quadratic_badgrad()
        rep = gradcheck(p, p.zeros())
        assert rep.status == "fail"
        _, bid, coord = rep.details["worst_location"]
        assert (bid, coord) == ("y", 0)
        # fault magnitude 0.1, scaled down by the relative-error denominator
        assert 0.01 <= rep.worst_violation <= 0.1


class TestFiniteLength:
    def test_empty_trace(self):
        rep = finite_length_monitor(make_trace(1.0, []))
        assert rep.details["total_length"] == 0.0 and not rep.details["plateau"]

    def test_plateau_detected(self):
        cums = [1.0 - 0.5**k for k in range(1, 61)]
        recs = [make_record(k + 1, (0.9, 0.8), cum_step=c) for k, c in enumerate(cums)]
        rep = finite_length_monitor(make_trace(1.0, recs))
        assert rep.details["plateau"]
        assert rep.details["total_length"] == pytest.approx(cums[-1])

    def test_linear_growth_is_not_a_plateau(self):
        recs = [make_record(k, (0.9, 0.8), cum_step=0.1 * k) for k in range(1, 61)]
        assert not finite_length_monitor(make_trace(1.0, recs)).details["plateau"]

    @pytest.mark.parametrize(
        "cum_step, converged, n, status",
        [
            (lambda k: 1.0 - 0.5**k, False, 60, "pass"),
            (lambda k: 1.0 - 0.5**k, True, 60, "pass"),
            (lambda k: 0.1 * k, False, 60, "inconclusive"),
            (lambda k: 0.1 * k, True, 60, "fail"),
            (lambda k: 0.1 * k, True, 1, "inconclusive"),
        ],
        ids=["plateau", "plateau-converged", "no-plateau-unconverged", "no-plateau-converged",
             "one-record-converged"],
    )
    def test_status_rule(self, cum_step, converged, n, status):
        recs = [make_record(k, (0.9, 0.8), cum_step=cum_step(k)) for k in range(1, n + 1)]
        rep = finite_length_monitor(make_trace(1.0, recs), converged=converged)
        assert rep.name == "finite_length" and rep.status == status
        assert (rep.note != "") == (n < 2)

    def test_converged_run_plateaus(self, sep_quad):
        cfg = SolverConfig(max_outer_iter=300, residual_tol=1e-13, step_tol=0.0)
        res = run(sep_quad, resolve_strategy_preset("am"), cfg, sep_quad.zeros())
        assert finite_length_monitor(res.trace).details["plateau"]


class TestEstimateCrossLipschitz:
    def test_separable_quadratic(self, sep_quad):
        est = estimate_cross_lipschitz(sep_quad, sep_quad.zeros(), 0, 1)
        # the true modulus of grad_y H in z is exactly 2; safety factor 1.5
        assert est == pytest.approx(3.0, rel=1e-12)

    def test_same_block_rejected(self, sep_quad):
        with pytest.raises(ParameterError):
            estimate_cross_lipschitz(sep_quad, sep_quad.zeros(), 1, 1)


class TestDeclaredLipschitz:
    def test_fails_on_an_underdeclared_constant(self):
        # true modulus 10 (estimate 15 = 10 * SAFETY) against a declared 1
        p = make_underdeclared_problem()
        for i, bid in enumerate(p.block_ids):
            rep = check_declared_lipschitz(p, p.default_x0, i)
            assert (rep.name, rep.status) == (f"lipschitz_declared[{bid}]", "fail")
            assert rep.details == {"declared": 1.0, "observed": pytest.approx(10.0, rel=1e-12)}
            assert rep.worst_violation == pytest.approx(9.0, rel=1e-12)

    def test_probe_gradients_whose_squares_overflow_still_decide(self, recwarn):
        """With 5e153 on A's diagonal the y probe gradients are finite (near
        1e307) but their difference's squares are not: its norm is taken
        scaled, the ratio is finite, and the declared L1 = 5e307 passes."""
        A = np.array([[5e153, 1.0], [1.0, 5e153], [1.0, 1.0]])
        p = build_sparse_group_instance(2, 3, [[0], [1], [2]], a_matrix=A)
        rep = check_declared_lipschitz(p, p.default_x0, 0)
        assert (rep.status, rep.note) == ("pass", "")
        assert rep.details["observed"] == pytest.approx(5e307, rel=1e-9)
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    def test_passes_on_the_builtin_problems(self, sep_quad, sparse_group, multiblock):
        # the 16-block instance reads a few ulps above its exact declared constants
        mb16 = build_multiblock_quadratic(16, seed=7)
        for p in (sep_quad, sparse_group, multiblock, mb16):
            for i in range(p.n_blocks):
                rep = check_declared_lipschitz(p, p.default_x0, i)
                assert rep.passed, (p.name, rep)
                assert rep.details["observed"] <= rep.details["declared"] * (1.0 + 1e-9)
