from dataclasses import replace

import numpy as np
import pytest

from bam.blockvec import BlockVector, norm_sq
from bam.bregman import make_augmented_generator
from bam.driver import (
    AlphaRule,
    BlockStrategy,
    SolverConfig,
    resolve_strategy_preset,
    run,
    step_block,
    validate_strategies,
)
from bam.errors import ConfigurationError, ParameterError
from bam.problem import BlockTerm, CouplingOracle, Problem, phi_value

from conftest import grid_min_1d


def make_unbounded_problem(prox):
    """Two decoupled scalar blocks with concave terms f(u) = -u^2."""
    coupling = CouplingOracle(
        value=lambda x: 0.0,
        partial_grad=lambda x, i: np.zeros(1),
        partial_lipschitz=lambda x, i: 0.0,
    )
    term = BlockTerm(value=lambda u: -float(u @ u), prox=prox)
    return Problem(
        name="unbounded",
        coupling=coupling,
        terms=(term, term),
        block_ids=("a", "b"),
        block_dims=(1, 1),
        default_x0=BlockVector([("a", [1.0]), ("b", [1.0])]),
    )


def make_bad_prox_problem():
    """Convex terms f(u) = u^2 with a deliberately broken prox that always moves uphill."""
    p = make_unbounded_problem(lambda v, tau: v + np.array([10.0]))
    term = BlockTerm(value=lambda u: float(u @ u), prox=lambda v, tau: v + np.array([10.0]))
    return Problem(
        name="badprox",
        coupling=p.coupling,
        terms=(term, term),
        block_ids=p.block_ids,
        block_dims=p.block_dims,
        default_x0=p.default_x0,
    )


class TestStepBlock:
    def test_exact_step_on_separable_quadratic(self, sep_quad):
        cfg = SolverConfig()
        new, gen, flag = step_block(sep_quad, sep_quad.zeros(), 0, BlockStrategy("exact"), 1, cfg)
        assert new[0] == pytest.approx(0.5, abs=1e-14)
        assert gen.label == "zero"
        assert flag == "ok"

    def test_linearized_step_matches_grid_oracle(self, sep_quad):
        cfg = SolverConfig()
        strat = BlockStrategy("linearized", AlphaRule("constant", 4.0))
        new, gen, flag = step_block(sep_quad, sep_quad.zeros(), 0, strat, 1, cfg)
        # subproblem: (u - 1)^2 + <grad_y H(0,0), u> + (4/2) u^2 with zero gradient
        ref = grid_min_1d(lambda u: (u - 1) ** 2 + 2.0 * u**2)
        assert new[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert new[0] == pytest.approx(ref, abs=1e-4)
        assert flag == "ok"

    def test_fixed_point_gives_zero_step(self, sep_quad):
        cfg = SolverConfig()
        x = BlockVector([("y", [1 / 3]), ("z", [-1 / 3])])
        for kind, rule in [
            ("exact", None),
            ("augmented", AlphaRule("constant", 1.0)),
            ("linearized", AlphaRule("lipschitz_factor", 1.1)),
        ]:
            new, _, _ = step_block(sep_quad, x, 0, BlockStrategy(kind, rule), 1, cfg)
            assert new[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_augmented_step_closed_form(self, sep_quad):
        # y-update with alpha = 2: minimize (u-1)^2 + (u-z)^2 + (u-y_k)^2
        cfg = SolverConfig()
        strat = BlockStrategy("augmented", AlphaRule("constant", 2.0))
        new, gen, _ = step_block(sep_quad, sep_quad.zeros(), 0, strat, 1, cfg)
        assert new[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert gen.modulus_nu == pytest.approx(2.0)

    def test_linearized_rejects_alpha_at_or_below_lipschitz(self, sep_quad):
        cfg = SolverConfig()
        strat = BlockStrategy("linearized", AlphaRule("constant", 2.0))
        with pytest.raises(ConfigurationError):
            step_block(sep_quad, sep_quad.zeros(), 0, strat, 1, cfg)

    def test_ascent_step_is_rejected(self):
        p = make_bad_prox_problem()
        cfg = SolverConfig()
        strat = BlockStrategy("linearized", AlphaRule("constant", 1.0))
        new, _, flag = step_block(p, p.default_x0, 0, strat, 1, cfg)
        assert flag == "ascent-rejected"
        np.testing.assert_array_equal(new, p.default_x0.block(0))

    def test_rejected_ascent_is_reported_in_the_sweep_record(self):
        p = make_bad_prox_problem()
        strat = BlockStrategy("linearized", AlphaRule("constant", 1.0))
        res = run(p, [strat, strat], SolverConfig(max_outer_iter=1), p.default_x0)
        assert res.trace.records[-1].inner_flags == ("ascent-rejected", "ascent-rejected")
        assert res.trace.records[-1].inner_flag == "ascent-rejected"
        mixed = replace(
            res.trace.records[-1], inner_flags=("hit-cap", "ok", "ascent-rejected", "hit-cap")
        )
        assert mixed.inner_flag == "hit-cap+ascent-rejected"
        assert replace(mixed, inner_flags=("ok", "converged")).inner_flag == "ok"


class TestPresets:
    def test_known_names(self):
        assert [s.kind for s in resolve_strategy_preset("am", 3)] == ["exact"] * 3
        assert [s.kind for s in resolve_strategy_preset("plam", 2)] == ["linearized"] * 2
        assert [s.kind for s in resolve_strategy_preset("aam", 2)] == ["augmented"] * 2
        assert [s.kind for s in resolve_strategy_preset("am-plam", 4)] == [
            "exact", "linearized", "linearized", "linearized",
        ]
        assert [s.kind for s in resolve_strategy_preset("plam-am", 4)] == [
            "linearized", "exact", "exact", "exact",
        ]

    def test_plam_rule(self):
        s = resolve_strategy_preset("plam")[0]
        assert s.alpha_rule == AlphaRule("lipschitz_factor", 1.1)

    def test_unknown_and_custom(self):
        with pytest.raises(ConfigurationError):
            resolve_strategy_preset("nope")
        with pytest.raises(ConfigurationError):
            resolve_strategy_preset("custom")


class TestValidation:
    def test_wrong_strategy_count(self, sep_quad):
        with pytest.raises(ConfigurationError):
            validate_strategies(sep_quad, [BlockStrategy("exact")], sep_quad.zeros())

    def test_linearized_gamma_must_exceed_one(self, sep_quad):
        strat = BlockStrategy("linearized", AlphaRule("lipschitz_factor", 0.9))
        with pytest.raises(ConfigurationError, match="convexity"):
            validate_strategies(sep_quad, [strat, strat], sep_quad.zeros())

    def test_linearized_constant_must_exceed_lipschitz(self, sep_quad):
        strat = BlockStrategy("linearized", AlphaRule("constant", 1.5))
        with pytest.raises(ConfigurationError, match="convexity"):
            validate_strategies(sep_quad, [strat, strat], sep_quad.zeros())

    def test_linearized_needs_rule(self, sep_quad):
        strat = BlockStrategy("linearized")
        with pytest.raises(ConfigurationError, match="alpha rule"):
            validate_strategies(sep_quad, [strat, strat], sep_quad.zeros())

    def test_custom_needs_factory(self, sep_quad):
        strat = BlockStrategy("custom")
        with pytest.raises(ConfigurationError, match="factory"):
            validate_strategies(sep_quad, [strat, strat], sep_quad.zeros())

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            BlockStrategy("sgd")

    def test_alpha_rule_validation(self):
        with pytest.raises(ParameterError):
            AlphaRule("constant", 0.0)
        with pytest.raises(ParameterError):
            AlphaRule("ratio", 1.0)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(max_outer_iter=0)
        with pytest.raises(ParameterError):
            SolverConfig(residual_tol=-1.0)
        with pytest.raises(ParameterError):
            SolverConfig(record_every=0)

    def test_x0_structure_mismatch(self, sep_quad, multiblock):
        cfg = SolverConfig(max_outer_iter=1)
        with pytest.raises(ConfigurationError):
            run(sep_quad, resolve_strategy_preset("am"), cfg, multiblock.zeros())


@pytest.mark.parametrize("preset", ["am", "plam", "aam", "am-plam", "plam-am"])
def test_all_presets_reach_separable_quadratic_minimizer(sep_quad, preset):
    cfg = SolverConfig(max_outer_iter=500, residual_tol=1e-10, step_tol=1e-14)
    res = run(sep_quad, resolve_strategy_preset(preset), cfg, sep_quad.zeros())
    assert res.status == "residual-converged"
    np.testing.assert_allclose(res.final_x.to_flat(), [1 / 3, -1 / 3], atol=1e-6)
    assert phi_value(sep_quad, res.final_x) == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert res.certificate.passed


def test_am_first_sweep_closed_form(sep_quad):
    cfg = SolverConfig(max_outer_iter=1, residual_tol=0.0, step_tol=0.0)
    res = run(sep_quad, resolve_strategy_preset("am"), cfg, sep_quad.zeros())
    assert res.final_x.block(0)[0] == pytest.approx(0.5, abs=1e-14)
    assert res.final_x.block(1)[0] == pytest.approx(-0.25, abs=1e-14)
    rec = res.trace.records[0]
    assert rec.phi_start == pytest.approx(2.0)
    assert rec.phi_half == pytest.approx(phi_value(sep_quad, sep_quad.zeros().with_block(0, [0.5])))
    assert rec.phi_end == pytest.approx(phi_value(sep_quad, res.final_x))


def test_starting_at_critical_point_stops_immediately(sep_quad):
    x_star = BlockVector([("y", [1 / 3]), ("z", [-1 / 3])])
    cfg = SolverConfig(max_outer_iter=50)
    res = run(sep_quad, resolve_strategy_preset("am"), cfg, x_star)
    assert res.sweeps == 1
    assert res.status in ("residual-converged", "step-converged")
    assert res.certificate.passed


def test_trace_invariants(multiblock):
    cfg = SolverConfig(max_outer_iter=200, residual_tol=1e-10)
    res = run(multiblock, resolve_strategy_preset("am-plam", 4), cfg, multiblock.default_x0)
    trace = res.trace
    phis = trace.phi_series()
    assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))
    ks = [r.k for r in trace.records]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    cums = [r.cum_step for r in trace.records]
    assert all(b >= a for a, b in zip(cums, cums[1:]))
    for r in trace.records:
        assert len(r.phi_partials) == 4
        assert len(r.step_norm_sq_blocks) == 4
        assert r.step_norm_sq == pytest.approx(sum(r.step_norm_sq_blocks))
        assert r.bregman_paid >= -1e-12
        assert r.residual >= 0.0


def test_record_every_keeps_final_sweep(multiblock):
    cfg = SolverConfig(max_outer_iter=17, residual_tol=0.0, step_tol=0.0, record_every=5)
    res = run(multiblock, resolve_strategy_preset("am", 4), cfg, multiblock.default_x0)
    assert [r.k for r in res.trace.records] == [5, 10, 15, 17]
    assert res.status == "max-iter"


def test_callback_sees_every_sweep(sep_quad):
    seen = []
    cfg = SolverConfig(max_outer_iter=10, residual_tol=0.0, step_tol=0.0)
    res = run(
        sep_quad,
        resolve_strategy_preset("am"),
        cfg,
        sep_quad.zeros(),
        callback=lambda k, x: seen.append((k, phi_value(sep_quad, x))),
    )
    assert [k for k, _ in seen] == list(range(1, 11))
    assert seen[-1][1] == pytest.approx(phi_value(sep_quad, res.final_x))


def test_custom_strategy_matches_augmented_preset(sep_quad):
    factory = lambda k, x, i: make_augmented_generator(1.0, x.block(i).size)
    custom = [
        BlockStrategy("custom", generator_factory=factory),
        BlockStrategy("custom", generator_factory=factory),
    ]
    cfg = SolverConfig(max_outer_iter=30, residual_tol=0.0, step_tol=0.0, inner_tol=1e-12)
    res_c = run(sep_quad, custom, cfg, sep_quad.zeros())
    res_a = run(sep_quad, resolve_strategy_preset("aam"), cfg, sep_quad.zeros())
    np.testing.assert_allclose(res_c.final_x.to_flat(), res_a.final_x.to_flat(), atol=1e-7)


def test_divergence_by_norm_guard():
    p = make_unbounded_problem(lambda v, tau: v / (1.0 - 2.0 * tau))
    strat = BlockStrategy("linearized", AlphaRule("constant", 2.5))
    cfg = SolverConfig(max_outer_iter=200, residual_tol=0.0, step_tol=0.0)
    res = run(p, [strat, strat], cfg, p.default_x0)
    assert res.status == "diverged"
    assert norm_sq(res.final_x) > 1e24
    phis = res.trace.phi_series()
    assert phis[-1] < phis[0]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_divergence_by_overflow_keeps_previous_iterate():
    p = make_unbounded_problem(lambda v, tau: np.array([1e200]))
    strat = BlockStrategy("linearized", AlphaRule("constant", 2.5))
    cfg = SolverConfig(max_outer_iter=10, residual_tol=0.0, step_tol=0.0)
    res = run(p, [strat, strat], cfg, p.default_x0)
    assert res.status == "diverged"
    # the blown-up sweep is discarded; the reported iterate stays finite
    assert np.all(np.isfinite(res.final_x.to_flat()))
