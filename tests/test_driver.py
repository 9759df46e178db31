import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bam.blockvec import BlockVector, norm_sq
from bam.bregman import BregmanGenerator, bregman_distance, make_augmented_generator
from bam.diagnostics import subgradient_residual
import bam.driver as driver
from bam.driver import (
    PRESET_NAMES,
    AlphaRule,
    BlockStrategy,
    SolverConfig,
    make_generator,
    resolve_strategy_preset,
    run,
    step_block,
    validate_strategies,
)
from bam.errors import ConfigurationError, ParameterError
from bam.problem import BlockTerm, CouplingOracle, Problem, phi_value

from conftest import grid_min_1d, make_underdeclared_problem, mixed_point_corrections


def step(p, x, i, strategy, cfg=SolverConfig()):
    """``step_block`` at sweep 1, given H(x) and f_i(x_i) as ``run`` carries them."""
    return step_block(p, x, i, strategy, 1, cfg, p.coupling.value(x), p.terms[i].value(x.block(i)))


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
        default_x0=p.default_x0,
    )


class TestStepBlock:
    def test_exact_step_on_separable_quadratic(self, sep_quad):
        cfg = SolverConfig()
        s = step(sep_quad, sep_quad.zeros(), 0, BlockStrategy("exact"), cfg)
        assert s.x.block(0)[0] == pytest.approx(0.5, abs=1e-14)
        assert (s.nu, s.lip) == (0.0, 0.0)
        assert s.flag == "ok"

    def test_linearized_step_matches_grid_oracle(self, sep_quad):
        cfg = SolverConfig()
        strat = BlockStrategy("linearized", AlphaRule("constant", 4.0))
        s = step(sep_quad, sep_quad.zeros(), 0, strat, cfg)
        # subproblem: (u - 1)^2 + <grad_y H(0,0), u> + (4/2) u^2 with zero gradient
        ref = grid_min_1d(lambda u: (u - 1) ** 2 + 2.0 * u**2)
        assert s.x.block(0)[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert s.x.block(0)[0] == pytest.approx(ref, abs=1e-4)
        assert s.flag == "ok"

    def test_fixed_point_gives_zero_step(self, sep_quad):
        cfg = SolverConfig()
        x = BlockVector([("y", [1 / 3]), ("z", [-1 / 3])])
        for kind, rule in [
            ("exact", None),
            ("augmented", AlphaRule("constant", 1.0)),
            ("linearized", AlphaRule("lipschitz_factor", 1.1)),
        ]:
            s = step(sep_quad, x, 0, BlockStrategy(kind, rule), cfg)
            assert s.x.block(0)[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_augmented_step_closed_form(self, sep_quad):
        # y-update with alpha = 2: minimize (u-1)^2 + (u-z)^2 + (u-y_k)^2
        cfg = SolverConfig()
        strat = BlockStrategy("augmented", AlphaRule("constant", 2.0))
        s = step(sep_quad, sep_quad.zeros(), 0, strat, cfg)
        assert s.x.block(0)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert (s.nu, s.lip) == (2.0, 2.0)

    def test_linearized_rejects_alpha_at_or_below_lipschitz(self, sep_quad):
        cfg = SolverConfig()
        strat = BlockStrategy("linearized", AlphaRule("constant", 2.0))
        with pytest.raises(ConfigurationError):
            step(sep_quad, sep_quad.zeros(), 0, strat, cfg)

    def test_ascent_step_is_rejected(self):
        p = make_bad_prox_problem()
        cfg = SolverConfig()
        strat = BlockStrategy("linearized", AlphaRule("constant", 1.0))
        s = step(p, p.default_x0, 0, strat, cfg)
        assert s.flag == "ascent-rejected"
        np.testing.assert_array_equal(s.x.block(0), p.default_x0.block(0))
        assert (s.bregman, s.step_sq) == (0.0, 0.0)

    def test_inner_solver_fallback_is_reported_as_rejected(self):
        # L_i is declared 1 against a true 10, so the inner solver's 1/L
        # steps ascend and it falls back to the anchor
        p = make_underdeclared_problem()
        cfg = SolverConfig(max_outer_iter=1, inner_max_iter=5)
        res = run(p, [BlockStrategy("exact")] * 2, cfg, p.default_x0)
        rec = res.trace.records[-1]
        assert rec.inner_flags[0] == "ascent-rejected"
        assert rec.step_norm_sq_blocks[0] == 0.0
        np.testing.assert_array_equal(res.final_x.block(0), [0.0])

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

    def test_linearized_needs_rule(self):
        with pytest.raises(ConfigurationError, match="needs an alpha rule"):
            BlockStrategy("linearized")

    def test_custom_needs_factory(self):
        with pytest.raises(ConfigurationError, match="needs a generator factory"):
            BlockStrategy("custom")

    def test_augmented_alpha_must_be_positive(self, sep_quad):
        # a lipschitz_factor rule on a block whose declared L_i is 0 resolves
        # to alpha 0, which the first sweep could not use
        p = replace(sep_quad, coupling=replace(sep_quad.coupling, partial_lipschitz=lambda x, i: 0.0))
        strat = BlockStrategy("augmented", AlphaRule("lipschitz_factor", 1.0))
        with pytest.raises(ConfigurationError, match="augmented alpha_k = 0 must exceed 0"):
            validate_strategies(p, [strat, strat], p.zeros())

    def test_linearized_needs_a_nonnegative_lipschitz_constant(self, sep_quad):
        # with L_i < 0 the step's (nu, L) = (alpha - L_i, alpha + L_i) would
        # declare nu > L, which no linearization generator can have
        p = replace(sep_quad, coupling=replace(sep_quad.coupling, partial_lipschitz=lambda x, i: -1.0))
        strat = BlockStrategy("linearized", AlphaRule("constant", 2.0))
        with pytest.raises(ConfigurationError, match="L_i = -1"):
            validate_strategies(p, [strat, strat], p.zeros())

    @pytest.mark.parametrize(
        "strat",
        [
            BlockStrategy("linearized", AlphaRule("constant", 5.0)),
            BlockStrategy("custom", generator_factory=lambda k, x, i: make_augmented_generator(1.0)),
        ],
        ids=["linearized", "custom"],
    )
    def test_prox_kinds_need_a_prox(self, sep_quad, strat):
        # the term keeps its closed-form minimizer, which these kinds do not use
        p = replace(sep_quad, terms=(replace(sep_quad.terms[0], prox=None), sep_quad.terms[1]))
        with pytest.raises(ConfigurationError, match="needs a prox oracle"):
            validate_strategies(p, [strat, BlockStrategy("exact")], p.zeros())

    @pytest.mark.parametrize(
        "strat",
        [BlockStrategy("exact"), BlockStrategy("augmented", AlphaRule("constant", 1.0))],
        ids=["exact", "augmented"],
    )
    def test_minimizing_kinds_need_a_minimizer_or_a_prox(self, sep_quad, strat):
        bare = replace(sep_quad.terms[0], prox=None, exact_coupled_min=None)
        p = replace(sep_quad, terms=(bare, sep_quad.terms[1]))
        with pytest.raises(ConfigurationError, match="needs exact_coupled_min or a prox oracle"):
            validate_strategies(p, [strat, BlockStrategy("exact")], p.zeros())

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            ("augmented", {}, "needs an alpha rule"),
            ("exact", {"alpha_rule": AlphaRule("constant", 5.0)}, "must not have an alpha rule"),
            ("custom", {"generator_factory": lambda k, x, i: make_augmented_generator(1.0),
                        "alpha_rule": AlphaRule("constant", 1.0)}, "must not have an alpha rule"),
            ("exact", {"generator_factory": lambda k, x, i: make_augmented_generator(1.0)},
             "must not have a generator factory"),
            ("linearized", {"alpha_rule": AlphaRule("constant", 5.0),
                            "generator_factory": lambda k, x, i: make_augmented_generator(1.0)},
             "must not have a generator factory"),
        ],
        ids=["augmented-no-rule", "exact-rule", "custom-rule", "exact-factory", "linearized-factory"],
    )
    def test_fields_the_kind_ignores_are_rejected(self, kind, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            BlockStrategy(kind, **fields)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            BlockStrategy("sgd")

    def test_alpha_rule_validation(self):
        with pytest.raises(ParameterError):
            AlphaRule("constant", 0.0)
        with pytest.raises(ParameterError):
            AlphaRule("ratio", 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_alpha_rule_rejects_non_finite_values(self, value):
        with pytest.raises(ParameterError):
            AlphaRule("constant", value)
        with pytest.raises(ParameterError):
            AlphaRule("lipschitz_factor", np.float64(value))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(max_outer_iter=0)
        with pytest.raises(ParameterError):
            SolverConfig(residual_tol=-1.0)
        with pytest.raises(ParameterError):
            SolverConfig(step_tol=float("nan"))
        for name in ("residual_tol", "step_tol", "inner_tol"):
            for bad in (True, False, "0.1", None):
                with pytest.raises(ParameterError):
                    SolverConfig(**{name: bad})
        with pytest.raises(ParameterError):
            AlphaRule("constant", True)
        with pytest.raises(ParameterError):
            AlphaRule("lipschitz_factor", "1.1")
        assert AlphaRule("constant", np.float64(0.5)).value == 0.5

    @pytest.mark.parametrize("name", ["max_outer_iter", "inner_max_iter"])
    @pytest.mark.parametrize("bad", [0, -3, 1.5, 2.0, "5", True, None])
    def test_iteration_counts_are_integers_at_least_one(self, name, bad):
        with pytest.raises(ParameterError, match=name):
            SolverConfig(**{name: bad})
        assert getattr(SolverConfig(**{name: np.int64(3)}), name) == 3

    def test_x0_structure_mismatch(self, sep_quad, multiblock):
        cfg = SolverConfig(max_outer_iter=1)
        with pytest.raises(ConfigurationError):
            run(sep_quad, resolve_strategy_preset("am"), cfg, multiblock.zeros())

    def test_block_layout_comes_from_the_start_point(self, sep_quad):
        p = replace(sep_quad, default_x0=BlockVector([("a", [0.0]), ("b", [0.0])]))
        assert p.block_ids == ("a", "b") and p.block_dims == (1, 1)
        cfg = SolverConfig(max_outer_iter=300, residual_tol=1e-10)
        assert run(p, resolve_strategy_preset("am"), cfg, p.default_x0).status == "residual-converged"

    def test_x0_block_size_mismatch(self, sep_quad):
        # the same block ids as the problem, but y has length 2
        x0 = BlockVector([("y", [0.0, 0.0]), ("z", [0.0])])
        with pytest.raises(ConfigurationError):
            run(sep_quad, resolve_strategy_preset("am"), SolverConfig(max_outer_iter=1), x0)


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
    assert res.trace.phi0 == pytest.approx(2.0)
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


def test_every_sweep_is_recorded(multiblock):
    cfg = SolverConfig(max_outer_iter=17, residual_tol=0.0, step_tol=0.0)
    res = run(multiblock, resolve_strategy_preset("am", 4), cfg, multiblock.default_x0)
    assert [r.k for r in res.trace.records] == list(range(1, 18))
    assert res.sweeps == 17
    assert res.status == "max-iter"


class TestHonestStop:
    """A sweep with a capped or rejected inner solve never ends the run as
    residual-converged or step-converged: its residual is not a subgradient
    of Phi. One that moved nothing ends it stalled, unless a block is custom."""

    def test_capped_sweep_does_not_stop_on_the_residual(self, sparse_group):
        # one inner iteration per y step: every y solve hits its cap, and from
        # the second sweep on the residual is below residual_tol
        cfg = SolverConfig(max_outer_iter=6, residual_tol=10.0, step_tol=0.0, inner_max_iter=1)
        res = run(sparse_group, resolve_strategy_preset("am"), cfg, sparse_group.default_x0)
        assert [r.inner_flag for r in res.trace.records] == ["hit-cap"] * 6
        assert res.trace.records[1].residual <= cfg.residual_tol
        assert (res.status, res.sweeps) == ("max-iter", 6)

    def test_rejected_sweep_does_not_stop_on_either_rule(self):
        # both blocks fall back to their anchors: residual 0 and step 0, yet
        # the start point (0, 1) is not critical (d_y Phi = {-10})
        p = make_underdeclared_problem()
        cfg = SolverConfig(max_outer_iter=3, residual_tol=1e3, inner_max_iter=5)
        res = run(p, [BlockStrategy("exact")] * 2, cfg, p.default_x0)
        for rec in res.trace.records:
            assert (rec.residual, rec.step_norm_sq, rec.inner_flag) == (0.0, 0.0, "ascent-rejected")
        assert (res.status, res.sweeps) == ("stalled", 1)

    @pytest.mark.parametrize("preset", ["am", "aam"])
    def test_rejected_sweep_stalls_at_the_default_config(self, preset):
        p = make_underdeclared_problem()
        res = run(p, resolve_strategy_preset(preset), SolverConfig(), p.default_x0)
        assert (res.status, res.sweeps) == ("stalled", 1)
        assert res.trace.records[0].inner_flags == ("ascent-rejected", "ascent-rejected")

    def test_custom_block_does_not_stall(self):
        # a custom generator factory reads k, so a sweep that moved nothing
        # need not repeat: the run goes on to max_outer_iter
        p = make_underdeclared_problem()
        strat = BlockStrategy("custom", generator_factory=lambda k, x, i: make_augmented_generator(1.0))
        cfg = SolverConfig(max_outer_iter=4, inner_max_iter=5)
        res = run(p, [strat, strat], cfg, p.default_x0)
        assert (res.status, res.sweeps) == ("max-iter", 4)
        for rec in res.trace.records:
            assert (rec.step_norm_sq, rec.inner_flag) == (0.0, "ascent-rejected")

    @pytest.mark.parametrize("inner_max_iter", [5, 50, 500, 5000])
    def test_overflowing_inner_solves_are_rejected_not_diverged(self, inner_max_iter):
        # at 500 and 5000 inner iterations the underestimated L makes the inner
        # iterates overflow; the blocks are rejected, and the run does not diverge
        p = make_underdeclared_problem()
        cfg = SolverConfig(max_outer_iter=4, inner_max_iter=inner_max_iter)
        res = run(p, resolve_strategy_preset("am"), cfg, p.default_x0)
        assert (res.status, res.sweeps) == ("stalled", 1)
        assert {f for rec in res.trace.records for f in rec.inner_flags} == {"ascent-rejected"}
        np.testing.assert_array_equal(res.final_x.to_flat(), [0.0, 1.0])


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
    factory = lambda k, x, i: make_augmented_generator(1.0)
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


def test_non_finite_gradient_ends_run_diverged(sep_quad):
    def grad(x, i):
        g = sep_quad.coupling.partial_grad(x, i)
        return g * np.nan if x.block(0)[0] > 0.2 else g

    p = replace(sep_quad, coupling=replace(sep_quad.coupling, partial_grad=grad))
    x0 = BlockVector([("y", [-1.0]), ("z", [-1.0])])
    cfg = SolverConfig(max_outer_iter=10, residual_tol=0.0, step_tol=0.0)
    # exact steps: sweep 1 reaches (0, -0.5); sweep 2 moves y to 0.25, where
    # the gradient in the residual is NaN
    res = run(p, resolve_strategy_preset("am"), cfg, x0)
    assert res.status == "diverged"
    assert res.sweeps == 1 and [r.k for r in res.trace.records] == [1]
    np.testing.assert_array_equal(res.final_x.to_flat(), [0.0, -0.5])


def counting_problem(p):
    """A copy of ``p`` whose H value and partial gradient count their calls.
    Its ``restrict`` is forwarded uncounted, so the inner solver takes the
    path the engine runs on ``p``."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    c = p.coupling
    coupling = CouplingOracle(
        value=counted("h_value", c.value),
        partial_grad=counted("partial_grad", c.partial_grad),
        partial_lipschitz=c.partial_lipschitz,
        restrict=c.restrict,
    )
    return replace(p, coupling=coupling), counts


class TestOnePassCost:
    """Each block update evaluates H once; the residual adds one gradient per block."""

    CFG = SolverConfig(max_outer_iter=4, residual_tol=0.0, step_tol=0.0, inner_max_iter=20)

    @classmethod
    def steady_sweeps(cls, p, preset):
        """Oracle calls per sweep after the first. The inner solver's calls go
        through the forwarded ``restrict``, so they are not counted."""
        wrapped, counts = counting_problem(p)
        seen = []
        run(wrapped, resolve_strategy_preset(preset), cls.CFG, wrapped.default_x0,
            callback=lambda k, x: seen.append(counts.copy()))
        return [b - a for a, b in zip(seen, seen[1:])]

    def test_plam_sweep(self, sparse_group):
        sweeps = self.steady_sweeps(sparse_group, "plam")
        assert len(sweeps) == 3
        for c in sweeps:
            assert c["h_value"] <= 2 and c["partial_grad"] <= 4, c

    def test_am_sweep_outside_the_inner_solver(self, sparse_group):
        sweeps = self.steady_sweeps(sparse_group, "am")
        assert len(sweeps) == 3
        for c in sweeps:
            assert c["h_value"] <= 2 and c["partial_grad"] <= 4, c

    def test_am_reuses_the_last_blocks_gradient(self, sparse_group):
        """The exact z step's grad_z H(x^{k+1}) is the residual's last gradient:
        one partial gradient per block in the steps, one for y in the residual."""
        sweeps = self.steady_sweeps(sparse_group, "am")
        assert [c["partial_grad"] for c in sweeps] == [3, 3, 3]

    def test_am_inner_solver_builds_no_iterate(self, sparse_group, monkeypatch):
        """The inner solver evaluates H on block y's bare array: a steady am
        sweep calls ``with_block`` once per block step, not per inner iteration."""
        calls = []
        with_block = BlockVector.with_block

        def counted(x, i, arr):
            calls.append(i)
            return with_block(x, i, arr)

        monkeypatch.setattr(BlockVector, "with_block", counted)
        seen = []
        res = run(sparse_group, resolve_strategy_preset("am"), self.CFG, sparse_group.default_x0,
                  callback=lambda k, x: seen.append(len(calls)))
        assert [r.inner_flags[0] for r in res.trace.records] == ["hit-cap"] * 4  # 20 iterations each
        assert np.diff(seen).tolist() == [2, 2, 2]


@pytest.mark.parametrize("preset", ["am", "aam", "am-plam"])
def test_restricted_oracles_give_the_generic_paths_sweeps(sparse_group, preset):
    """sparse_group's ``restrict`` and the ``with_block`` closures give the same
    sweeps, float for float."""
    generic = replace(sparse_group, coupling=replace(sparse_group.coupling, restrict=None))
    cfg = SolverConfig(max_outer_iter=8, residual_tol=0.0, step_tol=0.0, inner_max_iter=300)
    strategies = resolve_strategy_preset(preset)
    res = run(sparse_group, strategies, cfg, sparse_group.default_x0)
    ref = run(generic, strategies, cfg, sparse_group.default_x0)
    assert res.trace.phi0 == ref.trace.phi0
    assert res.trace.records == ref.trace.records
    assert res.status == ref.status
    assert np.array_equal(res.final_x.to_flat(), ref.final_x.to_flat())


def log_cosh_generator(a, dim):
    """A non-quadratic generator: phi(u) = (a/2)||u||^2 + sum_j log cosh u_j."""
    return BregmanGenerator(
        value=lambda u: 0.5 * a * float(u @ u) + float(np.sum(np.logaddexp(u, -u) - np.log(2.0))),
        gradient=lambda u: a * np.asarray(u, dtype=float) + np.tanh(u),
        modulus_nu=a,
        lipschitz_L=a + 1.0,
        label="logcosh",
    )


SHORTCUT_STRATEGIES = {
    "exact": BlockStrategy("exact"),
    "augmented": BlockStrategy("augmented", AlphaRule("constant", 1.0)),
    "linearized": BlockStrategy("linearized", AlphaRule("lipschitz_factor", 1.1)),
    "custom": BlockStrategy(
        "custom", generator_factory=lambda k, x, i: log_cosh_generator(0.5, x.block(i).size)
    ),
}


@pytest.mark.parametrize("kind", list(SHORTCUT_STRATEGIES))
@pytest.mark.parametrize("problem", ["sep_quad", "multiblock", "sparse_group"])
def test_block_step_shortcuts_equal_definitions(request, problem, kind):
    """The step's (nu, lip), closed-form Bregman cost and residual correction
    agree with the generator ``make_generator`` builds at the pre-step iterate:
    its declared constants, B_phi and the mixed-point residual from its gradient."""
    p = request.getfixturevalue(problem)
    strategy = SHORTCUT_STRATEGIES[kind]
    cfg = SolverConfig(inner_max_iter=50)
    x = p.default_x0
    h, fs = p.coupling.value(x), [t.value(x.block(i)) for i, t in enumerate(p.terms)]
    for k in (1, 2, 3):
        x_prev, gens, corrections = x, [], []
        for i in range(p.n_blocks):
            anchor = x.block(i)
            gen = make_generator(strategy, p, x, i, k)
            s = step_block(p, x, i, strategy, k, cfg, h, fs[i])
            x, h, fs[i] = s.x, s.h, s.f
            tol = 1e-12 * (1.0 + abs(phi_value(p, x)))
            assert s.flag != "ascent-rejected"
            assert (s.nu, s.lip) == (gen.modulus_nu, gen.lipschitz_L)
            assert s.bregman == pytest.approx(bregman_distance(gen, x.block(i), anchor), abs=tol)
            assert s.h == p.coupling.value(x) and s.f == p.terms[i].value(x.block(i))
            assert s.step_sq == pytest.approx(float((x.block(i) - anchor) @ (x.block(i) - anchor)))
            gens.append(gen)
            corrections.append(s.correction)
        engine, _ = subgradient_residual(p, x, corrections, last_grad=s.grad)
        reference, _ = subgradient_residual(p, x, mixed_point_corrections(p, x_prev, x, gens))
        np.testing.assert_allclose(
            np.concatenate(engine), np.concatenate(reference), rtol=0.0, atol=tol
        )


def _raise_on_call(*args, **kwargs):
    raise AssertionError("a built-in block step built a Bregman generator")


@pytest.mark.parametrize("problem", ["sep_quad", "multiblock", "sparse_group"])
def test_built_in_presets_build_no_generator(request, monkeypatch, problem):
    """Every preset runs to the same records with the generator factories
    replaced by ones that raise: a built-in step reads its constants directly."""
    p = request.getfixturevalue(problem)
    cfg = SolverConfig(max_outer_iter=6, residual_tol=0.0, step_tol=0.0, inner_max_iter=50)
    refs = {name: run(p, resolve_strategy_preset(name, p.n_blocks), cfg, p.default_x0)
            for name in PRESET_NAMES}
    for factory in ("make_zero_generator", "make_augmented_generator",
                    "make_linearization_generator"):
        monkeypatch.setattr(driver, factory, _raise_on_call)
    for name, ref in refs.items():
        res = run(p, resolve_strategy_preset(name, p.n_blocks), cfg, p.default_x0)
        assert res.trace.records == ref.trace.records
        assert res.status == ref.status
        assert np.array_equal(res.final_x.to_flat(), ref.final_x.to_flat())


def test_custom_factory_is_called_once_per_step(sep_quad):
    calls = Counter()

    def factory(k, x, i):
        calls[k, i] += 1
        return make_augmented_generator(1.0)

    strategy = BlockStrategy("custom", generator_factory=factory)
    cfg = SolverConfig(max_outer_iter=5, residual_tol=0.0, step_tol=0.0)
    res = run(sep_quad, [strategy, strategy], cfg, sep_quad.zeros())
    assert res.sweeps == 5
    assert calls == {(k, i): 1 for k in range(1, 6) for i in range(2)}


@pytest.mark.parametrize("strategy", [
    BlockStrategy("exact"),
    BlockStrategy("augmented", AlphaRule("constant", 1.0)),
    SHORTCUT_STRATEGIES["custom"],
], ids=["am", "aam", "custom"])
def test_inner_solves_certify_the_residual(sparse_group, monkeypatch, strategy):
    """Every inner solve's error e_i is a subgradient of its block subproblem at
    the accepted point, a converged one is bounded by the step, and each
    recorded residual is ||v + e|| with the recorded ||e_i||."""
    p = sparse_group
    steps = []  # (BlockStep, its inner solve or None)
    inner, stepper = driver.inner_exact_min, driver.step_block

    def recording_inner(smooth_value, smooth_grad, *args, **kwargs):
        u, flag = inner(smooth_value, smooth_grad, *args, **kwargs)
        recording_inner.solve = (smooth_grad, u, flag, kwargs["info"]["error"])
        return u, flag

    def recording_step(*args):
        recording_inner.solve = None
        steps.append((stepper(*args), recording_inner.solve))
        return steps[-1][0]

    monkeypatch.setattr(driver, "inner_exact_min", recording_inner)
    monkeypatch.setattr(driver, "step_block", recording_step)
    # at 40 iterations the first y solve converges and the later ones hit the cap
    cfg = SolverConfig(max_outer_iter=8, residual_tol=0.0, step_tol=0.0, inner_tol=1e-8,
                       inner_max_iter=40)
    res = run(p, [strategy, strategy], cfg, p.default_x0)
    assert res.sweeps == 8 and len(steps) == 16
    # the y block always runs the inner solver; z only when custom (it has a closed form)
    assert [solve is not None for _, solve in steps] == [True, strategy.kind == "custom"] * 8
    assert {solve[2] for _, solve in steps if solve} == {"converged", "hit-cap"}
    for n, (s, solve) in enumerate(steps):
        if solve is None:
            assert s.error is None
            continue
        grad, u, flag, e = solve
        np.testing.assert_array_equal(s.x.block(n % 2), u)
        assert s.error is e
        g = grad(u)
        assert p.terms[n % 2].subdiff_certificate(u, g - e) <= 1e-9 * (1.0 + np.linalg.norm(g))
        if flag == "converged":
            bound = max(driver.INNER_SIGMA * math.sqrt(s.step_sq), 2.0 * cfg.inner_tol)
            assert np.linalg.norm(e) <= bound
    for rec, (sy, _), (sz, _) in zip(res.trace.records, steps[0::2], steps[1::2]):
        v, _ = subgradient_residual(p, sz.x, [sy.correction, sz.correction], last_grad=sz.grad)
        errors = [np.zeros_like(b) if s.error is None else s.error for b, s in zip(v, (sy, sz))]
        total = [b + e for b, e in zip(v, errors)]
        assert rec.residual == pytest.approx(math.sqrt(sum(float(b @ b) for b in total)), rel=1e-12)
        assert rec.inner_errors == tuple(float(np.linalg.norm(e)) for e in errors)
