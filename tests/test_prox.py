import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bam.bregman import make_zero_generator
from bam.errors import EvaluationError, ParameterError
from bam.problem import build_sparse_group_instance, l1_certificate
from bam.prox import (
    group_shrink,
    group_soft_threshold,
    inner_exact_min,
    soft_threshold,
    validate_groups,
)

from conftest import grid_min_1d, grid_min_2d_two_stage


class TestSoftThreshold:
    def test_zero_input(self):
        np.testing.assert_array_equal(soft_threshold(np.zeros(2), 1.0), np.zeros(2))

    def test_matches_grid_oracle_single(self):
        ref = grid_min_1d(lambda u: np.abs(u) + 0.5 * (u - 3.0) ** 2)
        got = soft_threshold(np.array([3.0]), 1.0)[0]
        assert got == pytest.approx(ref, abs=1e-3)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_dead_zone(self):
        ref = [
            grid_min_1d(lambda u, v=v: np.abs(u) + 0.5 * (u - v) ** 2) for v in (0.5, -0.5)
        ]
        got = soft_threshold(np.array([0.5, -0.5]), 1.0)
        np.testing.assert_allclose(got, ref, atol=1e-3)
        np.testing.assert_array_equal(got, [0.0, 0.0])

    def test_rejects_bad_tau(self):
        with pytest.raises(ParameterError):
            soft_threshold(np.array([1.0]), 0.0)
        with pytest.raises(ParameterError):
            soft_threshold(np.array([1.0]), -1.0)
        with pytest.raises(ParameterError):
            soft_threshold(np.array([1.0]), math.nan)

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=5),
        st.lists(st.floats(-10, 10), min_size=1, max_size=5),
        st.floats(0.01, 5.0),
    )
    def test_nonexpansive(self, a, b, tau):
        n = min(len(a), len(b))
        v1, v2 = np.array(a[:n]), np.array(b[:n])
        d_out = np.linalg.norm(soft_threshold(v1, tau) - soft_threshold(v2, tau))
        assert d_out <= np.linalg.norm(v1 - v2) + 1e-12


class TestGroupSoftThreshold:
    def test_shrinks_group_to_zero(self):
        got = group_soft_threshold(np.array([3.0, 4.0]), [[0, 1]], 5.0)
        np.testing.assert_array_equal(got, [0.0, 0.0])
        ref = grid_min_2d_two_stage(
            lambda U: 5.0 * np.linalg.norm(U, axis=-1)
            + 0.5 * np.sum((U - np.array([3.0, 4.0])) ** 2, axis=-1)
        )
        np.testing.assert_allclose(got, ref, atol=2e-3)

    def test_partial_shrink(self):
        got = group_soft_threshold(np.array([3.0, 4.0]), [[0, 1]], 2.5)
        np.testing.assert_allclose(got, [1.5, 2.0], atol=1e-12)
        ref = grid_min_2d_two_stage(
            lambda U: 2.5 * np.linalg.norm(U, axis=-1)
            + 0.5 * np.sum((U - np.array([3.0, 4.0])) ** 2, axis=-1)
        )
        np.testing.assert_allclose(got, ref, atol=2e-3)

    def test_zero_input_any_tau(self):
        for tau in (0.1, 1.0, 100.0):
            np.testing.assert_array_equal(
                group_soft_threshold(np.zeros(4), [[0, 1], [2, 3]], tau), np.zeros(4)
            )

    def test_singleton_groups_reduce_to_soft_threshold(self):
        v = np.array([3.0, -0.4, 1.2])
        got = group_soft_threshold(v, [[0], [1], [2]], 0.7)
        np.testing.assert_allclose(got, soft_threshold(v, 0.7), atol=1e-15)

    def test_invalid_partitions(self):
        v = np.zeros(4)
        with pytest.raises(ParameterError):
            group_soft_threshold(v, [[0, 1]], 1.0)  # does not cover
        with pytest.raises(ParameterError):
            group_soft_threshold(v, [[0, 1], [1, 2, 3]], 1.0)  # overlap
        with pytest.raises(ParameterError):
            group_soft_threshold(v, [[0, 1], [2, 4]], 1.0)  # out of range
        with pytest.raises(ParameterError):
            group_soft_threshold(v, [[0, 1], [], [2, 3]], 1.0)  # empty group
        with pytest.raises(ParameterError):
            group_soft_threshold(v, [[0, 0, 1], [2, 3]], 1.0)  # repeated index
        with pytest.raises(ParameterError):
            group_soft_threshold(v, [[0, 1.7], [2, 3]], 1.0)  # non-integer index
        with pytest.raises(ParameterError):
            group_soft_threshold(v, [["0", "1"], ["2", "3"]], 1.0)  # text index

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ParameterError):
            group_soft_threshold(np.array([1.0, 2.0]), [[0], [1]], tau)

    def test_validate_groups_returns_index_arrays(self):
        gid = validate_groups([[1, 0], [3], [2, 4]], 5)
        np.testing.assert_array_equal(gid, [0, 0, 2, 1, 2])


@st.composite
def grouped_vectors(draw):
    """A shuffled partition of range(n), singletons allowed, with two vectors
    over it; the first has some groups set to zero."""
    n = draw(st.integers(1, 12))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    groups = [perm[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    vec = st.lists(st.floats(-10, 10), min_size=n, max_size=n).map(np.array)
    v, g = draw(vec), draw(vec)
    for grp in groups:
        if draw(st.booleans()):
            v[grp] = 0.0
    return groups, v, g


class TestGroupKernel:
    """The label-array kernel against the per-group definitions."""

    @staticmethod
    def close(got, ref):
        assert np.all(np.abs(np.asarray(got) - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    @settings(max_examples=100, deadline=None)
    @given(grouped_vectors(), st.floats(0.01, 5.0))
    def test_shrink_value_and_certificate_match_per_group_loops(self, case, lam):
        groups, v, g = case
        ref_shrink = np.zeros_like(v)
        ref_sq = 0.0
        for grp in groups:
            nv = np.linalg.norm(v[grp])
            if nv > 0.0:
                ref_shrink[grp] = max(1.0 - lam / nv, 0.0) * v[grp]
                ref_sq += np.linalg.norm(-g[grp] - lam * v[grp] / nv) ** 2
            else:
                ref_sq += max(np.linalg.norm(g[grp]) - lam, 0.0) ** 2
        ref_value = lam * sum(np.linalg.norm(v[grp]) for grp in groups)

        self.close(group_shrink(v, validate_groups(groups, v.size), lam), ref_shrink)
        z_term = build_sparse_group_instance(2, v.size, groups, lambda2=lam).terms[1]
        self.close(z_term.value(v), ref_value)
        self.close(z_term.subdiff_certificate(v, g), np.sqrt(ref_sq))


@pytest.mark.parametrize("prox_kind", ["l1", "group"])
def test_prox_beats_random_perturbations(prox_kind):
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = rng.uniform(-3, 3, size=4)
        tau = float(rng.uniform(0.05, 2.0))
        if prox_kind == "l1":
            u = soft_threshold(v, tau)
            obj = lambda w: tau * np.sum(np.abs(w)) + 0.5 * np.sum((w - v) ** 2)
        else:
            u = group_soft_threshold(v, [[0, 1], [2, 3]], tau)
            obj = lambda w: tau * (
                np.linalg.norm(w[:2]) + np.linalg.norm(w[2:])
            ) + 0.5 * np.sum((w - v) ** 2)
        base = obj(u)
        for _ in range(100):
            delta = rng.uniform(-1, 1, size=4)
            delta *= 0.1 * rng.uniform() / max(np.linalg.norm(delta), 1e-12)
            assert obj(u + delta) - base >= -1e-10


class TestInnerExactMin:
    def test_already_minimized_at_anchor(self, sep_quad):
        # separable quadratic y-subproblem at its block optimum: zero residual
        p = sep_quad
        z = 0.0
        anchor = np.array([(1.0 + z) / 2.0])
        calls = {"n": 0}

        def grad(u):
            calls["n"] += 1
            return 2.0 * (u - z)

        u, flag = inner_exact_min(
            lambda u: float((u[0] - z) ** 2),
            grad,
            2.0,
            p.terms[0].value,
            p.terms[0].prox,
            anchor,
            tol=1e-10,
            max_iter=5000,
        )
        assert flag == "converged"
        np.testing.assert_allclose(u, anchor, atol=1e-12)
        assert calls["n"] <= 1

    def test_separable_quadratic_y_step(self, sep_quad):
        p = sep_quad
        u, flag = inner_exact_min(
            lambda u: float(u[0] ** 2),  # H(y, 0) = y^2
            lambda u: 2.0 * np.asarray(u),
            2.0,
            p.terms[0].value,
            p.terms[0].prox,
            np.array([0.0]),
            tol=1e-12,
            max_iter=5000,
        )
        assert flag == "converged"
        assert u[0] == pytest.approx(0.5, abs=1e-10)

    def test_self_consistency_against_longer_run(self):
        # l1-regularized least-squares block step; strongly convex instance
        rng = np.random.default_rng(7)
        A = rng.standard_normal((30, 20))
        z = rng.standard_normal(30)
        lam = 0.1
        anchor = rng.standard_normal(20)
        L = 2.0 * float(np.linalg.eigvalsh(A.T @ A)[-1])
        calls = {"n": 0}

        def smooth(u):
            r = A @ u - z
            return float(r @ r)

        def grad(u):
            calls["n"] += 1
            return 2.0 * (A.T @ (A @ u - z))

        fval = lambda u: lam * float(np.sum(np.abs(u)))
        fprox = lambda v, tau: soft_threshold(v, tau * lam)

        u_short, flag = inner_exact_min(smooth, grad, L, fval, fprox, anchor, tol=1e-10, max_iter=5000)
        assert flag == "converged"
        assert calls["n"] <= 400  # the accelerated solver needs ~200 here, plain ISTA ~1200
        u_ref, _ = inner_exact_min(smooth, grad, L, fval, fprox, anchor, tol=0.0, max_iter=10000)
        assert float(np.max(np.abs(u_short - u_ref))) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(1, 8),
        st.floats(0.01, 2.0),
        st.floats(0.2, 2.0),
        st.integers(1, 60),
    )
    def test_never_worse_than_the_anchor(self, seed, m, n, lam, l_factor, max_iter):
        """On random small lasso subproblems, with L anywhere from a fifth of
        the true constant to twice it and any iteration cap, the returned
        point's objective is at most the anchor's."""
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n))
        z = rng.standard_normal(m)
        anchor = rng.standard_normal(n)
        L = l_factor * 2.0 * float(np.linalg.eigvalsh(A.T @ A)[-1])
        smooth = lambda u: float((A @ u - z) @ (A @ u - z))
        fval = lambda u: lam * float(np.sum(np.abs(u)))
        u, flag = inner_exact_min(
            smooth, lambda u: 2.0 * (A.T @ (A @ u - z)), L, fval,
            lambda v, tau: soft_threshold(v, tau * lam), anchor, tol=1e-10, max_iter=max_iter,
        )
        assert flag in ("converged", "hit-cap", "ascent-rejected")
        assert smooth(u) + fval(u) <= smooth(anchor) + fval(anchor)
        if flag == "ascent-rejected":
            np.testing.assert_array_equal(u, anchor)

    def test_underestimated_lipschitz_returns_the_anchor(self):
        # smooth 5u^2 has L = 10; with L declared 1 every step overshoots
        anchor = np.array([1.0])
        u, flag = inner_exact_min(
            lambda u: 5.0 * float(u @ u), lambda u: 10.0 * u, 1.0,
            lambda u: 0.0, lambda v, tau: v, anchor, tol=1e-12, max_iter=5,
        )
        assert flag == "ascent-rejected"
        np.testing.assert_array_equal(u, anchor)
        assert u is not anchor

    @pytest.mark.parametrize("max_iter", [500, 5000])
    def test_overflowing_iterates_return_the_anchor(self, max_iter):
        # 5u^2 declared L = 1 against a true 10: each step multiplies u by -9,
        # so the iterates overflow long before either cap
        anchor = np.array([1.0])
        calls = {"n": 0}

        def grad(u):
            calls["n"] += 1
            return 10.0 * u

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is handled, not reported
            u, flag = inner_exact_min(
                lambda u: 5.0 * float(u @ u), grad, 1.0,
                lambda u: 0.0, lambda v, tau: v, anchor, tol=1e-12, max_iter=max_iter,
            )
        assert flag == "ascent-rejected"
        np.testing.assert_array_equal(u, anchor)
        assert u is not anchor
        assert calls["n"] < 500  # stopped at the overflow, not at the cap

    def test_non_finite_final_objective_returns_the_anchor(self):
        # the iterates stay finite, but the objective overflows away from the anchor
        anchor = np.array([1.0])
        u, flag = inner_exact_min(
            lambda u: 0.0 if u[0] == 1.0 else math.inf, lambda u: np.zeros(1), 1.0,
            lambda u: 0.0, lambda v, tau: v - 1.0, anchor, tol=1e-12, max_iter=3,
        )
        assert flag == "ascent-rejected"
        np.testing.assert_array_equal(u, anchor)

    def test_non_finite_objective_at_the_anchor_raises(self):
        with pytest.raises(EvaluationError):
            inner_exact_min(
                lambda u: math.nan, lambda u: np.zeros(1), 1.0,
                lambda u: 0.0, lambda v, tau: v, np.ones(1), tol=1e-12, max_iter=3,
            )

    def test_missing_prox_is_a_configuration_error(self):
        with pytest.raises(ParameterError):
            inner_exact_min(
                lambda u: 0.0, lambda u: np.zeros(1), 1.0, lambda u: 0.0, None, np.zeros(1), 1e-10, 10
            )

    def test_hit_cap_flag(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((30, 20))
        z = rng.standard_normal(30)
        anchor = np.zeros(20)
        L = 2.0 * float(np.linalg.eigvalsh(A.T @ A)[-1])
        calls = {"n": 0}

        def grad(u):
            calls["n"] += 1
            return 2.0 * (A.T @ (A @ u - z))

        _, flag = inner_exact_min(
            lambda u: float((A @ u - z) @ (A @ u - z)),
            grad,
            L,
            lambda u: 0.0,
            lambda v, tau: v,
            anchor,
            tol=1e-14,
            max_iter=3,
        )
        assert flag == "hit-cap"
        assert calls["n"] == 3  # one gradient per iteration


def lasso_subproblem(seed=7, m=30, n=20, lam=0.1):
    """(smooth, grad, L, f value, f prox, l1 certificate, anchor) of a lasso
    block subproblem; ``grad`` counts its calls in ``grad.calls``."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    z = rng.standard_normal(m)
    anchor = rng.standard_normal(n)

    def grad(u):
        grad.calls += 1
        return 2.0 * (A.T @ (A @ u - z))

    grad.calls = 0
    return (lambda u: float((A @ u - z) @ (A @ u - z)), grad,
            2.0 * float(np.linalg.eigvalsh(A.T @ A)[-1]),
            lambda u: lam * float(np.sum(np.abs(u))), lambda v, tau: soft_threshold(v, tau * lam),
            l1_certificate(lam), anchor)


class TestInnerCertificate:
    """The certificate e = L(y - w) - grad S(y) + grad S(w) of the last step and
    the relative-error stopping rule."""

    @pytest.mark.parametrize("max_iter", [3, 5000])
    def test_asking_for_the_certificate_keeps_the_iterates(self, max_iter):
        """sigma = 0 with an ``info`` dict returns the same point and flag, for
        one more gradient, and counts the iterations."""
        smooth, grad, L, fval, fprox, _, anchor = lasso_subproblem()
        u_ref, flag_ref = inner_exact_min(smooth, grad, L, fval, fprox, anchor, 1e-10, max_iter)
        plain_calls, grad.calls = grad.calls, 0
        info = {}
        u, flag = inner_exact_min(smooth, grad, L, fval, fprox, anchor, 1e-10, max_iter,
                                  sigma=0.0, info=info)
        np.testing.assert_array_equal(u, u_ref)
        assert flag == flag_ref == ("hit-cap" if max_iter == 3 else "converged")
        assert info["iterations"] == plain_calls and grad.calls == plain_calls + 1

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("max_iter", [1, 4, 5000])
    def test_certificate_is_a_subgradient_at_the_returned_point(self, sigma, max_iter):
        """e - grad S(u) lies in the subdifferential of f at u, capped or not."""
        smooth, grad, L, fval, fprox, cert, anchor = lasso_subproblem()
        info = {}
        u, flag = inner_exact_min(smooth, grad, L, fval, fprox, anchor, 1e-10, max_iter,
                                  sigma=sigma, info=info)
        assert flag in ("converged", "hit-cap")
        g = grad(u)
        assert cert(u, g - info["error"]) <= 1e-9 * (1.0 + np.linalg.norm(g))

    def test_relative_rule_bounds_the_certificate_by_the_step(self):
        """With tol 0, a converged solve stops on the relative rule alone:
        ||e|| <= sigma ||u - anchor||, after fewer iterations than the absolute rule."""
        smooth, grad, L, fval, fprox, _, anchor = lasso_subproblem()
        info, ref = {}, {}
        u, flag = inner_exact_min(smooth, grad, L, fval, fprox, anchor, 0.0, 5000,
                                  sigma=0.5, info=info)
        inner_exact_min(smooth, grad, L, fval, fprox, anchor, 1e-10, 5000, info=ref)
        assert flag == "converged"
        assert np.linalg.norm(info["error"]) <= 0.5 * np.linalg.norm(u - anchor)
        assert info["iterations"] < ref["iterations"]
        assert np.linalg.norm(ref["error"]) <= 2e-10

    def test_rejected_solve_has_no_certificate(self):
        # smooth 5u^2 has L = 10; with L declared 1 every step overshoots
        info = {}
        u, flag = inner_exact_min(
            lambda u: 5.0 * float(u @ u), lambda u: 10.0 * u, 1.0,
            lambda u: 0.0, lambda v, tau: v, np.array([1.0]), 1e-12, 5, sigma=0.5, info=info,
        )
        assert (flag, info) == ("ascent-rejected", {"iterations": 5, "error": None})

    @pytest.mark.parametrize("max_iter, sigma", [(0, 0.0), (10, -0.5), (10, math.nan)])
    def test_bad_cap_or_sigma_is_a_parameter_error(self, max_iter, sigma):
        with pytest.raises(ParameterError):
            inner_exact_min(lambda u: 0.0, lambda u: np.zeros(1), 1.0, lambda u: 0.0,
                            lambda v, tau: v, np.zeros(1), 1e-10, max_iter, sigma=sigma)


def test_zero_generator_smoke():
    # tiny guard that the zero generator used by exact steps really is inert
    gen = make_zero_generator()
    np.testing.assert_array_equal(gen.gradient(np.ones(3)), np.zeros(3))
