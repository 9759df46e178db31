import sys
import threading
import time

import numpy as np
import pytest

from bam.blockvec import BlockVector
from bam.driver import SolverConfig, resolve_strategy_preset, run
from bam.diagnostics import estimate_partial_lipschitz
from bam.errors import ParameterError, ShapeError
from bam.problem import (
    BlockTerm,
    CouplingOracle,
    Problem,
    _coupled_quadratic,
    _memo,
    build_multiblock_quadratic,
    build_sparse_group_instance,
    phi_value,
)
from bam.prox import group_shrink, validate_groups

from conftest import GROUPS_8x5, make_underdeclared_problem


def fd_partial(p, x, i, j, h=1e-6):
    base = x.block(i)
    up, dn = base.copy(), base.copy()
    up[j] += h
    dn[j] -= h
    return (p.coupling.value(x.with_block(i, up)) - p.coupling.value(x.with_block(i, dn))) / (2 * h)


def assert_gradcheck(p, x, rtol=1e-6):
    for i in range(p.n_blocks):
        g = np.asarray(p.coupling.partial_grad(x, i)).ravel()
        for j in range(p.block_dims[i]):
            fd = fd_partial(p, x, i, j)
            assert abs(fd - g[j]) <= rtol * (1.0 + abs(g[j]))


class TestSeparableQuadratic:
    def test_phi_at_origin(self, sep_quad):
        assert phi_value(sep_quad, sep_quad.zeros()) == pytest.approx(2.0, abs=1e-14)

    def test_phi_at_minimizer(self, sep_quad):
        x = BlockVector([("y", [1 / 3]), ("z", [-1 / 3])])
        assert phi_value(sep_quad, x) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_gradient_vanishes_at_minimizer(self, sep_quad):
        x = BlockVector([("y", [1 / 3]), ("z", [-1 / 3])])
        # full gradient of Phi per block: grad f + grad_y H, grad g + grad_z H
        gy = 2 * (1 / 3 - 1) + sep_quad.coupling.partial_grad(x, 0)[0]
        gz = 2 * (-1 / 3 + 1) + sep_quad.coupling.partial_grad(x, 1)[0]
        assert abs(gy) <= 1e-12 and abs(gz) <= 1e-12

    def test_exact_block_minimizers(self, sep_quad):
        x0 = sep_quad.zeros()
        y1 = sep_quad.terms[0].exact_coupled_min(x0, 0, 0.0)
        assert y1[0] == pytest.approx(0.5, abs=1e-15)
        z1 = sep_quad.terms[1].exact_coupled_min(x0.with_block(0, y1), 1, 0.0)
        assert z1[0] == pytest.approx(-0.25, abs=1e-15)

    def test_gradcheck(self, sep_quad):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = BlockVector([("y", rng.standard_normal(1)), ("z", rng.standard_normal(1))])
            assert_gradcheck(sep_quad, x, rtol=1e-8)

    def test_prox_oracles_match_closed_forms(self, sep_quad):
        # prox of (u-1)^2: minimize tau*(u-1)^2 + 0.5*(u-v)^2
        for v, tau in [(0.0, 0.5), (2.0, 1.0), (-1.0, 0.1)]:
            u = sep_quad.terms[0].prox(np.array([v]), tau)[0]
            grid = np.arange(-4, 4, 1e-5)
            ref = grid[np.argmin(tau * (grid - 1) ** 2 + 0.5 * (grid - v) ** 2)]
            assert u == pytest.approx(ref, abs=1e-4)


class TestSparseGroup:
    def test_phi_at_origin_is_zero(self, sparse_group):
        assert phi_value(sparse_group, sparse_group.zeros()) == 0.0

    def test_gradcheck(self, sparse_group):
        assert_gradcheck(sparse_group, sparse_group.default_x0)

    def test_l2_constant_is_exactly_two(self, sparse_group):
        assert sparse_group.coupling.partial_lipschitz(sparse_group.default_x0, 1) == 2.0

    def test_l1_matches_dense_eigensolve(self, sparse_group):
        A = sparse_group.metadata["A"]
        lam_max = float(np.linalg.eigvalsh(A.T @ A)[-1])
        assert sparse_group.metadata["L1"] == pytest.approx(2.0 * lam_max, rel=1e-12)

    def test_exact_z_minimizer_at_y_zero(self, sparse_group):
        x = sparse_group.zeros()
        z = sparse_group.terms[1].exact_coupled_min(x, 1, 0.0)
        np.testing.assert_array_equal(z, np.zeros(40))

    def test_exact_z_minimizer_is_groupwise_shrink_of_Ay(self, sparse_group):
        p = sparse_group
        x = p.default_x0
        z_star = p.terms[1].exact_coupled_min(x, 1, 0.0)
        # independent check: z* must beat perturbations on the z-subproblem
        def obj(z):
            xz = x.with_block(1, z)
            return p.coupling.value(xz) + p.terms[1].value(z)

        base = obj(z_star)
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = rng.standard_normal(40)
            d *= 0.05 / np.linalg.norm(d)
            assert obj(z_star + d) >= base - 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            build_sparse_group_instance(5, 4, [[0, 1], [2]], seed=0)  # bad partition
        with pytest.raises(ParameterError):
            build_sparse_group_instance(5, 4, [[0, 1], [2, 3]], lambda1=0.0)
        with pytest.raises(ParameterError):
            build_sparse_group_instance(5, 4, [[0, 1], [2, 3]], lambda2=-1.0)
        with pytest.raises(ParameterError):
            build_sparse_group_instance(0, 4, [[0, 1], [2, 3]])

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, lam):
        with pytest.raises(ParameterError, match="finite"):
            build_sparse_group_instance(5, 4, [[0, 1], [2, 3]], lambda1=lam)
        with pytest.raises(ParameterError, match="finite"):
            build_sparse_group_instance(5, 4, [[0, 1], [2, 3]], lambda2=lam)

    def test_cached_products_follow_every_block_change(self):
        """H, both partial gradients and the exact z step match a direct numpy
        evaluation after y, then z, then both blocks change."""
        p = build_sparse_group_instance(50, 40, GROUPS_8x5, seed=7)
        A, gid = p.metadata["A"], validate_groups(GROUPS_8x5, 40)
        rng = np.random.default_rng(5)
        x = p.default_x0
        points = [x]
        for blocks in ([0], [1], [0, 1]):
            for i in blocks:
                x = x.with_block(i, rng.standard_normal(p.block_dims[i]))
            points.append(x)
        for x in points:
            y, z = x.arrays
            r = A @ y - z
            assert p.coupling.value(x) == float(r @ r)
            np.testing.assert_array_equal(p.coupling.partial_grad(x, 0), 2.0 * (A.T @ r))
            np.testing.assert_array_equal(p.coupling.partial_grad(x, 1), -2.0 * r)
            for alpha in (0.0, 1.0):
                w = (2.0 * (A @ y) + alpha * z) / (2.0 + alpha)
                np.testing.assert_array_equal(
                    p.terms[1].exact_coupled_min(x, 1, alpha), group_shrink(w, gid, 0.1 / (2.0 + alpha))
                )

    def test_cached_products_hold_under_threads(self):
        """Threads sharing one instance, switching every microsecond for one
        second, each get the products of their own iterate."""
        p = build_sparse_group_instance(50, 40, GROUPS_8x5, seed=7)
        A = p.metadata["A"]
        rng = np.random.default_rng(9)
        x0 = p.default_x0
        x_y = x0.with_block(0, rng.standard_normal(50))
        points = [x0, x_y, x0.with_block(1, rng.standard_normal(40)),
                  x_y.with_block(1, rng.standard_normal(40))]  # pairs share y or z arrays
        expected = []
        for x in points:
            r = A @ x.block(0) - x.block(1)
            expected.append((float(r @ r), 2.0 * (A.T @ r)))
        mismatches = []
        start = threading.Barrier(6)

        def worker(offset):
            start.wait(timeout=60)
            end, k = time.perf_counter() + 1.0, offset
            while time.perf_counter() < end:
                k += 1
                j = k % len(points)
                h, g = expected[j]
                if (p.coupling.value(points[j]) != h
                        or not np.array_equal(p.coupling.partial_grad(points[j], 0), g)):
                    mismatches.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_gradient_is_a_shared_read_only_array(self, sparse_group):
        x = sparse_group.default_x0.with_block(0, np.ones(50))
        g = sparse_group.coupling.partial_grad(x, 0)
        assert sparse_group.coupling.partial_grad(x, 0) is g
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0] = 1.0

    def test_matrix_roundtrip(self, tmp_path, sparse_group):
        path = tmp_path / "A.csv"
        np.savetxt(path, sparse_group.metadata["A"], delimiter=",")
        again = build_sparse_group_instance(
            50, 40, GROUPS_8x5, seed=7, lambda1=0.1, lambda2=0.1,
            a_matrix=np.loadtxt(path, delimiter=",", ndmin=2),
        )
        x = sparse_group.default_x0
        assert again.coupling.value(x) == pytest.approx(sparse_group.coupling.value(x), rel=1e-12)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, entry):
        A = np.ones((3, 2))
        A[1, 0] = entry
        with pytest.raises(ParameterError, match="A must be finite"):
            build_sparse_group_instance(2, 3, [[0], [1], [2]], a_matrix=A)


class TestMultiblockQuadratic:
    def test_equal_targets_give_zero_optimum(self):
        n = 4
        C = build_multiblock_quadratic(n, seed=0).metadata["couplings"]
        p = _coupled_quadratic("equal_targets", ["a", "b", "c", "d"], C, np.full(n, 0.37))
        np.testing.assert_allclose(p.metadata["minimizer"], np.full(n, 0.37), atol=1e-12)
        assert p.metadata["phi_star"] == pytest.approx(0.0, abs=1e-24)

    def test_gradcheck(self, multiblock):
        rng = np.random.default_rng(2)
        x = BlockVector([(bid, rng.standard_normal(1)) for bid in multiblock.block_ids])
        assert_gradcheck(multiblock, x)

    def test_minimizer_is_stationary(self, multiblock):
        m = multiblock.metadata["minimizer"]
        x = BlockVector([(bid, [m[i]]) for i, bid in enumerate(multiblock.block_ids)])
        t = multiblock.metadata["targets"]
        for i in range(multiblock.n_blocks):
            g = multiblock.coupling.partial_grad(x, i)[0] + 2.0 * (m[i] - t[i])
            assert abs(g) <= 1e-12

    def test_exact_block_minimizer_agrees_with_grid(self, multiblock):
        x = multiblock.default_x0
        u = multiblock.terms[0].exact_coupled_min(x, 0, 0.5)[0]
        grid = np.arange(-3, 3, 1e-5)
        t0 = multiblock.metadata["targets"][0]
        C = multiblock.metadata["couplings"]
        xs = x.to_flat()

        def h_on_grid(g):
            # H with block 0 at each grid value and the other blocks frozen at x
            rest = 0.5 * np.sum(C[1:, 1:] * (xs[1:, None] - xs[None, 1:]) ** 2)
            return rest + ((g[:, None] - xs[None, 1:]) ** 2) @ C[0, 1:]

        probes = grid[::6000]
        oracle = [multiblock.coupling.value(x.with_block(0, [gi])) for gi in probes]
        np.testing.assert_allclose(h_on_grid(probes), oracle, rtol=0, atol=1e-12)

        obj = h_on_grid(grid) + (grid - t0) ** 2 + 0.25 * (grid - xs[0]) ** 2
        ref = grid[np.argmin(obj)]
        assert u == pytest.approx(ref, abs=1e-4)

    def test_rejects_small_block_count(self):
        with pytest.raises(ParameterError):
            build_multiblock_quadratic(2, seed=0)

    def test_cached_products_follow_every_block_change(self):
        """H, every partial gradient and every exact step match a direct numpy
        evaluation after x1, then x2, then both blocks change."""
        p = build_multiblock_quadratic(5, seed=2)
        C, t = p.metadata["couplings"], p.metadata["targets"]
        row_sum = C.sum(axis=1)
        rng = np.random.default_rng(5)
        x = p.default_x0
        points = [x]
        for blocks in ([0], [1], [0, 1]):
            for i in blocks:
                x = x.with_block(i, rng.standard_normal(1))
            points.append(x)
        for x in points:
            xs = np.concatenate(x.arrays)
            assert p.coupling.value(x) == 0.5 * float(np.sum(C * (xs[:, None] - xs[None, :]) ** 2))
            for i in range(p.n_blocks):
                g = 2.0 * float(C[i] @ (xs[i] - xs))
                np.testing.assert_array_equal(p.coupling.partial_grad(x, i), [g])
                for alpha in (0.0, 1.0):
                    num = 2.0 * t[i] + 2.0 * float(C[i] @ xs) - 2.0 * C[i, i] * xs[i] + alpha * xs[i]
                    u = num / (2.0 + 2.0 * float(row_sum[i]) + alpha)
                    np.testing.assert_array_equal(p.terms[i].exact_coupled_min(x, i, alpha), [u])

    def test_one_flat_array_per_block_update(self, monkeypatch):
        """Steady-state am sweeps on 16 blocks build the iterate's flat array
        once per block update: H, grad_i H and the next exact step share it."""
        p = build_multiblock_quadratic(16, seed=7)
        calls = []
        to_flat = BlockVector.to_flat

        def counted(x):
            calls.append(x)
            return to_flat(x)

        monkeypatch.setattr(BlockVector, "to_flat", counted)
        after_sweep = []
        cfg = SolverConfig(max_outer_iter=6, residual_tol=0.0, step_tol=0.0)
        run(p, resolve_strategy_preset("am", 16), cfg, p.default_x0,
            callback=lambda k, x: after_sweep.append(len(calls)))
        assert np.diff(after_sweep).tolist() == [16] * 5


def test_memo_keeps_the_value_of_the_last_argument():
    calls = []
    memo = _memo(lambda a: calls.append(a) or len(calls))
    a, b = np.zeros(2), np.zeros(2)  # equal values, distinct arrays
    assert [memo(a), memo(a), memo(b), memo(a)] == [1, 1, 2, 3]
    assert calls[0] is a and calls[1] is b


def _decoupled_problem():
    # H identically zero: partial gradients are constant
    coupling = CouplingOracle(
        value=lambda x: 0.0,
        partial_grad=lambda x, i: np.zeros(x.block(i).size),
        partial_lipschitz=lambda x, i: 0.0,
    )
    term = BlockTerm(value=lambda u: float(u @ u), prox=lambda v, tau: v / (1 + 2 * tau))
    return Problem(
        name="decoupled",
        coupling=coupling,
        terms=(term, term),
        default_x0=BlockVector([("a", np.zeros(2)), ("b", np.zeros(2))]),
    )


class TestEstimatePartialLipschitz:
    def test_separable_quadratic_block_y(self, sep_quad):
        est = estimate_partial_lipschitz(sep_quad, sep_quad.zeros(), 0)
        assert 2.0 <= est <= 3.0

    def test_sparse_group_block_z(self, sparse_group):
        est = estimate_partial_lipschitz(sparse_group, sparse_group.default_x0, 1)
        # grad_z H = 2(z - Ay) has modulus exactly 2; safety factor 1.5
        assert est == pytest.approx(3.0, rel=1e-12)

    def test_reveals_an_underdeclared_constant(self):
        p = make_underdeclared_problem()
        # the true modulus 10 times the safety factor, not the declared 1
        est = estimate_partial_lipschitz(p, p.default_x0, 0)
        assert est == pytest.approx(15.0, rel=1e-12)

    def test_decoupled_gives_zero(self):
        p = _decoupled_problem()
        assert estimate_partial_lipschitz(p, p.default_x0, 0) == 0.0


def test_declared_constants_dominate_empirical_ratios(sep_quad, sparse_group, multiblock):
    rng = np.random.default_rng(3)
    for p in (sep_quad, sparse_group, multiblock):
        x = p.default_x0
        for i in range(p.n_blocks):
            L = p.coupling.partial_lipschitz(x, i)
            dim = p.block_dims[i]
            for _ in range(100 // p.n_blocks):
                du, dw = rng.standard_normal(dim), rng.standard_normal(dim)
                denom = np.linalg.norm(du - dw)
                if denom < 1e-12:
                    continue
                gu = p.coupling.partial_grad(x.with_block(i, x.block(i) + du), i)
                gw = p.coupling.partial_grad(x.with_block(i, x.block(i) + dw), i)
                assert np.linalg.norm(np.asarray(gu) - np.asarray(gw)) <= L * denom + 1e-8


def test_phi_value_decomposition(sep_quad, sparse_group, multiblock):
    for p in (sep_quad, sparse_group, multiblock):
        x = p.default_x0
        total = phi_value(p, x)
        parts = p.coupling.value(x) + sum(p.terms[i].value(x.block(i)) for i in range(p.n_blocks))
        assert total == pytest.approx(parts, rel=1e-14)


def test_phi_value_shape_mismatch(sep_quad):
    with pytest.raises(ShapeError):
        phi_value(sep_quad, BlockVector([("y", [0.0])]))


def test_problem_structure_validation(sep_quad):
    # two block terms against a one-block start point
    with pytest.raises(ShapeError):
        Problem(
            name="bad",
            coupling=sep_quad.coupling,
            terms=sep_quad.terms,
            default_x0=BlockVector([("y", [0.0])]),
        )
