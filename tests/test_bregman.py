import numpy as np
import pytest

from bam.bregman import (
    BregmanGenerator,
    bregman_distance,
    make_augmented_generator,
    make_linearization_generator,
    make_zero_generator,
)
from bam.diagnostics import check_generator_convexity
from bam.errors import ParameterError, ShapeError


def sqnorm_generator(dim):
    # phi(x) = ||x||^2, whose Bregman distance is ||x - y||^2
    return make_augmented_generator(2.0, dim)


def quadratic_form_generator(M):
    M = np.asarray(M, dtype=float)
    return BregmanGenerator(
        value=lambda x: float(np.asarray(x) @ (M @ np.asarray(x))),
        gradient=lambda x: 2.0 * (M @ np.asarray(x, dtype=float)),
        modulus_nu=2.0 * float(np.linalg.eigvalsh(M)[0]),
        lipschitz_L=2.0 * float(np.linalg.eigvalsh(M)[-1]),
        label="quadform",
    )


def test_sqnorm_distance_is_squared_euclidean():
    gen = sqnorm_generator(2)
    x, y = np.array([1.0, 2.0]), np.array([0.0, 0.0])
    assert bregman_distance(gen, x, y) == pytest.approx(5.0, abs=1e-14)
    # random pairs too
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        assert bregman_distance(sqnorm_generator(4), u, v) == pytest.approx(
            float((u - v) @ (u - v)), rel=1e-12
        )


def test_distance_at_equal_points_is_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(3)
    for gen in (sqnorm_generator(3), make_zero_generator(3), make_augmented_generator(0.7, 3)):
        assert bregman_distance(gen, x, x) == 0.0


def test_quadratic_form_distance():
    gen = quadratic_form_generator(np.diag([2.0, 3.0]))
    x, y = np.array([1.0, 1.0]), np.array([0.0, 0.0])
    assert bregman_distance(gen, x, y) == pytest.approx(5.0, abs=1e-14)


def test_dimension_mismatch():
    with pytest.raises(ShapeError):
        bregman_distance(sqnorm_generator(2), np.array([1.0, 2.0]), np.array([1.0]))


def test_zero_generator():
    gen = make_zero_generator(1)
    assert bregman_distance(gen, np.array([5.0]), np.array([-2.0])) == 0.0
    assert gen.modulus_nu == 0.0
    assert gen.lipschitz_L == 0.0


def test_augmented_generator():
    gen = make_augmented_generator(2.0, 2)
    assert bregman_distance(gen, np.array([1.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(1.0)
    g1 = make_augmented_generator(1.0, 1)
    x = np.array([0.3])
    assert bregman_distance(g1, x, x) == 0.0
    # exact modulus for the linear gradient
    rng = np.random.default_rng(2)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    g = make_augmented_generator(2.0, 3)
    lhs = float((g.gradient(u) - g.gradient(v)) @ (u - v))
    assert lhs == pytest.approx(2.0 * float((u - v) @ (u - v)), rel=1e-13)
    with pytest.raises(ParameterError):
        make_augmented_generator(0.0, 2)
    with pytest.raises(ParameterError):
        make_augmented_generator(-1.0, 2)


class TestLinearizationGenerator:
    # H(y, z) = (y - z)^2 frozen at z = 0, so h(u) = u^2 with L = 2
    @staticmethod
    def make(alpha=3.0):
        return make_linearization_generator(
            alpha, lambda u: float(u[0] ** 2), lambda u: 2.0 * np.asarray(u), 2.0
        )

    def test_distance_closed_form(self):
        # B_phi(y, yhat) = ((alpha - 2)/2) (y - yhat)^2 = (1/2)(y - yhat)^2
        gen = self.make(3.0)
        for y, yhat in [(2.0, 0.5), (-1.0, 4.0), (0.0, 0.0)]:
            got = bregman_distance(gen, np.array([y]), np.array([yhat]))
            assert got == pytest.approx(0.5 * (y - yhat) ** 2, abs=1e-12)

    def test_identity(self):
        gen = self.make()
        assert bregman_distance(gen, np.array([1.3]), np.array([1.3])) == 0.0

    def test_convexity_probe(self):
        gen = self.make(3.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            u, v = rng.standard_normal(1), rng.standard_normal(1)
            lhs = float((gen.gradient(u) - gen.gradient(v)) @ (u - v))
            assert lhs >= (3.0 - 2.0) * float((u - v) @ (u - v)) - 1e-12

    def test_rejects_alpha_below_lipschitz(self):
        with pytest.raises(ParameterError, match="convex"):
            self.make(2.0)
        with pytest.raises(ParameterError, match="convex"):
            self.make(1.5)

    def test_plam_equivalence_up_to_constant(self, sparse_group):
        # H + B_phi(., anchor) equals the linearization of H at the anchor
        # plus (alpha/2)||. - anchor||^2, up to a constant in the variable.
        p = sparse_group
        x = p.default_x0
        i = 0
        L1 = p.coupling.partial_lipschitz(x, i)
        alpha = 1.1 * L1
        h_val = lambda u: p.coupling.value(x.with_block(i, u))
        h_grad = lambda u: p.coupling.partial_grad(x.with_block(i, u), i)
        gen = make_linearization_generator(alpha, h_val, h_grad, L1)
        anchor = x.block(i)
        g0 = h_grad(anchor)

        def lhs(u):
            return h_val(u) + bregman_distance(gen, u, anchor)

        def rhs(u):
            d = u - anchor
            return h_val(anchor) + float(g0 @ d) + 0.5 * alpha * float(d @ d)

        rng = np.random.default_rng(4)
        const0 = lhs(anchor) - rhs(anchor)
        for _ in range(3):
            u = anchor + rng.standard_normal(anchor.size)
            scale = 1.0 + abs(lhs(u))
            assert (lhs(u) - rhs(u) - const0) / scale == pytest.approx(0.0, abs=1e-10)


def fd_gradient(value, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        up, dn = x.copy(), x.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (value(up) - value(dn)) / (2 * h)
    return g


@pytest.mark.parametrize(
    "factory",
    [
        lambda: make_zero_generator(3),
        lambda: make_augmented_generator(1.7, 3),
        lambda: make_linearization_generator(
            5.0, lambda u: float(u @ u), lambda u: 2.0 * np.asarray(u), 2.0
        ),
    ],
)
def test_value_gradient_consistency(factory):
    gen = factory()
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=3)
        g = np.asarray(gen.gradient(x))
        fd = fd_gradient(gen.value, x)
        assert np.allclose(fd, g, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize(
    "gen,dim",
    [
        (make_augmented_generator(1.0, 2), 2),
        (make_zero_generator(2), 2),
        (
            make_linearization_generator(
                5.0, lambda u: float(u @ u), lambda u: 2.0 * np.asarray(u), 2.0
            ),
            2,
        ),
    ],
)
def test_distance_convexity_properties(gen, dim):
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = rng.uniform(-5, 5, size=dim)
        y = rng.uniform(-5, 5, size=dim)
        b = bregman_distance(gen, x, y)
        # nonnegativity
        assert b >= -1e-12 * (1 + abs(gen.value(x)))
        # strong-convexity lower bound
        assert b >= 0.5 * gen.modulus_nu * float((x - y) @ (x - y)) - 1e-10
        # convexity in the first argument
        x2 = rng.uniform(-5, 5, size=dim)
        t = rng.uniform()
        bl = bregman_distance(gen, t * x + (1 - t) * x2, y)
        assert bl <= t * b + (1 - t) * bregman_distance(gen, x2, y) + 1e-10


def test_check_generator_convexity_augmented():
    rep = check_generator_convexity(make_augmented_generator(1.0, 4), 4, probes=40, seed=0)
    assert rep.passed
    assert rep.details["min_ratio"] == pytest.approx(1.0, abs=1e-10)


def test_check_generator_convexity_zero():
    rep = check_generator_convexity(make_zero_generator(4), 4, probes=40, seed=0)
    assert rep.passed
    assert rep.details["min_ratio"] == pytest.approx(0.0, abs=1e-12)


def test_check_generator_convexity_linearization_on_sparse_group(sparse_group):
    p = sparse_group
    x = p.default_x0
    L1 = p.coupling.partial_lipschitz(x, 0)
    gen = make_linearization_generator(
        1.1 * L1,
        lambda u: p.coupling.value(x.with_block(0, u)),
        lambda u: p.coupling.partial_grad(x.with_block(0, u), 0),
        L1,
    )
    rep = check_generator_convexity(gen, p.block_dims[0], probes=30, seed=1, radius=2.0)
    assert rep.passed
    assert rep.details["min_ratio"] >= 0.1 * L1 - 1e-8


def test_check_generator_convexity_catches_overdeclared_modulus():
    # true modulus is 0.5 but the generator declares 1.0
    overdeclared = BregmanGenerator(
        value=lambda x: 0.25 * float(np.asarray(x) @ np.asarray(x)),
        gradient=lambda x: 0.5 * np.asarray(x, dtype=float),
        modulus_nu=1.0,
        lipschitz_L=1.0,
        label="overdeclared",
    )
    assert not check_generator_convexity(overdeclared, 2, probes=30, seed=0).passed
