import numpy as np
import pytest

from bam.blockvec import BlockVector
from bam.problem import (
    BlockTerm,
    CouplingOracle,
    Problem,
    build_multiblock_quadratic,
    build_separable_quadratic,
    build_sparse_group_instance,
)

GROUPS_8x5 = [list(range(i, i + 5)) for i in range(0, 40, 5)]


@pytest.fixture(scope="session")
def sep_quad():
    return build_separable_quadratic()


@pytest.fixture(scope="session")
def sparse_group():
    return build_sparse_group_instance(50, 40, GROUPS_8x5, seed=7, lambda1=0.1, lambda2=0.1)


@pytest.fixture(scope="session")
def multiblock():
    return build_multiblock_quadratic(4, seed=3)


def make_underdeclared_problem():
    """H = 5(y - z)^2 on scalar blocks, declaring L_i = 1 against a true 10."""
    coupling = CouplingOracle(
        value=lambda x: 5.0 * float((x.block(0)[0] - x.block(1)[0]) ** 2),
        partial_grad=lambda x, i: 10.0 * (x.block(i) - x.block(1 - i)),
        partial_lipschitz=lambda x, i: 1.0,
    )
    term = BlockTerm(value=lambda u: float(u @ u), prox=lambda v, tau: v / (1.0 + 2.0 * tau))
    return Problem(
        name="underdeclared",
        coupling=coupling,
        terms=(term, term),
        default_x0=BlockVector([("y", [0.0]), ("z", [1.0])]),
    )


def grid_min_1d(obj, lo=-5.0, hi=5.0, step=1e-4):
    """Brute-force 1-D minimizer on a regular grid."""
    grid = np.arange(lo, hi + step, step)
    return float(grid[np.argmin(obj(grid))])


def grid_min_2d(obj, center, halfwidth, step):
    """Brute-force 2-D minimizer on a regular grid around ``center``."""
    ga = np.arange(center[0] - halfwidth, center[0] + halfwidth + step, step)
    gb = np.arange(center[1] - halfwidth, center[1] + halfwidth + step, step)
    U = np.stack(np.meshgrid(ga, gb, indexing="ij"), axis=-1)
    vals = obj(U)
    return U[np.unravel_index(np.argmin(vals), vals.shape)]


def grid_min_2d_two_stage(obj, lo=-5.0, hi=5.0, fine_step=1e-3, coarse_step=0.02, final_step=1e-4):
    """Coarse grid over [lo, hi]^2, refined twice around each stage's argmin.

    Sound for strictly convex objectives (unique minimizer, no spurious
    coarse basins). The extra ``final_step`` stage matters for objectives
    with very anisotropic curvature, where a grid argmin can sit several
    steps away from the true minimizer along the flat direction.
    """
    center = grid_min_2d(obj, ((lo + hi) / 2, (lo + hi) / 2), (hi - lo) / 2, coarse_step)
    center = grid_min_2d(obj, center, 2.5 * coarse_step, fine_step)
    return grid_min_2d(obj, center, 2.5 * fine_step, final_step)


def mixed_point_corrections(p, x_prev, x_next, generators):
    """Residual corrections from their definition, one per block:

        c_i = grad phi_i(x_i^k) - grad phi_i(x_i^{k+1}) - grad_i H(mixed_i),

    where mixed_i holds blocks <= i at ``x_next`` and blocks > i at ``x_prev``.
    """
    out = []
    for i, gen in enumerate(generators):
        mixed = x_next
        for j in range(i + 1, p.n_blocks):
            mixed = mixed.with_block(j, x_prev.block(j))
        out.append(
            np.asarray(gen.gradient(x_prev.block(i)), dtype=float).ravel()
            - np.asarray(gen.gradient(x_next.block(i)), dtype=float).ravel()
            - np.asarray(p.coupling.partial_grad(mixed, i), dtype=float).ravel()
        )
    return out
