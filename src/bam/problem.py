"""Composite-problem data model and built-in instances.

A Problem couples a smooth term H over all blocks (value, per-block partial
gradients, per-block partial Lipschitz constants) with one possibly nonsmooth
term per block (value plus optional prox, closed-form coupled minimizer, and
subdifferential-distance certificate).

Built-in instances:

* ``separable_quadratic``   -- (y-1)^2 + (y-z)^2 + (z+1)^2, everything in
  closed form; global minimizer (1/3, -1/3) with optimal value 4/3.
* ``sparse_group``          -- lam1*||y||_1 + ||Ay - z||^2 + lam2*||z||_{1,2}
  with a seeded Gaussian A; the z-subproblem has a closed-form groupwise
  shrinkage solution.
* ``multiblock_quadratic``  -- n >= 3 scalar blocks coupled pairwise, with a
  dense linear solve giving the exact global minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .blockvec import BlockVector
from .errors import EstimationError, EvaluationError, ParameterError, ShapeError
from .prox import group_norms, group_shrink, soft_threshold, validate_groups

Array = np.ndarray


@dataclass(frozen=True)
class CouplingOracle:
    """The smooth coupling H with its block-partial derivatives.

    ``partial_lipschitz(x, i)`` returns a Lipschitz bound for the map
    u -> grad_i H(..., u, ...) with the other blocks frozen at x.
    """

    value: Callable[[BlockVector], float]
    partial_grad: Callable[[BlockVector, int], Array]
    partial_lipschitz: Callable[[BlockVector, int], float]


@dataclass(frozen=True)
class BlockTerm:
    """Per-block term f_i with its optional solver oracles.

    prox(v, tau) minimizes tau*f_i(u) + 0.5*||u - v||^2.
    exact_coupled_min(x, i, aug_alpha) solves the coupled block subproblem
      min_u H(..., u, ...) + f_i(u) + (aug_alpha/2)*||u - x_i||^2
    in closed form (aug_alpha = 0 recovers plain exact minimization).
    subdiff_certificate(x_i, g) returns the distance from -g to the
    subdifferential of f_i at x_i.
    """

    value: Callable[[Array], float]
    prox: Optional[Callable[[Array, float], Array]] = None
    exact_coupled_min: Optional[Callable[[BlockVector, int, float], Array]] = None
    subdiff_certificate: Optional[Callable[[Array, Array], float]] = None


@dataclass(frozen=True)
class Problem:
    name: str
    coupling: CouplingOracle
    terms: tuple[BlockTerm, ...]
    block_ids: tuple[str, ...]
    block_dims: tuple[int, ...]
    default_x0: BlockVector
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.terms) != len(self.block_ids):
            raise ShapeError("one BlockTerm per block is required")
        if len(self.block_dims) != len(self.block_ids):
            raise ShapeError("one dimension per block is required")

    @property
    def n_blocks(self) -> int:
        return len(self.block_ids)

    def zeros(self) -> BlockVector:
        return BlockVector([(bid, np.zeros(d)) for bid, d in zip(self.block_ids, self.block_dims)])

    def matches(self, x: BlockVector) -> bool:
        return x.ids == self.block_ids and tuple(a.size for a in x.arrays) == self.block_dims


def phi_value(p: Problem, x: BlockVector) -> float:
    """Full objective H(x) + sum_i f_i(x_i)."""
    if not p.matches(x):
        raise ShapeError(f"iterate structure does not match problem {p.name!r}")
    total = float(p.coupling.value(x))
    if not math.isfinite(total):
        raise EvaluationError(f"coupling value is non-finite on {p.name!r}")
    for i, term in enumerate(p.terms):
        v = float(term.value(x.block(i)))
        if not math.isfinite(v):
            raise EvaluationError(f"block term {p.block_ids[i]!r} is non-finite")
        total += v
    return total


# --------------------------------------------------------------------------
# certificate helpers (distance from -g to the subdifferential of the term)


def l1_certificate(lam: float) -> Callable[[Array, Array], float]:
    def cert(xi: Array, g: Array) -> float:
        xi = np.asarray(xi, dtype=float)
        g = np.asarray(g, dtype=float)
        d = np.where(
            xi != 0.0,
            np.abs(-g - lam * np.sign(xi)),
            np.maximum(np.abs(g) - lam, 0.0),
        )
        return float(np.linalg.norm(d))

    return cert


def group_l2_certificate(lam: float, gid: Array) -> Callable[[Array, Array], float]:
    """Certificate for lam*sum_g ||x_g|| over group labels: group g's distance is
    ||g_g + lam*x_g/||x_g|||| if x_g != 0, else max(||g_g|| - lam, 0)."""

    def cert(xi: Array, g: Array) -> float:
        xi = np.asarray(xi, dtype=float).ravel()
        g = np.asarray(g, dtype=float).ravel()
        nx = group_norms(xi, gid)
        nonzero = nx > 0.0
        d_nonzero = group_norms(g + lam * xi / np.where(nonzero, nx, 1.0)[gid], gid)
        d_zero = np.maximum(group_norms(g, gid) - lam, 0.0)
        return float(np.linalg.norm(np.where(nonzero, d_nonzero, d_zero)))

    return cert


def smooth_certificate(grad: Callable[[Array], Array]) -> Callable[[Array, Array], float]:
    def cert(xi: Array, g: Array) -> float:
        return float(np.linalg.norm(-np.asarray(g, dtype=float) - np.asarray(grad(xi), dtype=float)))

    return cert


# --------------------------------------------------------------------------
# built-in instances


def build_separable_quadratic() -> Problem:
    """Desk-scale fixture: f(y)=(y-1)^2, H=(y-z)^2, g(z)=(z+1)^2."""

    def h_value(x: BlockVector) -> float:
        y, z = x.block(0)[0], x.block(1)[0]
        return (y - z) ** 2

    def h_grad(x: BlockVector, i: int) -> Array:
        y, z = x.block(0)[0], x.block(1)[0]
        g = 2.0 * (y - z)
        return np.array([g if i == 0 else -g])

    coupling = CouplingOracle(
        value=h_value,
        partial_grad=h_grad,
        partial_lipschitz=lambda x, i: 2.0,
    )

    def y_exact(x: BlockVector, i: int, alpha: float) -> Array:
        yk, z = x.block(0)[0], x.block(1)[0]
        return np.array([(2.0 + 2.0 * z + alpha * yk) / (4.0 + alpha)])

    def z_exact(x: BlockVector, i: int, alpha: float) -> Array:
        y, zk = x.block(0)[0], x.block(1)[0]
        return np.array([(-2.0 + 2.0 * y + alpha * zk) / (4.0 + alpha)])

    term_y = BlockTerm(
        value=lambda u: float((u[0] - 1.0) ** 2),
        prox=lambda v, tau: (np.asarray(v, dtype=float) + 2.0 * tau) / (1.0 + 2.0 * tau),
        exact_coupled_min=y_exact,
        subdiff_certificate=smooth_certificate(lambda u: 2.0 * (np.asarray(u, dtype=float) - 1.0)),
    )
    term_z = BlockTerm(
        value=lambda u: float((u[0] + 1.0) ** 2),
        prox=lambda v, tau: (np.asarray(v, dtype=float) - 2.0 * tau) / (1.0 + 2.0 * tau),
        exact_coupled_min=z_exact,
        subdiff_certificate=smooth_certificate(lambda u: 2.0 * (np.asarray(u, dtype=float) + 1.0)),
    )

    return Problem(
        name="separable_quadratic",
        coupling=coupling,
        terms=(term_y, term_z),
        block_ids=("y", "z"),
        block_dims=(1, 1),
        default_x0=BlockVector([("y", [0.0]), ("z", [0.0])]),
        metadata={
            "minimizer": np.array([1.0 / 3.0, -1.0 / 3.0]),
            "phi_star": 4.0 / 3.0,
            "cross_lipschitz": 2.0,
        },
    )


def build_sparse_group_instance(
    n1: int,
    n2: int,
    groups: Sequence[Sequence[int]],
    seed: int = 0,
    lambda1: float = 0.1,
    lambda2: float = 0.1,
    a_matrix: Optional[Array] = None,
) -> Problem:
    """The l1 / group-l2 regression model lam1*||y||_1 + ||Ay-z||^2 + lam2*||z||_{1,2}.

    A is n2 x n1 with i.i.d. standard normal entries drawn from ``seed``
    (or supplied explicitly for reproducibility). L1 = 2*lam_max(A^T A), from a
    dense symmetric eigensolve of the smaller of the Gram matrices A^T A and
    A A^T (they share their nonzero eigenvalues); L2 = 2 exactly. The z-subproblem

        min_z ||Ay - z||^2 + lam2*||z||_{1,2} + (alpha/2)||z - z_k||^2

    has the closed form: groupwise shrinkage of (2Ay + alpha*z_k)/(2+alpha)
    by lam2/(2+alpha). ``groups`` must partition range(n2) (``prox.validate_groups``).
    """
    if n1 < 1 or n2 < 1:
        raise ParameterError("n1 and n2 must be >= 1")
    if lambda1 <= 0 or lambda2 <= 0:
        raise ParameterError("lambda1 and lambda2 must be positive")
    gid = validate_groups(groups, n2)

    if a_matrix is not None:
        A = np.asarray(a_matrix, dtype=float)
        if A.shape != (n2, n1):
            raise ShapeError(f"A must be {n2}x{n1}, got {A.shape}")
    else:
        A = np.random.default_rng(seed).standard_normal((n2, n1))

    gram = A @ A.T if n2 <= n1 else A.T @ A
    lam_max = float(np.linalg.eigvalsh(gram)[-1])
    L1 = 2.0 * lam_max
    L2 = 2.0

    def residual(x: BlockVector) -> Array:
        return A @ x.block(0) - x.block(1)

    def h_value(x: BlockVector) -> float:
        r = residual(x)
        return float(r @ r)

    def h_grad(x: BlockVector, i: int) -> Array:
        r = residual(x)
        return 2.0 * (A.T @ r) if i == 0 else -2.0 * r

    coupling = CouplingOracle(
        value=h_value,
        partial_grad=h_grad,
        partial_lipschitz=lambda x, i: L1 if i == 0 else L2,
    )

    def z_exact(x: BlockVector, i: int, alpha: float) -> Array:
        w = (2.0 * (A @ x.block(0)) + alpha * x.block(1)) / (2.0 + alpha)
        return group_shrink(w, gid, lambda2 / (2.0 + alpha))

    term_y = BlockTerm(
        value=lambda u: lambda1 * float(np.sum(np.abs(u))),
        prox=lambda v, tau: soft_threshold(v, tau * lambda1),
        subdiff_certificate=l1_certificate(lambda1),
    )
    term_z = BlockTerm(
        value=lambda u: lambda2 * float(np.sum(group_norms(u, gid))),
        prox=lambda v, tau: group_shrink(v, gid, tau * lambda2),
        exact_coupled_min=z_exact,
        subdiff_certificate=group_l2_certificate(lambda2, gid),
    )

    x0_rng = np.random.default_rng([seed, 1])
    default_x0 = BlockVector(
        [("y", x0_rng.standard_normal(n1)), ("z", x0_rng.standard_normal(n2))]
    )

    return Problem(
        name="sparse_group",
        coupling=coupling,
        terms=(term_y, term_z),
        block_ids=("y", "z"),
        block_dims=(n1, n2),
        default_x0=default_x0,
        metadata={
            "A": A,
            "groups": [list(map(int, g)) for g in groups],
            "lambda1": lambda1,
            "lambda2": lambda2,
            "L1": L1,
            "L2": L2,
            "cross_lipschitz": 2.0 * math.sqrt(lam_max),
        },
    )


def build_multiblock_quadratic(
    n_blocks: int,
    seed: int = 0,
    couplings: Optional[Array] = None,
    targets: Optional[Array] = None,
) -> Problem:
    """n scalar blocks with pairwise quadratic coupling and quadratic terms.

    H(x) = sum_{i<j} c_ij (x_i - x_j)^2 with c_ij in [0.1, 1],
    f_i(x_i) = (x_i - t_i)^2 with t_i in [-1, 1]. The global minimizer solves
    the positive-definite system (I + Laplacian(c)) x = t.
    """
    if n_blocks < 3:
        raise ParameterError(f"n_blocks must be >= 3, got {n_blocks}")
    rng = np.random.default_rng(seed)
    if couplings is None:
        C = np.zeros((n_blocks, n_blocks))
        iu = np.triu_indices(n_blocks, k=1)
        C[iu] = rng.uniform(0.1, 1.0, size=len(iu[0]))
        C = C + C.T
    else:
        C = np.asarray(couplings, dtype=float)
        if C.shape != (n_blocks, n_blocks) or not np.allclose(C, C.T):
            raise ShapeError("couplings must be a symmetric n x n matrix")
        C = C * (1.0 - np.eye(n_blocks))
    if targets is None:
        t = rng.uniform(-1.0, 1.0, size=n_blocks)
    else:
        t = np.asarray(targets, dtype=float).ravel()
        if t.size != n_blocks:
            raise ShapeError("targets must have one entry per block")

    row_sum = C.sum(axis=1)

    def h_value(x: BlockVector) -> float:
        xs = x.to_flat()
        diff = xs[:, None] - xs[None, :]
        return 0.5 * float(np.sum(C * diff**2))  # each pair counted twice in C

    def h_grad(x: BlockVector, i: int) -> Array:
        xs = x.to_flat()
        return np.array([2.0 * float(C[i] @ (xs[i] - xs))])

    coupling = CouplingOracle(
        value=h_value,
        partial_grad=h_grad,
        partial_lipschitz=lambda x, i: 2.0 * float(row_sum[i]),
    )

    def make_term(i: int) -> BlockTerm:
        ti = float(t[i])

        def exact(x: BlockVector, _i: int, alpha: float) -> Array:
            xs = x.to_flat()
            num = 2.0 * ti + 2.0 * float(C[i] @ xs) - 2.0 * C[i, i] * xs[i] + alpha * xs[i]
            den = 2.0 + 2.0 * float(row_sum[i]) + alpha
            return np.array([num / den])

        return BlockTerm(
            value=lambda u: float((u[0] - ti) ** 2),
            prox=lambda v, tau: (np.asarray(v, dtype=float) + 2.0 * tau * ti) / (1.0 + 2.0 * tau),
            exact_coupled_min=exact,
            subdiff_certificate=smooth_certificate(
                lambda u, ti=ti: 2.0 * (np.asarray(u, dtype=float) - ti)
            ),
        )

    M = np.diag(1.0 + row_sum) - C
    minimizer = np.linalg.solve(M, t)

    block_ids = tuple(f"x{i+1}" for i in range(n_blocks))
    prob = Problem(
        name="multiblock_quadratic",
        coupling=coupling,
        terms=tuple(make_term(i) for i in range(n_blocks)),
        block_ids=block_ids,
        block_dims=(1,) * n_blocks,
        default_x0=BlockVector([(bid, [0.0]) for bid in block_ids]),
        metadata={
            "couplings": C,
            "targets": t,
            "minimizer": minimizer,
            "cross_lipschitz": 2.0 * float(row_sum.max()),
        },
    )
    prob.metadata["phi_star"] = phi_value(
        prob, BlockVector([(bid, [minimizer[i]]) for i, bid in enumerate(block_ids)])
    )
    return prob


def build_separable_quadratic_badgrad() -> Problem:
    """Separable quadratic with a +0.1 fault injected into grad_y H.

    Exists so gradient checking has a known-bad fixture to localize.
    """
    base = build_separable_quadratic()

    def bad_grad(x: BlockVector, i: int) -> Array:
        g = base.coupling.partial_grad(x, i)
        if i == 0:
            g = g + 0.1
        return g

    return Problem(
        name="separable_quadratic_badgrad",
        coupling=CouplingOracle(
            value=base.coupling.value,
            partial_grad=bad_grad,
            partial_lipschitz=base.coupling.partial_lipschitz,
        ),
        terms=base.terms,
        block_ids=base.block_ids,
        block_dims=base.block_dims,
        default_x0=base.default_x0,
        metadata={"fault": ("y", 0)},
    )


def _max_gradient_ratio(
    p: Problem, x: BlockVector, grad_block: int, vary_block: int, probes: int, seed: int
) -> float:
    """Largest ||grad_i H(u) - grad_i H(w)|| / ||u - w|| over ``probes`` seeded pairs.

    i is ``grad_block``; u and w move block ``vary_block`` of ``x`` by
    standard-normal draws and keep the other blocks at ``x``. Degenerate pairs
    are redrawn; 100 of them raise ``EstimationError``.
    """
    rng = np.random.default_rng(seed)
    dim = p.block_dims[vary_block]
    base = x.block(vary_block)
    worst = 0.0
    failures = 0
    done = 0
    while done < probes:
        du = rng.standard_normal(dim)
        dw = rng.standard_normal(dim)
        denom = float(np.linalg.norm(du - dw))
        if denom < 1e-12:
            failures += 1
            if failures >= 100:
                raise EstimationError("could not sample non-degenerate probe pairs")
            continue
        gu = p.coupling.partial_grad(x.with_block(vary_block, base + du), grad_block)
        gw = p.coupling.partial_grad(x.with_block(vary_block, base + dw), grad_block)
        worst = max(worst, float(np.linalg.norm(np.asarray(gu) - np.asarray(gw))) / denom)
        done += 1
    return worst


def estimate_partial_lipschitz(
    p: Problem,
    x: BlockVector,
    i: int,
    probes: int = 20,
    seed: int = 0,
    safety: float = 1.5,
) -> float:
    """Empirical bound on the block-i partial gradient Lipschitz constant.

    Samples probe pairs in block i around ``x`` with the other blocks fixed,
    takes the largest ratio ||grad_i H(u) - grad_i H(w)|| / ||u - w||, and
    multiplies by a safety factor. The result is capped at the declared
    constant when the coupling exposes one.
    """
    if probes < 2:
        raise ParameterError("probes must be >= 2")
    est = safety * _max_gradient_ratio(p, x, i, i, probes, seed)
    declared = p.coupling.partial_lipschitz(x, i)
    if declared is not None and math.isfinite(declared):
        est = min(est, float(declared))
    return est
