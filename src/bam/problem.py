"""Composite-problem data model and built-in instances.

A Problem couples a smooth term H over all blocks (value, per-block partial
gradients, per-block partial Lipschitz constants) with one possibly nonsmooth
term per block (value plus optional prox, closed-form coupled minimizer, and
subdifferential-distance certificate) and a default start point, whose blocks
give the problem's block ids and sizes. The empirical Lipschitz estimators
that test a problem's declared constants are in ``diagnostics``.

Built-in instances:

* ``multiblock_quadratic``  -- n >= 3 scalar blocks coupled pairwise,
  sum_{i<j} c_ij (x_i - x_j)^2 + sum_i (x_i - t_i)^2, with a dense linear
  solve giving the exact global minimizer.
* ``separable_quadratic``   -- (y-1)^2 + (y-z)^2 + (z+1)^2, the same coupled
  quadratic on two blocks (c_yz = 1, t = (1, -1)) from the same builder, so
  the same oracles and metadata; global minimizer (1/3, -1/3) with optimal
  value 4/3. Its ``_badgrad`` variant adds a +0.1 fault to grad_y H.
* ``sparse_group``          -- lam1*||y||_1 + ||Ay - z||^2 + lam2*||z||_{1,2}
  with a seeded Gaussian A; the z-subproblem has a closed-form groupwise
  shrinkage solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .blockvec import BlockVector
from .errors import EvaluationError, ParameterError, ShapeError
from .prox import group_norms, group_shrink, soft_threshold, validate_groups

Array = np.ndarray


@dataclass(frozen=True)
class CouplingOracle:
    """The smooth coupling H with its block-partial derivatives.

    ``partial_lipschitz(x, i)`` returns a Lipschitz bound for the map
    u -> grad_i H(..., u, ...) with the other blocks frozen at x.

    Oracle results may be shared read-only arrays: callers must not write
    into them (copy first). The built-in couplings keep their products in
    ``_memo``s keyed on the iterate or on one of its block arrays; the
    sparse_group grad_y H is its kept 2 A^T r itself.
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
    default_x0: BlockVector
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.terms) != self.default_x0.n_blocks:
            raise ShapeError("one BlockTerm per block is required")

    @property
    def block_ids(self) -> tuple[str, ...]:
        return self.default_x0.ids

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.default_x0.arrays)

    @property
    def n_blocks(self) -> int:
        return self.default_x0.n_blocks

    def zeros(self) -> BlockVector:
        return BlockVector([(bid, np.zeros(d)) for bid, d in zip(self.block_ids, self.block_dims)])

    def matches(self, x: BlockVector) -> bool:
        return x.same_structure(self.default_x0)


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


def _memo(fn: Callable) -> Callable:
    """``fn`` of one argument, keeping its value for the last argument, tested
    by identity (iterates and their block arrays are immutable). The slot is
    one tuple replaced in one assignment, so threads sharing the memo never
    pair an argument with another argument's value."""
    slot = (object(), None)

    def memo(key):
        nonlocal slot
        last, value = slot
        if last is not key:
            value = fn(key)
            slot = (key, value)
        return value

    return memo


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
    (or supplied explicitly for reproducibility; a supplied A must be finite).
    L1 = 2*lam_max(A^T A), from a dense symmetric eigensolve of the smaller of
    the Gram matrices A^T A and A A^T (they share their nonzero eigenvalues);
    L2 = 2 exactly. The z-subproblem

        min_z ||Ay - z||^2 + lam2*||z||_{1,2} + (alpha/2)||z - z_k||^2

    has the closed form: groupwise shrinkage of (2Ay + alpha*z_k)/(2+alpha)
    by lam2/(2+alpha). ``groups`` must partition range(n2) (``prox.validate_groups``).
    """
    if n1 < 1 or n2 < 1:
        raise ParameterError("n1 and n2 must be >= 1")
    if not all(math.isfinite(lam) and lam > 0 for lam in (lambda1, lambda2)):
        raise ParameterError("lambda1 and lambda2 must be positive and finite")
    gid = validate_groups(groups, n2)

    if a_matrix is not None:
        A = np.asarray(a_matrix, dtype=float)
        if A.shape != (n2, n1):
            raise ShapeError(f"A must be {n2}x{n1}, got {A.shape}")
        if not np.isfinite(A).all():
            raise ParameterError("A must be finite, got a NaN or infinite entry")
    else:
        A = np.random.default_rng(seed).standard_normal((n2, n1))

    gram = A @ A.T if n2 <= n1 else A.T @ A
    lam_max = float(np.linalg.eigvalsh(gram)[-1])
    L1 = 2.0 * lam_max
    L2 = 2.0

    # A y is keyed on the y array, so iterates that differ only in z share it;
    # r = Ay - z and 2 A^T r on the iterate. Only the read-only gradient leaves.
    @_memo
    def a_times(y: Array) -> Array:
        return A @ y

    @_memo
    def residual(x: BlockVector) -> Array:
        y, z = x.arrays
        return a_times(y) - z

    @_memo
    def grad_y(x: BlockVector) -> Array:
        g = 2.0 * (A.T @ residual(x))
        g.setflags(write=False)
        return g

    def h_value(x: BlockVector) -> float:
        r = residual(x)
        return float(r @ r)

    def h_grad(x: BlockVector, i: int) -> Array:
        return grad_y(x) if i == 0 else -2.0 * residual(x)

    coupling = CouplingOracle(
        value=h_value,
        partial_grad=h_grad,
        partial_lipschitz=lambda x, i: L1 if i == 0 else L2,
    )

    def z_exact(x: BlockVector, i: int, alpha: float) -> Array:
        w = (2.0 * a_times(x.block(0)) + alpha * x.block(1)) / (2.0 + alpha)
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


def _coupled_quadratic(name: str, block_ids: Sequence[str], C: Array, t: Array) -> Problem:
    """Scalar blocks with H(x) = sum_{i<j} c_ij (x_i - x_j)^2 and
    f_i(x_i) = (x_i - t_i)^2, for a symmetric C with zero diagonal; the
    problem ``name`` with one block per id in ``block_ids``, started at 0.

    The global minimizer solves the positive-definite system
    (I + Laplacian(C)) x = t; the metadata holds it with ``phi_star``,
    ``couplings`` C, ``targets`` t and ``cross_lipschitz``. The oracles read
    the iterate's flat array from one ``_memo`` keyed on the iterate.
    """
    row_sum = C.sum(axis=1)

    @_memo
    def flat(x: BlockVector) -> Array:
        return x.to_flat()

    def h_value(x: BlockVector) -> float:
        xs = flat(x)
        diff = xs[:, None] - xs[None, :]
        return 0.5 * float(np.sum(C * diff**2))  # each pair counted twice in C

    def h_grad(x: BlockVector, i: int) -> Array:
        xs = flat(x)
        return np.array([2.0 * float(C[i] @ (xs[i] - xs))])

    coupling = CouplingOracle(
        value=h_value,
        partial_grad=h_grad,
        partial_lipschitz=lambda x, i: 2.0 * float(row_sum[i]),
    )

    def make_term(i: int) -> BlockTerm:
        ti = float(t[i])

        def exact(x: BlockVector, _i: int, alpha: float) -> Array:
            xs = flat(x)
            num = 2.0 * ti + 2.0 * float(C[i] @ xs) + alpha * xs[i]
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

    prob = Problem(
        name=name,
        coupling=coupling,
        terms=tuple(make_term(i) for i in range(t.size)),
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


def build_separable_quadratic() -> Problem:
    """Desk-scale fixture: f(y)=(y-1)^2, H=(y-z)^2, g(z)=(z+1)^2.

    The two-block coupled quadratic with c_yz = 1 and targets (1, -1).
    """
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    return _coupled_quadratic("separable_quadratic", ("y", "z"), C, np.array([1.0, -1.0]))


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

    return replace(
        base,
        name="separable_quadratic_badgrad",
        coupling=replace(base.coupling, partial_grad=bad_grad),
        metadata={"fault": ("y", 0)},
    )


def build_multiblock_quadratic(n_blocks: int = 3, seed: int = 0) -> Problem:
    """The coupled quadratic of ``_coupled_quadratic`` on n >= 3 scalar blocks.

    The couplings c_ij in [0.1, 1] and then the targets t_i in [-1, 1] are
    drawn from ``seed``.
    """
    if n_blocks < 3:
        raise ParameterError(f"n_blocks must be >= 3, got {n_blocks}")
    rng = np.random.default_rng(seed)
    C = np.zeros((n_blocks, n_blocks))
    iu = np.triu_indices(n_blocks, k=1)
    C[iu] = rng.uniform(0.1, 1.0, size=len(iu[0]))
    C = C + C.T
    t = rng.uniform(-1.0, 1.0, size=n_blocks)
    return _coupled_quadratic("multiblock_quadratic", [f"x{i + 1}" for i in range(n_blocks)], C, t)
