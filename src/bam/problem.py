"""Composite-problem data model and built-in instances.

A Problem couples a smooth term H over all blocks (value, per-block partial
gradients, per-block partial Lipschitz constants) with one possibly nonsmooth
term per block (value plus optional prox, closed-form coupled minimizer, and
subdifferential-distance certificate) and a default start point, whose blocks
give the problem's block ids and sizes. The empirical Lipschitz estimators
that test a problem's declared constants are in ``diagnostics``.

Every built-in H is one least-squares coupling ||sum_i A_i x_i||^2 from
``_least_squares``, which owns H, its gradients, ``restrict`` and one
exact-step rule, a prox of f_i, for every block with A_i^T A_i = s_i I; each
family gives only its A, as functions of the block arrays and of r:

* ``sparse_group``  -- lam1*||y||_1 + ||Ay - z||^2 + lam2*||z||_{1,2} with a
  seeded Gaussian A and A_z = -I; the exact z step is groupwise shrinkage,
  and with one column in A the exact y step is a soft threshold.
* ``multiblock_quadratic`` -- n >= 3 scalar blocks coupled pairwise,
  sum_{i<j} c_ij (x_i - x_j)^2 + sum_i (x_i - t_i)^2: H = ||D x||^2 with one
  row sqrt(c_ij) (e_i - e_j) per pair, D kept implicit; a dense solve gives
  the minimizer.
* ``separable_quadratic`` -- (y-1)^2 + (y-z)^2 + (z+1)^2, the same on two
  blocks (c_yz = 1, t = (1, -1)); minimizer (1/3, -1/3), value 4/3. Its
  ``_badgrad`` variant adds a +0.1 fault to grad_y H and drops ``restrict``.
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

    ``restrict(x, i)``, optional, returns the pair (value(u), grad(u)) of H
    and grad_i H as functions of block i's bare 1-D array u, the other blocks
    frozen at x, so the inner solver builds no iterate per point. It must
    return the same floats as ``value`` and ``partial_grad`` on
    ``x.with_block(i, u)`` and do no array work until the pair is called.
    Without it the engine wraps each point with ``with_block``. Code that
    replaces ``value`` or ``partial_grad`` on a coupling with a ``restrict``
    must replace or drop ``restrict`` too, or the engine's inner solves and
    linearization generators keep the old oracles.

    Oracle results, ``restrict``'s included, may be shared read-only arrays:
    callers must not write into them (copy first). The built-in couplings keep
    their products in ``_memo``s keyed on the iterate, its ``arrays`` tuple, one
    of its block arrays or a kept product (``_least_squares``).
    """

    value: Callable[[BlockVector], float]
    partial_grad: Callable[[BlockVector, int], Array]
    partial_lipschitz: Callable[[BlockVector, int], float]
    restrict: Optional[
        Callable[[BlockVector, int], tuple[Callable[[Array], float], Callable[[Array], Array]]]
    ] = None


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


def _sq(r: Array) -> float:
    return float(r @ r)


def _least_squares(forward, adjoint, s, cross, prox):
    """H = ||r||^2 for the residual r = forward(arrays) = sum_i A_i x_i, as
    (coupling, exact); ``arrays`` are an iterate's block arrays.

    The caller gives A: adjoint(r, i) = 2 A_i^T r, s[i] = ||A_i||^2 (L_i = 2 s_i;
    a non-finite one raises ParameterError) and, for the blocks with
    A_i^T A_i = s_i I, a prox[i] (None elsewhere) and cross(arrays, i) =
    -A_i^T r_{-i}, formed from the other blocks, not as r - A_i x_i, whose
    subtraction rounds. r is kept on the iterate and each read-only grad_i H,
    once asked for, on r. ``restrict`` covers every block. ``exact(x, i,
    alpha)`` is u = prox[i](v, 1/(2 s_i + alpha)) for v = (2 cross + alpha
    x_i)/(2 s_i + alpha); a block without a prox raises ParameterError.
    """
    L = [2.0 * si for si in s]
    if not all(map(math.isfinite, L)):
        raise ParameterError(f"A is too large: the L_i = 2*lam_max(A_i^T A_i) are {L}, not all finite")
    residual = _memo(lambda x: forward(x.arrays))
    kept = _memo(lambda r: [None] * len(s))

    def partial_grad(x: BlockVector, i: int) -> Array:
        r = residual(x)
        grads = kept(r)
        g = grads[i]
        if g is None:  # a thread racing here computes the same floats
            g = adjoint(r, i)
            g.setflags(write=False)
            grads[i] = g
        return g

    # the same float operations as value and partial_grad on x.with_block(i, u)
    def restrict(x: BlockVector, i: int):
        head, tail = x.arrays[:i], x.arrays[i + 1:]
        return (lambda u: _sq(forward(head + (u,) + tail)),
                lambda u: adjoint(forward(head + (u,) + tail), i))

    def exact(x: BlockVector, i: int, alpha: float) -> Array:
        if prox[i] is None:
            raise ParameterError(f"block {i} has no exact step: A_i^T A_i is not a multiple of I")
        den = 2.0 * s[i] + alpha
        return prox[i]((2.0 * cross(x.arrays, i) + alpha * x.block(i)) / den, 1.0 / den)

    coupling = CouplingOracle(
        value=lambda x: _sq(residual(x)),
        partial_grad=partial_grad,
        partial_lipschitz=lambda x, i: L[i],
        restrict=restrict,
    )
    return coupling, exact


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
    H is ``_least_squares`` with A_y = A and A_z = -I, so L1 = 2*lam_max(A^T A),
    from an eigensolve of the smaller Gram matrix, L2 = 2, and the exact z
    step is groupwise shrinkage of (2Ay + alpha*z_k)/(2+alpha) by
    lam2/(2+alpha). With n1 = 1, A^T A = lam_max, and y has an exact step too:
    soft thresholding of (2A^T z + alpha*y_k)/(2 lam_max + alpha) by
    lam1/(2 lam_max + alpha). ``groups`` must partition range(n2) (``prox.validate_groups``).
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

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises in _least_squares
        gram = A @ A.T if n2 <= n1 else A.T @ A
        lam_max = float(np.linalg.eigvalsh(gram)[-1]) if np.isfinite(gram).all() else math.inf

    a_times, AT = _memo(A.__matmul__), A.T  # A y kept on y: iterates differing in z share it
    y_prox = lambda v, tau: soft_threshold(v, tau * lambda1)
    z_prox = lambda v, tau: group_shrink(v, gid, tau * lambda2)
    scalar_y = n1 == 1  # one column: A^T A = lam_max I, so y has an exact step too
    coupling, exact = _least_squares(
        lambda arrays: a_times(arrays[0]) - arrays[1],
        lambda r, i: 2.0 * (AT @ r) if i == 0 else -2.0 * r,
        (lam_max, 1.0),
        lambda arrays, i: AT @ arrays[1] if i == 0 else a_times(arrays[0]),
        (y_prox if scalar_y else None, z_prox),
    )
    term_y = BlockTerm(
        value=lambda u: lambda1 * float(np.sum(np.abs(u))),
        prox=y_prox,
        exact_coupled_min=exact if scalar_y else None,
        subdiff_certificate=l1_certificate(lambda1),
    )
    term_z = BlockTerm(
        value=lambda u: lambda2 * float(np.sum(group_norms(u, gid))),
        prox=z_prox,
        exact_coupled_min=exact,
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
            "L1": 2.0 * lam_max,
            "L2": 2.0,
            "cross_lipschitz": 2.0 * math.sqrt(lam_max),
        },
    )


def _pairs(n: int) -> tuple[Array, Array]:
    """The pairs i < j of range(n) in row order: ``np.triu_indices(n, 1)``, faster."""
    return np.nonzero(np.arange(n)[:, None] < np.arange(n))


def _coupled_quadratic(name: str, block_ids: Sequence[str], C: Array, t: Array) -> Problem:
    """Scalar blocks with H(x) = sum_{i<j} c_ij (x_i - x_j)^2 and
    f_i(x_i) = (x_i - t_i)^2, for a symmetric C with zero diagonal; the
    problem ``name`` with one block per id in ``block_ids``, started at 0.

    H is ``_least_squares`` on ||D x||^2, D with one row sqrt(c_ij) (e_i - e_j)
    per pair i < j, kept implicit in O(n^2) like C: r over the pairs, 2 A_i^T r
    from the pairs that hold i, -A_i^T r_{-i} = C[i] @ x, s_i = row i's sum.
    The global minimizer solves the positive-definite system
    (I + Laplacian(C)) x = t; the metadata holds it with ``phi_star``,
    ``couplings`` C, ``targets`` t and ``cross_lipschitz``.
    """
    first, second = _pairs(t.size)
    root = np.sqrt(C[first, second])
    # row i: 2 A_i^T as n entries, the residual index of each pair (i, j) and its weight
    at, weight = np.zeros(C.shape, np.intp), np.zeros(C.shape)
    at[first, second] = at[second, first] = np.arange(root.size)
    weight[first, second], weight[second, first] = 2.0 * root, -2.0 * root
    row_sum = C.sum(axis=1)
    flat = _memo(np.concatenate)  # the flat iterate, kept on its arrays

    def forward(arrays):
        xs = flat(arrays)
        return root * (xs[first] - xs[second])

    targets = t.tolist()
    prox = [lambda v, tau, ti=ti: (np.asarray(v, dtype=float) + 2.0 * tau * ti) / (1.0 + 2.0 * tau)
            for ti in targets]
    coupling, exact = _least_squares(forward, lambda r, i: weight[i:i + 1] @ r[at[i]],
                                     row_sum.tolist(), lambda arrays, i: C[i] @ flat(arrays), prox)
    terms = tuple(
        BlockTerm(
            value=lambda u, ti=ti: float((u[0] - ti) ** 2),
            prox=prox[i],
            exact_coupled_min=exact,
            subdiff_certificate=lambda u, g, ti=ti: abs(float(g[0]) + 2.0 * (float(u[0]) - ti)),
        )
        for i, ti in enumerate(targets)
    )

    minimizer = np.linalg.solve(np.diag(1.0 + row_sum) - C, t)
    prob = Problem(
        name=name,
        coupling=coupling,
        terms=terms,
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
        coupling=replace(base.coupling, partial_grad=bad_grad, restrict=None),
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
    iu = _pairs(n_blocks)
    C[iu] = rng.uniform(0.1, 1.0, size=len(iu[0]))
    C = C + C.T
    t = rng.uniform(-1.0, 1.0, size=n_blocks)
    return _coupled_quadratic("multiblock_quadratic", [f"x{i + 1}" for i in range(n_blocks)], C, t)
