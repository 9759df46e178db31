"""Proximal maps, the group-norm kernel and the inner subproblem solver for block updates.

``inner_exact_min`` is FISTA with gradient-based restart, started at the
block's anchor. It stops on the prox-gradient residual at the extrapolated
point, either below an absolute tolerance or small against the distance moved
from the anchor, and can return the subgradient its last step certifies. Its
objective need not fall at every iterate; its result is never worse than the
anchor, which it returns flagged "ascent-rejected" otherwise.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EvaluationError, ParameterError, ShapeError

Array = np.ndarray


def validate_groups(groups: Sequence[Sequence[int]], n: int) -> Array:
    """Check that the integer lists ``groups`` partition range(n), each index
    in exactly one group; return the labels gid, gid[i] = j for i in groups[j]."""
    members = [np.asarray(list(g)) for g in groups]
    for m in members:
        if m.size == 0 or m.ndim != 1 or m.dtype.kind not in "iu" or m.min() < 0 or m.max() >= n:
            raise ParameterError(
                f"each group must be a non-empty list of integers in range({n}), got {m.tolist()}"
            )
    idx = np.concatenate([np.zeros(0, np.intp)] + [m.astype(np.intp) for m in members])
    counts = np.bincount(idx, minlength=n)
    if np.any(counts != 1):
        i = int(np.flatnonzero(counts != 1)[0])
        raise ParameterError(f"groups must partition range({n}); index {i} occurs {counts[i]} times")
    gid = np.empty(n, dtype=np.intp)
    gid[idx] = np.repeat(np.arange(len(members)), [m.size for m in members])
    return gid


def group_norms(v: Array, gid: Array) -> Array:
    """Euclidean norm of each group of ``v`` under the labels from ``validate_groups``."""
    v = np.asarray(v, dtype=float).ravel()
    return np.sqrt(np.bincount(gid, weights=v * v))


def soft_threshold(v: Array, tau: float) -> Array:
    """Componentwise shrinkage: minimizes tau*||u||_1 + 0.5*||u - v||^2."""
    if not tau > 0:  # a NaN tau fails too
        raise ParameterError(f"tau must be positive, got {tau}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def group_shrink(v: Array, gid: Array, tau: float) -> Array:
    """Scale group g of ``v`` by max(1 - tau/||v_g||, 0), tau > 0; a zero group stays zero."""
    v = np.asarray(v, dtype=float).ravel()
    # max(||v_g||, tau) gives exactly 0 when ||v_g|| <= tau, with no division by zero
    scale = 1.0 - tau / np.maximum(group_norms(v, gid), tau)
    return scale[gid] * v


def group_soft_threshold(v: Array, groups: Sequence[Sequence[int]], tau: float) -> Array:
    """Groupwise shrinkage: minimizes tau*sum_g ||u_g|| + 0.5*||u - v||^2.

    A group with ||v_g|| = 0 maps to 0 (removable singularity).
    """
    if not tau > 0:  # a NaN tau fails too
        raise ParameterError(f"tau must be positive, got {tau}")
    return group_shrink(v, validate_groups(groups, np.size(v)), tau)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is detected and rejected below
def inner_exact_min(
    smooth_value: Callable[[Array], float],
    smooth_grad: Callable[[Array], Array],
    smooth_lipschitz: float,
    f_value: Callable[[Array], float],
    f_prox: Callable[[Array, float], Array],
    anchor: Array,
    tol: float,
    max_iter: int,
    sigma: float = 0.0,
    info: Optional[dict] = None,
) -> tuple[Array, str]:
    """Accelerated proximal-gradient solve of min_u S(u) + f(u), started at ``anchor``.

    FISTA (Beck & Teboulle 2009) with gradient-based adaptive restart
    (O'Donoghue & Candes 2015) and constant step 1/L, L = ``smooth_lipschitz``;
    S is ``smooth_value``. Each iteration calls ``smooth_grad`` once, at the
    extrapolated point y, and takes w = prox(y - grad S(y)/L). It stops with
    "converged" when the prox-gradient residual at y, L*||w - y||, drops to
    max(``tol``, (``sigma``/2)*||w - anchor||), and with "hit-cap" after
    ``max_iter`` iterations; w is returned. When (y - w).(w - u) > 0, u being
    the previous w, the momentum restarts (t = 1, y = w).

    The last step certifies w: e = L(y - w) - grad S(y) + grad S(w) lies in
    the subdifferential of S + f at w, and when L bounds the Lipschitz
    constant of grad S, ||e|| <= 2L||w - y||, so a "converged" w has
    ||e|| <= max(2*tol, sigma*||w - anchor||), the relative-error condition of
    Attouch, Bolte & Svaiter (2013). Given a dict ``info``, the solver stores
    the number of iterations under "iterations" and e under "error", at the
    cost of one more gradient, at the returned point; "error" is None when the
    anchor is returned. sigma = 0 leaves the absolute rule alone.

    The objective need not fall at every iterate, but the returned point
    never has a larger total objective than the anchor: when the last w
    does, or its objective is not finite, or the iterates overflow (as an
    underestimated L can make them), the anchor is returned with the flag
    "ascent-rejected". A non-finite objective at the anchor raises.
    """
    if f_prox is None:
        raise ParameterError("inner solver needs a prox oracle for the block term")
    if max_iter < 1 or not sigma >= 0.0:
        raise ParameterError(f"need max_iter >= 1 and sigma >= 0, got {max_iter!r} and {sigma!r}")
    start = np.array(anchor, dtype=float).ravel()  # a private copy, returned on rejection
    L = max(float(smooth_lipschitz), 1e-12)
    step = 1.0 / L
    half_sigma = 0.5 * sigma

    obj_anchor = float(smooth_value(start)) + float(f_value(start))
    if not math.isfinite(obj_anchor):
        raise EvaluationError("non-finite subproblem objective at the inner solver's anchor")
    u = y = start
    t = 1.0
    flag = "hit-cap"
    for n_iter in range(1, max_iter + 1):
        g = np.asarray(smooth_grad(y), dtype=float).ravel()
        if g.size != y.size:
            raise ShapeError("smooth gradient has wrong dimension")
        w = np.asarray(f_prox(y - step * g, step), dtype=float).ravel()
        d = w - y
        residual = L * math.sqrt(d @ d)
        if not residual < math.inf:  # inf or NaN: w or y overflowed
            flag = "ascent-rejected"
            break
        if residual <= tol or (half_sigma and residual <= half_sigma * _norm(w - start)):
            u, flag = w, "converged"
            break
        move = w - u
        if d @ move < 0.0:  # (y - w).(w - u) > 0: the momentum points uphill
            t, y = 1.0, w
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = w + ((t - 1.0) / t_next) * move
            t = t_next
        u = w
    if info is not None:
        info["iterations"], info["error"] = n_iter, None
    obj = math.nan if flag == "ascent-rejected" else float(smooth_value(u)) + float(f_value(u))
    if not (math.isfinite(obj) and obj <= obj_anchor):
        # an underestimated L, or extrapolation past the anchor's level set,
        # must not produce an ascent step
        return start, "ascent-rejected"
    if info is not None:  # d = u - y and g = grad S(y) from the step that gave u
        info["error"] = np.asarray(smooth_grad(u), dtype=float).ravel() - g - L * d
    return u, flag


def _norm(v: Array) -> float:
    return math.sqrt(v @ v)
