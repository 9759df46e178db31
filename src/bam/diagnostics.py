"""Runtime checkers for the solver's descent and convergence guarantees.

Every checker is a pure function of (problem, trace, constants) and returns a
CheckReport rather than raising on violation. ``CHECKS`` maps each name in
``CHECK_NAMES`` to the check that runs on a finished run; it is the one table
the command line looks checks up in. Reports carry a status:

* "pass" / "fail"     -- the check ran and the tolerance held / was broken,
* "skipped"           -- the check's precondition is not met (not a failure),
* "inconclusive"      -- not enough data to decide.

Traces are the driver's IterateTrace objects (duck-typed here to avoid a
module cycle); any object exposing ``phi0`` and ``records`` with the same
fields works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .blockvec import BlockVector
from .bregman import BregmanGenerator
from .errors import ConfigurationError, EvaluationError, ParameterError
from .problem import Problem, _max_gradient_ratio


@dataclass
class CheckReport:
    name: str
    status: str  # "pass" | "fail" | "skipped" | "inconclusive"
    worst_violation: float = 0.0
    worst_iteration: int = -1
    details: dict = field(default_factory=dict)
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def acceptable(self) -> bool:
        """True unless the check actually failed."""
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "pass": self.passed,
            "worst_violation": self.worst_violation,
            "worst_iteration": self.worst_iteration,
            "note": self.note,
            "details": _jsonable(self.details),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def check_monotone_descent(trace) -> CheckReport:
    """Verify the per-sweep descent chain of objective values.

    Within each recorded sweep the chain is
    phi_start >= phi after block 1 >= ... >= phi_end, and across consecutive
    recorded sweeps phi must not increase either. Slack is
    1e-10 * (1 + |phi at the initial point|).
    """
    slack = 1e-10 * (1.0 + abs(trace.phi0))
    worst = -math.inf
    worst_k = -1
    margins = []
    prev_end = trace.phi0
    for rec in trace.records:
        chain = [prev_end, rec.phi_start, *rec.phi_partials]
        v = max(b - a for a, b in zip(chain, chain[1:]))
        margins.append(v)
        if v > worst:
            worst, worst_k = v, rec.k
        prev_end = rec.phi_end
    if not trace.records:
        return CheckReport("monotone_descent", "inconclusive", note="empty trace")
    status = "pass" if worst <= slack else "fail"
    return CheckReport(
        "monotone_descent",
        status,
        worst_violation=worst,
        worst_iteration=worst_k,
        details={"slack": slack, "margins": margins},
    )


def check_sufficient_decrease(trace, nu_min: Optional[float] = None) -> CheckReport:
    """Verify the sufficient-decrease inequality per sweep and per block.

    Total form: phi(x^k) - phi(x^{k+1}) >= (nu_min/2) * ||x^k - x^{k+1}||^2,
    checked when every block's generator modulus is positive. Blocks with a
    positive modulus are additionally checked individually against their own
    modulus. nu/2 is the asserted constant; the observed decrease/step ratio
    is reported so the data can speak for the stronger constant nu.
    Skipped when no block has a positive modulus.
    """
    tol = 1e-10
    if not trace.records:
        return CheckReport("sufficient_decrease", "inconclusive", note="empty trace")

    block_nus = [min(rec.nu_blocks[i] for rec in trace.records) for i in range(len(trace.block_ids))]
    if nu_min is None:
        nu_total = min(block_nus)
    else:
        nu_total = nu_min
    if max(block_nus) <= 0.0 and (nu_min is None or nu_min <= 0.0):
        return CheckReport(
            "sufficient_decrease",
            "skipped",
            note="no block has a positive strong-convexity modulus",
        )

    worst = -math.inf
    worst_k = -1
    min_ratio = math.inf
    for rec in trace.records:
        # per-block: objective drop while updating block i alone
        prev = rec.phi_start
        for i, part in enumerate(rec.phi_partials):
            nu_i = rec.nu_blocks[i]
            if nu_i > 0.0:
                v = 0.5 * nu_i * rec.step_norm_sq_blocks[i] - (prev - part) - tol
                if v > worst:
                    worst, worst_k = v, rec.k
            prev = part
        # total form, only meaningful when every block is strongly convex
        if nu_total > 0.0:
            drop = rec.phi_start - rec.phi_end
            v = 0.5 * nu_total * rec.step_norm_sq - drop - tol
            if v > worst:
                worst, worst_k = v, rec.k
            if rec.step_norm_sq > 1e-30:
                min_ratio = min(min_ratio, drop / rec.step_norm_sq)

    supported = ""
    if nu_total > 0.0 and math.isfinite(min_ratio):
        supported = "nu" if min_ratio >= nu_total - 1e-8 else "nu/2"
    status = "pass" if worst <= 0.0 else "fail"
    return CheckReport(
        "sufficient_decrease",
        status,
        worst_violation=max(worst, 0.0) if status == "pass" else worst,
        worst_iteration=worst_k,
        details={
            "nu_total": nu_total,
            "block_nus": block_nus,
            "min_observed_ratio": None if not math.isfinite(min_ratio) else min_ratio,
            "ratio_supports": supported,
        },
    )


def subgradient_residual(
    p: Problem,
    x_next: BlockVector,
    corrections: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], float]:
    """Explicit subgradient element of the sweep's optimality conditions, as (blocks, norm).

    Block i, a plain array, is grad_i H(x^{k+1}) + c_i, where the correction

        c_i = grad phi_i^k(x_i^k) - grad phi_i^k(x_i^{k+1}) - grad_i H(mixed_i)

    is ``driver.BlockStep.correction`` and mixed_i, blocks <= i new and > i
    old, is the point block i's subproblem was solved at. Valid as a
    subgradient only when the subproblems were solved to tolerance.
    """
    if len(corrections) != p.n_blocks:
        raise ConfigurationError("one correction per block is required")
    if not p.matches(x_next):
        raise ConfigurationError("iterate does not match the problem structure")
    v = [
        np.asarray(p.coupling.partial_grad(x_next, i), dtype=float).ravel() + c
        for i, c in enumerate(corrections)
    ]
    return v, math.sqrt(sum(float(a @ a) for a in v))


def check_residual_bound(trace, l_hat: Optional[float] = None, l_cross: Optional[float] = None) -> CheckReport:
    """Verify ||v^{k+1}|| <= L_hat * ||x^{k+1} - x^k|| + 1e-10 per sweep.

    L_hat defaults to sqrt(2) * (l_cross + max generator Lipschitz constant
    over the sweep), the constant the residual construction supports.
    """
    tol = 1e-10
    if not trace.records:
        return CheckReport("residual_bound", "inconclusive", note="empty trace")
    if l_hat is None and l_cross is None:
        raise ParameterError("supply l_hat or l_cross")
    worst = -math.inf
    worst_k = -1
    for rec in trace.records:
        bound_const = _l_hat(l_cross, [rec]) if l_hat is None else l_hat
        v = rec.residual - bound_const * math.sqrt(rec.step_norm_sq) - tol
        if v > worst:
            worst, worst_k = v, rec.k
    status = "pass" if worst <= 0.0 else "fail"
    return CheckReport(
        "residual_bound",
        status,
        worst_violation=worst,
        worst_iteration=worst_k,
        details={"l_hat": l_hat, "l_cross": l_cross},
    )


def check_residual_vanishes(trace, l_hat: float = 1.0) -> CheckReport:
    """Trend surrogate for the residual converging to zero.

    Passes iff (a) the median residual over the last 10% of recorded sweeps
    is at most 10 * (median step norm over the same tail) * l_hat, and
    (b) the final residual is strictly below the minimum of the first 10
    recorded residuals. Inconclusive with fewer than 20 records.
    """
    n = len(trace.records)
    if n < 20:
        return CheckReport(
            "residual_vanishes", "inconclusive", note=f"only {n} records; need >= 20"
        )
    tail = trace.records[-max(1, math.ceil(0.1 * n)):]
    med_res = float(np.median([r.residual for r in tail]))
    med_step = float(np.median([math.sqrt(r.step_norm_sq) for r in tail]))
    head_min = min(r.residual for r in trace.records[:10])
    final = trace.records[-1].residual
    v1 = med_res - 10.0 * med_step * l_hat
    v2 = final - head_min
    ok = v1 <= 0.0 and v2 < 0.0
    return CheckReport(
        "residual_vanishes",
        "pass" if ok else "fail",
        worst_violation=max(v1, v2),
        worst_iteration=trace.records[-1].k,
        details={
            "median_tail_residual": med_res,
            "median_tail_step": med_step,
            "first10_min_residual": head_min,
            "final_residual": final,
            "l_hat": l_hat,
        },
    )


def critical_point_certificate(p: Problem, x: BlockVector, tol: float = 1e-6) -> CheckReport:
    """Blockwise first-order criticality: -grad_i H(x) lies in the
    subdifferential of f_i at x_i, within ``tol`` per block; a NaN distance fails."""
    distances = {}
    missing = []
    worst = 0.0
    for i in range(p.n_blocks):
        term = p.terms[i]
        bid = p.block_ids[i]
        if term.subdiff_certificate is None:
            missing.append(bid)
            continue
        g = np.asarray(p.coupling.partial_grad(x, i), dtype=float).ravel()
        d = float(term.subdiff_certificate(x.block(i), g))
        distances[bid] = d
        worst = max(worst, d if math.isfinite(d) else math.inf)
    if distances and worst > tol:
        status = "fail"
    elif missing:
        status = "inconclusive"
    else:
        status = "pass"
    return CheckReport(
        "critical_point",
        status,
        worst_violation=worst - tol if status == "fail" else worst,
        details={"distances": distances, "missing_certificates": missing, "tol": tol},
        note="no certificate oracle for: " + ", ".join(missing) if missing else "",
    )


def gradcheck(
    p: Problem,
    x: BlockVector,
    rel_step: float = 1e-5,
    probes: int = 10,
    seed: int = 0,
    tol: float = 1e-6,
) -> CheckReport:
    """Central-difference validation of every partial gradient of H.

    Probes seeded points around ``x``; relative error per coordinate is
    |fd - g| / (1 + |g|).
    """
    if rel_step <= 0:
        raise ParameterError("rel_step must be positive")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_loc = None
    for pr in range(probes):
        xp = x
        for i in range(p.n_blocks):
            xp = xp.with_block(i, x.block(i) + rng.standard_normal(p.block_dims[i]))
        for i in range(p.n_blocks):
            g = np.asarray(p.coupling.partial_grad(xp, i), dtype=float).ravel()
            base = xp.block(i)
            for j in range(base.size):
                h = rel_step * (1.0 + abs(base[j]))
                up = base.copy()
                dn = base.copy()
                up[j] += h
                dn[j] -= h
                fd = (
                    float(p.coupling.value(xp.with_block(i, up)))
                    - float(p.coupling.value(xp.with_block(i, dn)))
                ) / (2.0 * h)
                err = abs(fd - g[j]) / (1.0 + abs(g[j]))
                if err > worst:
                    worst = err
                    worst_loc = (pr, p.block_ids[i], j)
    status = "pass" if worst <= tol else "fail"
    return CheckReport(
        "gradcheck",
        status,
        worst_violation=worst,
        details={"worst_location": worst_loc, "tol": tol},
    )


def finite_length_monitor(trace, converged: bool = False) -> CheckReport:
    """Empirical surrogate for the finite-length property of the iterates.

    The plateau flag is set when the last 10% of recorded sweeps contribute
    less than 1% of the total path length (the ``cum_step`` curve). The check
    passes on a plateau. Without one it fails when the run ``converged`` (it
    stopped on a tolerance while its path was still growing), and is
    inconclusive otherwise.
    """
    curve = [r.cum_step for r in trace.records]
    total = curve[-1] if curve else 0.0
    tail_inc = 0.0
    plateau = False
    n = len(curve)
    if n >= 2 and total > 0.0:
        tail_start = max(0, n - max(1, math.ceil(0.1 * n)) - 1)
        tail_inc = total - curve[tail_start]
        plateau = tail_inc < 0.01 * total
    return CheckReport(
        "finite_length",
        "pass" if plateau else ("fail" if converged else "inconclusive"),
        details={"total_length": total, "tail_increment": tail_inc, "plateau": plateau},
    )


def check_generator_convexity(
    gen: BregmanGenerator,
    dim: int,
    probes: int = 50,
    seed: int = 0,
    radius: float = 10.0,
) -> CheckReport:
    """Probe <grad phi(u) - grad phi(v), u - v> / ||u - v||^2 on random pairs.

    Passes iff the minimal observed ratio is at least ``modulus_nu - 1e-8``.
    Probe points are uniform in a box of the given radius around the origin.
    ``worst_violation`` is modulus_nu minus the minimal ratio; ``details``
    holds the generator's ``label``, the ``min_ratio`` and the ``modulus_nu``.
    """
    if probes < 1:
        raise ParameterError("probes must be >= 1")
    rng = np.random.default_rng(seed)
    min_ratio = math.inf
    for _ in range(probes):
        u = rng.uniform(-radius, radius, size=dim)
        v = rng.uniform(-radius, radius, size=dim)
        d = u - v
        denom = float(d @ d)
        if denom < 1e-24:
            continue
        num = float((np.asarray(gen.gradient(u)) - np.asarray(gen.gradient(v))) @ d)
        if not math.isfinite(num):
            raise EvaluationError(f"generator {gen.label!r} gradient is non-finite at a probe")
        min_ratio = min(min_ratio, num / denom)
    if not math.isfinite(min_ratio):
        min_ratio = gen.modulus_nu  # all probe pairs degenerate; vacuous pass
    return CheckReport(
        "generator_convexity",
        "pass" if min_ratio >= gen.modulus_nu - 1e-8 else "fail",
        worst_violation=gen.modulus_nu - min_ratio,
        details={"label": gen.label, "min_ratio": min_ratio, "modulus_nu": gen.modulus_nu},
    )


def estimate_cross_lipschitz(
    p: Problem,
    x: BlockVector,
    grad_block: int,
    vary_block: int,
    probes: int = 20,
    seed: int = 0,
    safety: float = 1.5,
) -> float:
    """Empirical bound on ||grad_i H(.., u, ..) - grad_i H(.., w, ..)|| / ||u - w||
    where block ``vary_block`` (!= grad_block) moves and the rest stay at x."""
    if grad_block == vary_block:
        raise ParameterError("grad_block and vary_block must differ")
    return safety * _max_gradient_ratio(p, x, grad_block, vary_block, probes, seed)


def _cross_lipschitz(p: Problem, x: BlockVector) -> float:
    """``metadata["cross_lipschitz"]``, else the largest cross estimate over block pairs at x."""
    if "cross_lipschitz" in p.metadata:
        return float(p.metadata["cross_lipschitz"])
    pairs = [(i, j) for i in range(p.n_blocks) for j in range(p.n_blocks) if i != j]
    return max((estimate_cross_lipschitz(p, x, i, j) for i, j in pairs), default=0.0)


def _l_hat(l_cross: float, records) -> float:
    """L_hat = sqrt(2) * (l_cross + the largest finite generator Lipschitz constant in records)."""
    lips = [L for rec in records for L in rec.lip_blocks if math.isfinite(L)]
    return math.sqrt(2.0) * (l_cross + (max(lips) if lips else 0.0))


# check name -> check(problem, run result, start point). The entries call the
# checks by module-level name, so a check replaced on this module (as
# perfbench's tracer does) is the one that runs.
CHECKS = {
    "monotone_descent": lambda p, res, x0: check_monotone_descent(res.trace),
    "sufficient_decrease": lambda p, res, x0: check_sufficient_decrease(res.trace),
    "residual_bound": lambda p, res, x0: check_residual_bound(
        res.trace, l_cross=_cross_lipschitz(p, res.final_x)
    ),
    "residual_vanishes": lambda p, res, x0: check_residual_vanishes(
        res.trace, l_hat=_l_hat(_cross_lipschitz(p, res.final_x), res.trace.records)
    ),
    "critical_point": lambda p, res, x0: critical_point_certificate(p, res.final_x),
    "gradcheck": lambda p, res, x0: gradcheck(p, x0),
    "finite_length": lambda p, res, x0: finite_length_monitor(
        res.trace, converged=res.status in ("residual-converged", "step-converged")
    ),
}
CHECK_NAMES = tuple(CHECKS)
