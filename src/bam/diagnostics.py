"""Runtime checkers for the solver's descent and convergence guarantees.

Every checker is a pure function of (problem, trace, constants) and returns a
CheckReport rather than raising on violation. ``CHECKS`` maps each name in
``CHECK_NAMES`` to the check that runs on a finished run; it is the one table
the command line looks checks up in. Reports carry a status:

* "pass" / "fail"     -- the check ran and the tolerance held / was broken,
* "skipped"           -- the check's precondition is not met (not a failure),
* "inconclusive"      -- not enough data to decide.

The empirical Lipschitz estimators live here too, next to
``check_declared_lipschitz``, which tests a problem's declared L_i with them.

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
from .problem import Problem

CERTIFICATE_TOL = 1e-6  # largest per-block subdifferential distance that passes
GRADCHECK_REL_STEP = 1e-5  # central-difference step, relative to 1 + |x_j|
GRADCHECK_PROBES = 10  # probe points around x, drawn from seed 0
GRADCHECK_TOL = 1e-6  # largest relative gradient error that passes
CONVEXITY_PROBES = 30  # generator probe pairs, uniform in a box around the origin,
CONVEXITY_SEED = 0  # drawn from this seed,
CONVEXITY_RADIUS = 2.0  # with this half-width
LIPSCHITZ_PROBES = 20  # probe pairs per empirical Lipschitz estimate,
LIPSCHITZ_SEED = 0  # drawn from this seed
SAFETY = 1.5  # factor on the largest observed gradient ratio in those estimates
LIPSCHITZ_RTOL = 1e-9  # an exactly declared L_i can read a few ulps above itself


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
    """Verify the descent chain phi0, then every sweep's phi after each block.

    A sweep's margin is its largest increase along the chain, floored at 0.
    Slack is 1e-10 * (1 + |phi at the initial point|).
    """
    if not trace.records:
        return CheckReport("monotone_descent", "inconclusive", note="empty trace")
    slack = 1e-10 * (1.0 + abs(trace.phi0))
    margins = []
    prev_end = trace.phi0
    for rec in trace.records:
        chain = [prev_end, *rec.phi_partials]
        margins.append(max(0.0, *(b - a for a, b in zip(chain, chain[1:]))))
        prev_end = rec.phi_end
    worst = max(margins)
    return CheckReport(
        "monotone_descent",
        "pass" if worst <= slack else "fail",
        worst_violation=worst,
        worst_iteration=trace.records[margins.index(worst)].k,
        details={"slack": slack, "margins": margins},
    )


def check_sufficient_decrease(trace) -> CheckReport:
    """Verify the sufficient-decrease inequality per sweep and per block.

    Each sweep starts from the previous one's phi_end (the first from phi0).
    Total form: phi(x^k) - phi(x^{k+1}) >= (nu_total/2) * ||x^k - x^{k+1}||^2,
    with nu_total the smallest block modulus over the trace, checked when
    every block's generator modulus is positive. Blocks with a
    positive modulus are additionally checked individually against their own
    modulus. nu/2 is the asserted constant; the observed decrease/step ratio
    is reported so the data can speak for the stronger constant nu.
    Skipped when no block has a positive modulus.
    """
    tol = 1e-10
    if not trace.records:
        return CheckReport("sufficient_decrease", "inconclusive", note="empty trace")

    block_nus = [min(nus) for nus in zip(*(rec.nu_blocks for rec in trace.records))]
    nu_total = min(block_nus)
    if max(block_nus) <= 0.0:
        return CheckReport(
            "sufficient_decrease",
            "skipped",
            note="no block has a positive strong-convexity modulus",
        )

    worst = -math.inf
    worst_k = -1
    min_ratio = math.inf
    prev = trace.phi0
    for rec in trace.records:
        drop = prev - rec.phi_end  # prev is still phi at the start of the sweep
        # per-block: objective drop while updating block i alone
        for i, part in enumerate(rec.phi_partials):
            nu_i = rec.nu_blocks[i]
            if nu_i > 0.0:
                v = 0.5 * nu_i * rec.step_norm_sq_blocks[i] - (prev - part) - tol
                if v > worst:
                    worst, worst_k = v, rec.k
            prev = part
        # total form, only meaningful when every block is strongly convex
        if nu_total > 0.0:
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
    last_grad: Optional[np.ndarray] = None,
) -> tuple[list[np.ndarray], float]:
    """Explicit subgradient element of the sweep's optimality conditions, as (blocks, norm).

    Block i, a plain array, is grad_i H(x^{k+1}) + c_i, where the correction

        c_i = grad phi_i^k(x_i^k) - grad phi_i^k(x_i^{k+1}) - grad_i H(mixed_i)

    is ``driver.BlockStep.correction`` and mixed_i, blocks <= i new and > i
    old, is the point block i's subproblem was solved at. Valid as a
    subgradient only when the subproblems were solved to tolerance.

    ``last_grad``, when given, is grad_n H(x^{k+1}) for the last block, which
    the last block's step may already have evaluated (``driver.BlockStep.grad``);
    it is then used instead of a second evaluation.
    """
    n = p.n_blocks
    if len(corrections) != n:
        raise ConfigurationError("one correction per block is required")
    if not p.matches(x_next):
        raise ConfigurationError("iterate does not match the problem structure")
    grads = [p.coupling.partial_grad(x_next, i) for i in range(n - 1)]
    grads.append(p.coupling.partial_grad(x_next, n - 1) if last_grad is None else last_grad)
    v = [np.asarray(g, dtype=float).ravel() + c for g, c in zip(grads, corrections)]
    return v, math.sqrt(sum(float(a @ a) for a in v))


def check_residual_bound(trace, l_cross: float) -> CheckReport:
    """Verify ||v^{k+1}|| <= L_hat * ||x^{k+1} - x^k|| + 1e-10 per sweep.

    L_hat is sqrt(2) * (l_cross + the sweep's largest finite generator
    Lipschitz constant), the constant the residual construction supports.
    """
    tol = 1e-10
    if not trace.records:
        return CheckReport("residual_bound", "inconclusive", note="empty trace")
    worst = -math.inf
    worst_k = -1
    for rec in trace.records:
        v = rec.residual - _l_hat(l_cross, [rec]) * math.sqrt(rec.step_norm_sq) - tol
        if v > worst:
            worst, worst_k = v, rec.k
    status = "pass" if worst <= 0.0 else "fail"
    return CheckReport(
        "residual_bound",
        status,
        worst_violation=worst,
        worst_iteration=worst_k,
        details={"l_cross": l_cross},
    )


def check_residual_vanishes(trace, l_cross: float) -> CheckReport:
    """Trend surrogate for the residual converging to zero.

    Passes iff (a) the median residual over the last 10% of sweeps is at
    most 10 * (median step norm over the same tail) * L_hat, and (b) the
    final residual is strictly below the minimum of the first 10 sweeps'
    residuals. L_hat is sqrt(2) * (l_cross + the trace's largest finite
    generator Lipschitz constant). Inconclusive with fewer than 20 sweeps.
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
    l_hat = _l_hat(l_cross, trace.records)
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


def critical_point_certificate(p: Problem, x: BlockVector) -> CheckReport:
    """Blockwise first-order criticality: -grad_i H(x) lies in the
    subdifferential of f_i at x_i, within ``CERTIFICATE_TOL`` per block; a NaN
    distance fails."""
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
    if distances and worst > CERTIFICATE_TOL:
        status = "fail"
    elif missing:
        status = "inconclusive"
    else:
        status = "pass"
    return CheckReport(
        "critical_point",
        status,
        worst_violation=worst - CERTIFICATE_TOL if status == "fail" else worst,
        details={"distances": distances, "missing_certificates": missing, "tol": CERTIFICATE_TOL},
        note="no certificate oracle for: " + ", ".join(missing) if missing else "",
    )


def gradcheck(p: Problem, x: BlockVector) -> CheckReport:
    """Central-difference validation of every partial gradient of H.

    Probes ``GRADCHECK_PROBES`` points around ``x``; relative error per
    coordinate is |fd - g| / (1 + |g|).
    """
    rng = np.random.default_rng(0)
    dims = p.block_dims
    worst = 0.0
    worst_loc = None
    for pr in range(GRADCHECK_PROBES):
        xp = x
        for i, dim in enumerate(dims):
            xp = xp.with_block(i, x.block(i) + rng.standard_normal(dim))
        for i in range(p.n_blocks):
            g = np.asarray(p.coupling.partial_grad(xp, i), dtype=float).ravel()
            base = xp.block(i)
            for j in range(base.size):
                h = GRADCHECK_REL_STEP * (1.0 + abs(base[j]))
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
    return CheckReport(
        "gradcheck",
        "pass" if worst <= GRADCHECK_TOL else "fail",
        worst_violation=worst,
        details={"worst_location": worst_loc, "tol": GRADCHECK_TOL},
    )


def finite_length_monitor(trace, converged: bool = False) -> CheckReport:
    """Empirical surrogate for the finite-length property of the iterates.

    The plateau flag is set when the last 10% of sweeps contribute
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


def check_generator_convexity(gen: BregmanGenerator, dim: int) -> CheckReport:
    """Probe <grad phi(u) - grad phi(v), u - v> / ||u - v||^2 on random pairs.

    Passes iff the minimal observed ratio is at least ``modulus_nu - 1e-8``
    over ``CONVEXITY_PROBES`` pairs. ``worst_violation`` is modulus_nu minus the minimal ratio; ``details``
    holds the generator's ``label``, the ``min_ratio`` and the ``modulus_nu``.
    """
    rng = np.random.default_rng(CONVEXITY_SEED)
    min_ratio = math.inf
    for _ in range(CONVEXITY_PROBES):
        u = rng.uniform(-CONVEXITY_RADIUS, CONVEXITY_RADIUS, size=dim)
        v = rng.uniform(-CONVEXITY_RADIUS, CONVEXITY_RADIUS, size=dim)
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


def _max_gradient_ratio(p: Problem, x: BlockVector, grad_block: int, vary_block: int) -> float:
    """Largest ||grad_i H(u) - grad_i H(w)|| / ||u - w|| over ``LIPSCHITZ_PROBES`` pairs.

    i is ``grad_block``; u and w move block ``vary_block`` of ``x`` by
    standard-normal draws from ``LIPSCHITZ_SEED`` and keep the other blocks at
    ``x``. No pair is degenerate: for every block size from 1 to 2000 the
    smallest ||u - w|| the draws give is 0.14.
    """
    rng = np.random.default_rng(LIPSCHITZ_SEED)
    dim = p.block_dims[vary_block]
    base = x.block(vary_block)
    worst = 0.0
    for _ in range(LIPSCHITZ_PROBES):
        du = rng.standard_normal(dim)
        dw = rng.standard_normal(dim)
        denom = float(np.linalg.norm(du - dw))
        gu = p.coupling.partial_grad(x.with_block(vary_block, base + du), grad_block)
        gw = p.coupling.partial_grad(x.with_block(vary_block, base + dw), grad_block)
        worst = max(worst, float(np.linalg.norm(np.asarray(gu) - np.asarray(gw))) / denom)
    return worst


def estimate_partial_lipschitz(p: Problem, x: BlockVector, i: int) -> float:
    """Empirical bound on the block-i partial gradient Lipschitz constant.

    Samples probe pairs in block i around ``x`` with the other blocks fixed,
    takes the largest ratio ||grad_i H(u) - grad_i H(w)|| / ||u - w||, and
    multiplies by ``SAFETY``. The declared ``partial_lipschitz`` plays no
    part, so an estimate above ``SAFETY`` times it shows the declared constant
    is too small (``check_declared_lipschitz``).
    """
    return SAFETY * _max_gradient_ratio(p, x, i, i)


def estimate_cross_lipschitz(p: Problem, x: BlockVector, grad_block: int, vary_block: int) -> float:
    """Empirical bound on ||grad_i H(.., u, ..) - grad_i H(.., w, ..)|| / ||u - w||
    where block ``vary_block`` (!= grad_block) moves and the rest stay at x,
    times ``SAFETY``."""
    if grad_block == vary_block:
        raise ParameterError("grad_block and vary_block must differ")
    return SAFETY * _max_gradient_ratio(p, x, grad_block, vary_block)


def check_declared_lipschitz(p: Problem, x: BlockVector, i: int) -> CheckReport:
    """``lipschitz_declared[<block id>]``: fails when the largest gradient ratio
    observed in block i at ``x`` (``estimate_partial_lipschitz / SAFETY``)
    exceeds the declared partial Lipschitz constant by a relative ``LIPSCHITZ_RTOL``."""
    declared = float(p.coupling.partial_lipschitz(x, i))
    observed = estimate_partial_lipschitz(p, x, i) / SAFETY
    excess = observed - declared
    return CheckReport(
        f"lipschitz_declared[{p.block_ids[i]}]",
        "pass" if excess <= LIPSCHITZ_RTOL * abs(declared) else "fail",
        worst_violation=excess,
        details={"declared": declared, "observed": observed},
    )


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
        res.trace, l_cross=_cross_lipschitz(p, res.final_x)
    ),
    "critical_point": lambda p, res, x0: res.certificate,  # run certified final_x
    "gradcheck": lambda p, res, x0: gradcheck(p, x0),
    "finite_length": lambda p, res, x0: finite_length_monitor(
        res.trace, converged=res.status in ("residual-converged", "step-converged")
    ),
}
CHECK_NAMES = tuple(CHECKS)
