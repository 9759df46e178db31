"""Gauss-Seidel block driver for the Bregman alternating-minimization frame.

Each sweep updates the blocks in declaration order. Block i solves

    min_u  H(x_1^{k+1}, ..., x_{i-1}^{k+1}, u, x_{i+1}^k, ..., x_n^k)
           + f_i(u) + B_{phi_i^k}(u, x_i^k)

with the generator phi_i^k chosen by the block's strategy:

* Exact       -> zero generator (plain block minimization),
* Linearized  -> linearization generator, closed-form prox-gradient update,
* Augmented   -> quadratic generator (alpha/2)||u - x_i^k||^2,
* Custom      -> user-supplied generator factory, inner prox-gradient solve.

Iteration-dependent generators are rebuilt each step, freezing the newest
values of the other blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import diagnostics as _diag
from .blockvec import BlockVector
from .bregman import (
    BregmanGenerator,
    bregman_distance,
    make_augmented_generator,
    make_linearization_generator,
    make_zero_generator,
)
from .errors import ConfigurationError, EvaluationError, ParameterError
from .problem import Problem, phi_value
from .prox import inner_exact_min

DIVERGENCE_NORM = 1e12

PRESET_NAMES = ("am", "plam", "aam", "am-plam", "plam-am")


@dataclass(frozen=True)
class AlphaRule:
    """Step-weight rule for Linearized/Augmented strategies.

    kind "constant": alpha_k = value.
    kind "lipschitz_factor": alpha_k = value * L_i, with L_i the block's
    partial Lipschitz constant at the current iterate.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("constant", "lipschitz_factor"):
            raise ParameterError(f"unknown alpha rule kind {self.kind!r}")
        if self.value <= 0:
            raise ParameterError("alpha rule value must be positive")

    def resolve(self, lipschitz: float) -> float:
        if self.kind == "constant":
            return self.value
        return self.value * lipschitz


@dataclass(frozen=True)
class BlockStrategy:
    kind: str  # "exact" | "linearized" | "augmented" | "custom"
    alpha_rule: Optional[AlphaRule] = None
    generator_factory: Optional[Callable[[int, BlockVector, int], BregmanGenerator]] = None

    def __post_init__(self):
        if self.kind not in ("exact", "linearized", "augmented", "custom"):
            raise ParameterError(f"unknown strategy kind {self.kind!r}")


@dataclass(frozen=True)
class SolverConfig:
    max_outer_iter: int = 1000
    residual_tol: float = 1e-8
    step_tol: float = 1e-12
    inner_tol: float = 1e-10
    inner_max_iter: int = 5000
    record_every: int = 1

    def __post_init__(self):
        if self.max_outer_iter < 1:
            raise ParameterError("max_outer_iter must be >= 1")
        if min(self.residual_tol, self.step_tol, self.inner_tol) < 0:
            raise ParameterError("tolerances must be nonnegative")
        if self.record_every < 1:
            raise ParameterError("record_every must be >= 1")


@dataclass
class SweepRecord:
    """Everything recorded about one outer sweep k -> k+1."""

    k: int
    phi_start: float
    phi_partials: tuple[float, ...]  # objective after each block update
    phi_end: float
    step_norm_sq_blocks: tuple[float, ...]
    step_norm_sq: float
    bregman_paid: float
    residual: float
    cum_step: float
    inner_flags: tuple[str, ...]
    nu_blocks: tuple[float, ...]
    lip_blocks: tuple[float, ...]

    @property
    def phi_half(self) -> float:
        return self.phi_partials[0]

    @property
    def inner_flag(self) -> str:
        """"ok", or the distinct non-ok block flags in block order joined by "+"."""
        bad = [f for f in self.inner_flags if f not in ("ok", "converged")]
        return "+".join(dict.fromkeys(bad)) or "ok"


@dataclass
class IterateTrace:
    phi0: float
    block_ids: tuple[str, ...]
    records: list[SweepRecord] = field(default_factory=list)

    def phi_series(self) -> list[float]:
        return [self.phi0] + [r.phi_end for r in self.records]


@dataclass
class RunResult:
    final_x: BlockVector
    trace: IterateTrace
    status: str  # residual-converged | step-converged | max-iter | diverged
    certificate: "_diag.CheckReport"
    sweeps: int


def resolve_strategy_preset(name: str, n_blocks: int = 2) -> list[BlockStrategy]:
    """Per-block strategies for the named scheme.

    am      -> all Exact
    plam    -> all Linearized with alpha_k = 1.1 * L_i
    aam     -> all Augmented with constant alpha = 1.0
    am-plam -> first block Exact, remaining blocks Linearized
    plam-am -> first block Linearized, remaining blocks Exact
    """
    lin = BlockStrategy("linearized", AlphaRule("lipschitz_factor", 1.1))
    aug = BlockStrategy("augmented", AlphaRule("constant", 1.0))
    exact = BlockStrategy("exact")
    if name == "am":
        return [exact] * n_blocks
    if name == "plam":
        return [lin] * n_blocks
    if name == "aam":
        return [aug] * n_blocks
    if name == "am-plam":
        return [exact] + [lin] * (n_blocks - 1)
    if name == "plam-am":
        return [lin] + [exact] * (n_blocks - 1)
    raise ConfigurationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def validate_strategies(p: Problem, strategies: Sequence[BlockStrategy], x0: BlockVector) -> None:
    """Fail fast on strategy/oracle mismatches before any sweep runs."""
    if len(strategies) != p.n_blocks:
        raise ConfigurationError(
            f"{len(strategies)} strategies for {p.n_blocks} blocks"
        )
    for i, s in enumerate(strategies):
        bid = p.block_ids[i]
        term = p.terms[i]
        if s.kind == "linearized":
            if s.alpha_rule is None:
                raise ConfigurationError(f"block {bid!r}: Linearized needs an alpha rule")
            if term.prox is None:
                raise ConfigurationError(f"block {bid!r}: Linearized needs a prox oracle")
            L_i = float(p.coupling.partial_lipschitz(x0, i))
            if s.alpha_rule.kind == "lipschitz_factor" and s.alpha_rule.value <= 1.0:
                raise ConfigurationError(
                    f"block {bid!r}: Linearized needs gamma > 1 so that "
                    f"alpha_k > L_i = {L_i:g} (generator convexity requirement)"
                )
            if s.alpha_rule.kind == "constant" and s.alpha_rule.value <= L_i:
                raise ConfigurationError(
                    f"block {bid!r}: constant alpha = {s.alpha_rule.value:g} must exceed "
                    f"the partial Lipschitz constant L_i = {L_i:g} "
                    f"(generator convexity requirement)"
                )
        elif s.kind == "augmented":
            if s.alpha_rule is None:
                raise ConfigurationError(f"block {bid!r}: Augmented needs an alpha rule")
            if term.exact_coupled_min is None and term.prox is None:
                raise ConfigurationError(
                    f"block {bid!r}: Augmented needs exact_coupled_min or a prox oracle"
                )
        elif s.kind == "exact":
            if term.exact_coupled_min is None and term.prox is None:
                raise ConfigurationError(
                    f"block {bid!r}: Exact needs exact_coupled_min or a prox oracle"
                )
        elif s.kind == "custom":
            if s.generator_factory is None:
                raise ConfigurationError(f"block {bid!r}: Custom needs a generator factory")
            if term.prox is None:
                raise ConfigurationError(
                    f"block {bid!r}: Custom needs a prox oracle for the inner solver"
                )


def _frozen_partial(p: Problem, x: BlockVector, i: int):
    """Value/gradient of H as a function of block i, others frozen at x."""

    def h_value(u):
        return p.coupling.value(x.with_block(i, u))

    def h_grad(u):
        return p.coupling.partial_grad(x.with_block(i, u), i)

    return h_value, h_grad


def make_generator(
    strategy: BlockStrategy, p: Problem, x: BlockVector, i: int, k: int
) -> tuple[BregmanGenerator, Optional[float]]:
    """Block i's generator at sweep k, with the other blocks frozen at ``x``.

    Returns the generator and its quadratic weight: 0 for Exact, alpha_k for
    Augmented and Linearized, None for Custom (a general generator that only
    the inner solver can handle).
    """
    if strategy.kind == "exact":
        return make_zero_generator(x.block(i).size), 0.0
    if strategy.kind == "custom":
        return strategy.generator_factory(k, x, i), None
    L_i = float(p.coupling.partial_lipschitz(x, i))
    alpha = strategy.alpha_rule.resolve(L_i)
    if strategy.kind == "augmented":
        return make_augmented_generator(alpha, x.block(i).size), alpha
    if alpha <= L_i:
        raise ConfigurationError(
            f"block {p.block_ids[i]!r}: alpha_k = {alpha:g} must exceed L_i = {L_i:g}"
        )
    h_value, h_grad = _frozen_partial(p, x, i)
    return make_linearization_generator(alpha, h_value, h_grad, L_i), alpha


def _solve_with_generator(
    p: Problem,
    x: BlockVector,
    i: int,
    gen: BregmanGenerator,
    weight: Optional[float],
    cfg: SolverConfig,
) -> tuple[np.ndarray, str]:
    """Solve block i's subproblem with the given generator.

    ``weight`` is the generator's quadratic weight from ``make_generator``;
    with a weight, closed-form coupled minimizers can be used, and None means
    a general generator that must go through the inner solver.
    """
    term = p.terms[i]
    anchor = x.block(i)
    if weight is not None and term.exact_coupled_min is not None:
        return np.asarray(term.exact_coupled_min(x, i, weight), dtype=float).ravel(), "ok"

    h_value, h_grad = _frozen_partial(p, x, i)
    L_i = float(p.coupling.partial_lipschitz(x, i))
    g_anchor = np.asarray(gen.gradient(anchor), dtype=float).ravel()

    def smooth_value(u):
        return float(h_value(u)) + bregman_distance(gen, u, anchor)

    def smooth_grad(u):
        return np.asarray(h_grad(u), dtype=float).ravel() + np.asarray(
            gen.gradient(u), dtype=float
        ).ravel() - g_anchor

    L_sub = L_i + (gen.lipschitz_L if math.isfinite(gen.lipschitz_L) else 0.0)
    if not math.isfinite(gen.lipschitz_L):
        raise ConfigurationError(
            f"block {p.block_ids[i]!r}: inner solver needs a finite generator Lipschitz bound"
        )
    u, flag = inner_exact_min(
        smooth_value,
        smooth_grad,
        L_sub,
        term.value,
        term.prox,
        anchor,
        tol=cfg.inner_tol,
        max_iter=cfg.inner_max_iter,
    )
    return u, flag


def step_block(
    p: Problem,
    x: BlockVector,
    i: int,
    strategy: BlockStrategy,
    k: int,
    cfg: SolverConfig,
) -> tuple[np.ndarray, BregmanGenerator, str]:
    """One block update; returns (new block value, generator used, inner flag).

    ``x`` must already hold this sweep's updated values for blocks < i.
    """
    anchor = x.block(i)
    term = p.terms[i]
    gen, weight = make_generator(strategy, p, x, i, k)
    if strategy.kind == "linearized":
        # the linearization generator turns the subproblem into one prox-gradient step
        g = np.asarray(p.coupling.partial_grad(x, i), dtype=float).ravel()
        new = np.asarray(term.prox(anchor - g / weight, 1.0 / weight), dtype=float).ravel()
        flag = "ok"
    else:
        new, flag = _solve_with_generator(p, x, i, gen, weight, cfg)

    # The subproblem value at the accepted point must not exceed its value at
    # the anchor (where the Bregman term vanishes); reject ascent steps.
    h_value, _ = _frozen_partial(p, x, i)
    sub_new = float(h_value(new)) + float(term.value(new)) + bregman_distance(gen, new, anchor)
    sub_anchor = float(h_value(anchor)) + float(term.value(anchor))
    if sub_new > sub_anchor + 1e-12 * (1.0 + abs(sub_anchor)):
        return anchor.copy(), gen, "ascent-rejected"
    return new, gen, flag


def run(
    p: Problem,
    strategies: Sequence[BlockStrategy],
    cfg: SolverConfig,
    x0: BlockVector,
    callback: Optional[Callable[[int, BlockVector], None]] = None,
) -> RunResult:
    """Run Gauss-Seidel sweeps until a stopping rule fires.

    Stopping order per sweep: divergence guard, residual_tol on the
    subgradient residual norm, step_tol on the full-sweep step norm,
    max_outer_iter. The trace records every ``record_every``-th sweep and
    always the final one.
    """
    if not p.matches(x0):
        raise ConfigurationError(f"x0 structure does not match problem {p.name!r}")
    validate_strategies(p, strategies, x0)

    x = x0
    phi0 = phi_value(p, x0)
    trace = IterateTrace(phi0=phi0, block_ids=p.block_ids)
    cum_step = 0.0
    status = "max-iter"
    sweeps = 0
    phi_end = phi0

    for k in range(1, cfg.max_outer_iter + 1):
        x_prev = x
        phi_start = phi_end
        gens: list[BregmanGenerator] = []
        flags: list[str] = []
        partials: list[float] = []
        step_sq_blocks: list[float] = []
        bregman_paid = 0.0
        try:
            for i in range(p.n_blocks):
                new, gen, flag = step_block(p, x, i, strategies[i], k, cfg)
                bregman_paid += bregman_distance(gen, new, x.block(i))
                d = new - x.block(i)
                step_sq_blocks.append(float(d @ d))
                x = x.with_block(i, new)
                gens.append(gen)
                flags.append(flag)
                partials.append(phi_value(p, x))
        except EvaluationError:
            # A non-finite objective or iterate mid-sweep counts as divergence;
            # the trace up to the previous sweep stays intact.
            status = "diverged"
            x = x_prev
            break
        phi_end = partials[-1]
        step_sq = float(sum(step_sq_blocks))
        cum_step += math.sqrt(step_sq)
        sweeps = k

        diverged = math.sqrt(sum(float(a @ a) for a in x.arrays)) > DIVERGENCE_NORM
        _, res_norm = _diag.subgradient_residual(p, x_prev, x, gens)

        if callback is not None:
            callback(k, x)

        stopping = diverged or res_norm <= cfg.residual_tol or math.sqrt(step_sq) <= cfg.step_tol
        if k % cfg.record_every == 0 or stopping or k == cfg.max_outer_iter:
            trace.records.append(
                SweepRecord(
                    k=k,
                    phi_start=phi_start,
                    phi_partials=tuple(partials),
                    phi_end=phi_end,
                    step_norm_sq_blocks=tuple(step_sq_blocks),
                    step_norm_sq=step_sq,
                    bregman_paid=bregman_paid,
                    residual=res_norm,
                    cum_step=cum_step,
                    inner_flags=tuple(flags),
                    nu_blocks=tuple(g.modulus_nu for g in gens),
                    lip_blocks=tuple(g.lipschitz_L for g in gens),
                )
            )
        if diverged:
            status = "diverged"
            break
        if res_norm <= cfg.residual_tol:
            status = "residual-converged"
            break
        if math.sqrt(step_sq) <= cfg.step_tol:
            status = "step-converged"
            break

    certificate = _diag.critical_point_certificate(p, x, tol=1e-6)
    return RunResult(final_x=x, trace=trace, status=status, certificate=certificate, sweeps=sweeps)
