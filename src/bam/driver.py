"""Gauss-Seidel block driver for the Bregman alternating-minimization frame.

Each sweep updates the blocks in declaration order. Block i solves

    min_u  H(x_1^{k+1}, ..., x_{i-1}^{k+1}, u, x_{i+1}^k, ..., x_n^k)
           + f_i(u) + B_{phi_i^k}(u, x_i^k)

with the generator phi_i^k chosen by the block's strategy:

* Exact       -> zero generator (plain block minimization),
* Linearized  -> linearization generator, closed-form prox-gradient update,
* Augmented   -> quadratic generator (alpha/2)||u - x_i^k||^2,
* Custom      -> user-supplied generator factory.

``step_block`` takes a Linearized step in closed form, an Exact or Augmented
step by the block's closed-form coupled minimizer when it has one, and any
other step by ``prox.inner_exact_min`` (FISTA with gradient restart, started
at x_i^k, stopped on the prox-gradient residual at its extrapolated point,
never returning a point worse than x_i^k). A sweep with a ``hit-cap`` or
``ascent-rejected`` block stops ``run`` on neither tolerance; if it moved
nothing, it ends the run ``stalled`` (see ``run``).

Iteration-dependent generators are rebuilt each step, freezing the newest
values of the other blocks. ``step_block`` evaluates one update once into a
``BlockStep``; ``run`` carries H and the f_i between updates and passes the
corrections c_i, and the last block's grad_n H(x^{k+1}) when its step has it,
to ``diagnostics.subgradient_residual``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import diagnostics as _diag
from .blockvec import BlockVector, norm_sq
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


def is_integer(n) -> bool:
    """True for an int or a numpy integer, but not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def is_real(v) -> bool:
    """True for an int, float or numpy real that converts to a finite float, but not a bool."""
    if not isinstance(v, (int, float, np.integer, np.floating)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # a Python int too large for a float
        return False


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
        if not is_real(self.value) or self.value <= 0:
            raise ParameterError(f"alpha rule value must be a positive number, got {self.value!r}")

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
        for name, value, needed in (
            ("an alpha rule", self.alpha_rule, self.kind in ("linearized", "augmented")),
            ("a generator factory", self.generator_factory, self.kind == "custom"),
        ):
            if (value is not None) != needed:
                verb = "needs" if needed else "must not have"
                raise ConfigurationError(f"a strategy of kind {self.kind!r} {verb} {name}")


@dataclass(frozen=True)
class SolverConfig:
    max_outer_iter: int = 1000
    residual_tol: float = 1e-8
    step_tol: float = 1e-12
    inner_tol: float = 1e-10
    inner_max_iter: int = 5000

    def __post_init__(self):
        for name in ("max_outer_iter", "inner_max_iter"):
            n = getattr(self, name)
            if not is_integer(n) or n < 1:
                raise ParameterError(f"{name} must be an integer >= 1, got {n!r}")
        if not all(is_real(t) and t >= 0 for t in (self.residual_tol, self.step_tol, self.inner_tol)):
            raise ParameterError("tolerances must be nonnegative numbers")


@dataclass
class SweepRecord:
    """Everything recorded about one outer sweep k -> k+1."""

    k: int
    phi_partials: tuple[float, ...]  # objective after each block update
    step_norm_sq_blocks: tuple[float, ...]
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
    def phi_end(self) -> float:
        return self.phi_partials[-1]

    @property
    def step_norm_sq(self) -> float:
        return float(sum(self.step_norm_sq_blocks))

    @property
    def inner_flag(self) -> str:
        """"ok", or the distinct non-ok block flags in block order joined by "+"."""
        bad = [f for f in self.inner_flags if f not in ("ok", "converged")]
        return "+".join(dict.fromkeys(bad)) or "ok"


@dataclass
class IterateTrace:
    phi0: float
    records: list[SweepRecord] = field(default_factory=list)

    def phi_series(self) -> list[float]:
        return [self.phi0] + [r.phi_end for r in self.records]


@dataclass
class RunResult:
    final_x: BlockVector
    trace: IterateTrace
    status: str  # residual-converged | step-converged | stalled | max-iter | diverged
    certificate: "_diag.CheckReport"

    @property
    def sweeps(self) -> int:
        return len(self.trace.records)


_EXACT = BlockStrategy("exact")
_LINEARIZED = BlockStrategy("linearized", AlphaRule("lipschitz_factor", 1.1))
_AUGMENTED = BlockStrategy("augmented", AlphaRule("constant", 1.0))

# preset name -> (first block's strategy, the other blocks' strategy)
_PRESETS = {
    "am": (_EXACT, _EXACT),
    "plam": (_LINEARIZED, _LINEARIZED),
    "aam": (_AUGMENTED, _AUGMENTED),
    "am-plam": (_EXACT, _LINEARIZED),
    "plam-am": (_LINEARIZED, _EXACT),
}
PRESET_NAMES = tuple(_PRESETS)


def resolve_strategy_preset(name: str, n_blocks: int = 2) -> list[BlockStrategy]:
    """Per-block strategies for the named scheme.

    am      -> all Exact
    plam    -> all Linearized with alpha_k = 1.1 * L_i
    aam     -> all Augmented with constant alpha = 1.0
    am-plam -> first block Exact, remaining blocks Linearized
    plam-am -> first block Linearized, remaining blocks Exact
    """
    if name not in PRESET_NAMES:  # tuple membership: an unhashable name is rejected, not a TypeError
        raise ConfigurationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    first, rest = _PRESETS[name]
    return [first] + [rest] * (n_blocks - 1)


def validate_strategies(p: Problem, strategies: Sequence[BlockStrategy], x0: BlockVector) -> None:
    """Fail fast on strategy/oracle mismatches before any sweep runs."""
    if len(strategies) != p.n_blocks:
        raise ConfigurationError(
            f"{len(strategies)} strategies for {p.n_blocks} blocks"
        )
    for i, s in enumerate(strategies):
        term = p.terms[i]
        if term.prox is None:
            if s.kind in ("linearized", "custom"):
                raise ConfigurationError(f"block {p.block_ids[i]!r}: {s.kind} needs a prox oracle")
            if term.exact_coupled_min is None:
                raise ConfigurationError(
                    f"block {p.block_ids[i]!r}: {s.kind} needs exact_coupled_min or a prox oracle"
                )
        if s.alpha_rule is not None:
            _resolve_alpha(s, p, x0, i)


def _vec(a) -> np.ndarray:
    return np.asarray(a, dtype=float).ravel()


def _frozen_partial(p: Problem, x: BlockVector, i: int):
    """Value/gradient of H as a function of block i, others frozen at x."""

    def h_value(u):
        return p.coupling.value(x.with_block(i, u))

    def h_grad(u):
        return p.coupling.partial_grad(x.with_block(i, u), i)

    return h_value, h_grad


def _resolve_alpha(strategy: BlockStrategy, p: Problem, x: BlockVector, i: int) -> tuple[float, float]:
    """(alpha_k, L_i) at ``x``; a convex generator needs alpha_k > L_i for
    Linearized and alpha_k > 0 for Augmented."""
    L_i = float(p.coupling.partial_lipschitz(x, i))
    alpha = strategy.alpha_rule.resolve(L_i)
    floor = L_i if strategy.kind == "linearized" else 0.0
    if not alpha > floor:
        raise ConfigurationError(
            f"block {p.block_ids[i]!r}: {strategy.kind} alpha_k = {alpha:g} must exceed "
            f"{floor:g} (partial Lipschitz constant L_i = {L_i:g}; generator convexity requirement)"
        )
    return alpha, L_i


def make_generator(
    strategy: BlockStrategy, p: Problem, x: BlockVector, i: int, k: int
) -> tuple[BregmanGenerator, Optional[float]]:
    """Block i's generator at sweep k, with the other blocks frozen at ``x``.

    Returns the generator and its quadratic weight: 0 for Exact, alpha_k for
    Augmented and Linearized, None for Custom (a general generator that only
    the inner solver can handle).
    """
    if strategy.kind == "exact":
        return make_zero_generator(), 0.0
    if strategy.kind == "custom":
        return strategy.generator_factory(k, x, i), None
    alpha, L_i = _resolve_alpha(strategy, p, x, i)
    if strategy.kind == "augmented":
        return make_augmented_generator(alpha), alpha
    h_value, h_grad = _frozen_partial(p, x, i)
    return make_linearization_generator(alpha, h_value, h_grad, L_i), alpha


def _solve_with_generator(
    p: Problem, x: BlockVector, i: int, gen: BregmanGenerator, weight: Optional[float], cfg: SolverConfig
) -> tuple[np.ndarray, str]:
    """Block i's subproblem by ``inner_exact_min``. With ``make_generator``'s
    ``weight`` the inner gradient is grad_i H(u) + weight*(u - anchor) (grad_i H
    alone for Exact); None calls the generator's gradient each inner iteration."""
    term = p.terms[i]
    anchor = x.block(i)
    if not math.isfinite(gen.lipschitz_L):
        raise ConfigurationError(
            f"block {p.block_ids[i]!r}: inner solver needs a finite generator Lipschitz bound"
        )

    h_value, h_grad = _frozen_partial(p, x, i)

    def smooth_value(u):
        return float(h_value(u)) + bregman_distance(gen, u, anchor)

    # grad_i H(u) + grad phi(u) - grad phi(anchor), one call per inner iteration
    if weight is None:
        g_anchor = _vec(gen.gradient(anchor))

        def smooth_grad(u):
            return _vec(h_grad(u)) + _vec(gen.gradient(u)) - g_anchor
    elif weight == 0.0:  # Exact: the zero generator adds nothing
        smooth_grad = h_grad
    else:  # Augmented: phi = (weight/2)||u||^2, no generator calls needed
        def smooth_grad(u):
            return h_grad(u) + weight * (u - anchor)

    L_sub = float(p.coupling.partial_lipschitz(x, i)) + gen.lipschitz_L
    return inner_exact_min(smooth_value, smooth_grad, L_sub, term.value, term.prox, anchor,
                           cfg.inner_tol, cfg.inner_max_iter)


class BlockStep(NamedTuple):
    """Block i's update and the quantities the sweep records about it.

    ``x`` is the iterate after the update (the input iterate when the step was
    rejected), ``h`` = H(x), ``f`` = f_i(x_i), ``bregman`` = B_phi(x_i^{k+1}, x_i^k),
    ``step_sq`` = ||x_i^{k+1} - x_i^k||^2, and ``correction`` is
    c_i = grad phi(x_i^k) - grad phi(x_i^{k+1}) - grad_i H(x), the term that
    ``diagnostics.subgradient_residual`` adds to grad_i H(x^{k+1}). ``grad`` is
    grad_i H(x) when the step evaluated it there (every kind but Linearized,
    whose gradient is taken before the update), else None.
    """

    x: BlockVector
    gen: BregmanGenerator
    flag: str
    h: float
    f: float
    bregman: float
    step_sq: float
    correction: np.ndarray
    grad: Optional[np.ndarray]


def step_block(
    p: Problem, x: BlockVector, i: int, strategy: BlockStrategy, k: int, cfg: SolverConfig,
    h: float, f: float,
) -> BlockStep:
    """One block update, evaluated once: see ``BlockStep`` for what it returns.

    ``x`` must already hold this sweep's updated values for blocks < i, and
    ``h``, ``f`` must be H(x) and f_i(x_i). Raises EvaluationError when the
    accepted point has a non-finite objective or Bregman cost.
    """
    anchor = x.block(i)
    term = p.terms[i]
    gen, weight = make_generator(strategy, p, x, i, k)
    if strategy.kind == "linearized":
        # the linearization generator turns the subproblem into one prox-gradient step
        g = _vec(p.coupling.partial_grad(x, i))
        new, flag = _vec(term.prox(anchor - g / weight, 1.0 / weight)), "ok"
    elif weight is not None and term.exact_coupled_min is not None:
        new, flag = _vec(term.exact_coupled_min(x, i, weight)), "ok"
    else:
        new, flag = _solve_with_generator(p, x, i, gen, weight, cfg)

    x_new = x.with_block(i, new)
    h_new, f_new = float(p.coupling.value(x_new)), float(term.value(new))
    d = new - anchor
    if weight is None:
        bregman = bregman_distance(gen, new, anchor)
    else:  # phi = (w/2)||u||^2, minus H with the other blocks frozen when linearized
        bregman = 0.5 * weight * float(d @ d)
        if strategy.kind == "linearized":
            bregman -= h_new - h - float(g @ d)
    if not math.isfinite(bregman):
        raise EvaluationError(f"block {p.block_ids[i]!r}: non-finite Bregman cost")

    # The subproblem value at the accepted point must not exceed its value at
    # the anchor (where the Bregman term vanishes); reject ascent steps.
    if h_new + f_new + bregman > h + f + 1e-12 * (1.0 + abs(h + f)):
        x_new, new, h_new, f_new, bregman, flag = x, anchor, h, f, 0.0, "ascent-rejected"
        d = np.zeros_like(anchor)
    elif not (math.isfinite(h_new) and math.isfinite(f_new)):
        raise EvaluationError(f"block {p.block_ids[i]!r}: non-finite objective")

    # c_i subtracts grad_i H(x_new), except that a linearized step's grad phi
    # has -grad_i H terms that leave only the anchor gradient g
    g_new = None
    if strategy.kind != "linearized":
        g = g_new = _vec(p.coupling.partial_grad(x_new, i))
    if weight is None:
        c = _vec(gen.gradient(anchor)) - _vec(gen.gradient(new)) - g
    else:
        c = -weight * d - g
    return BlockStep(x_new, gen, flag, h_new, f_new, bregman, float(d @ d), c, g_new)


def run(
    p: Problem,
    strategies: Sequence[BlockStrategy],
    cfg: SolverConfig,
    x0: BlockVector,
    callback: Optional[Callable[[int, BlockVector], None]] = None,
) -> RunResult:
    """Run Gauss-Seidel sweeps until a stopping rule fires.

    The trace records every completed sweep. Stopping order per sweep:
    divergence guard, residual_tol on the subgradient residual norm, step_tol
    on the full-sweep step norm, stall, max_outer_iter. The two tolerances end
    the run only on a sweep whose every block flag is "ok" or "converged"; a
    sweep that moved nothing ends it "stalled" unless a block is Custom, as
    only a Custom generator factory reads k, so the next sweep would repeat it.
    """
    if not p.matches(x0):
        raise ConfigurationError(f"x0 structure does not match problem {p.name!r}")
    validate_strategies(p, strategies, x0)

    x = x0
    h = float(p.coupling.value(x0))
    fs = [float(term.value(x0.block(i))) for i, term in enumerate(p.terms)]
    trace = IterateTrace(phi0=phi_value(p, x0))
    cum_step = 0.0
    status = "max-iter"
    can_stall = all(s.kind != "custom" for s in strategies)

    for k in range(1, cfg.max_outer_iter + 1):
        x_prev = x
        steps: list[BlockStep] = []
        partials: list[float] = []
        bregman_paid = 0.0
        try:
            for i in range(p.n_blocks):
                s = step_block(p, x, i, strategies[i], k, cfg, h, fs[i])
                x, h, fs[i] = s.x, s.h, s.f
                steps.append(s)
                bregman_paid += s.bregman
                phi = h  # summed in phi_value's order, so phi is the same float
                for f in fs:
                    phi += f
                partials.append(phi)
            _, res_norm = _diag.subgradient_residual(
                p, x, [s.correction for s in steps], last_grad=steps[-1].grad
            )
        except EvaluationError:
            res_norm = math.nan
        if not math.isfinite(res_norm):
            # A non-finite objective, iterate or residual counts as divergence;
            # the trace up to the previous sweep stays intact.
            status = "diverged"
            x = x_prev
            break
        step_sq_blocks = tuple(s.step_sq for s in steps)
        step_norm = math.sqrt(float(sum(step_sq_blocks)))
        cum_step += step_norm
        trace.records.append(
            SweepRecord(
                k=k,
                phi_partials=tuple(partials),
                step_norm_sq_blocks=step_sq_blocks,
                bregman_paid=bregman_paid,
                residual=res_norm,
                cum_step=cum_step,
                inner_flags=tuple(s.flag for s in steps),
                nu_blocks=tuple(s.gen.modulus_nu for s in steps),
                lip_blocks=tuple(s.gen.lipschitz_L for s in steps),
            )
        )
        if callback is not None:
            callback(k, x)

        if math.sqrt(norm_sq(x)) > DIVERGENCE_NORM:
            status = "diverged"
            break
        # a capped or rejected inner solve leaves a residual that is not a
        # subgradient of Phi, and a rejected one a step that moved nothing,
        # so neither can end the run as converged
        if res_norm <= cfg.residual_tol and trace.records[-1].inner_flag == "ok":
            status = "residual-converged"
            break
        if step_norm <= cfg.step_tol and trace.records[-1].inner_flag == "ok":
            status = "step-converged"
            break
        # a sweep that moved nothing repeats exactly (an "ok" one stopped on
        # step_tol above), unless a Custom generator factory reads k
        if step_norm == 0.0 and can_stall:
            status = "stalled"
            break

    certificate = _diag.critical_point_certificate(p, x)
    return RunResult(final_x=x, trace=trace, status=status, certificate=certificate)
