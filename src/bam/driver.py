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
at x_i^k, stopped on the prox-gradient residual at its extrapolated point once
it is below ``inner_tol`` or ``INNER_SIGMA``/2 times the distance from x_i^k,
never returning a point worse than x_i^k). The inner solve's certificate e_i,
a subgradient of the block subproblem at x_i^{k+1}, is added to the sweep's
residual, so an inexact solve is never reported as exact. A sweep with a
``hit-cap`` or ``ascent-rejected`` block stops ``run`` on neither tolerance;
if it moved nothing, it ends the run ``stalled`` (see ``run``).

One kind dispatch in ``step_block`` gives phi's (nu, L), the cost
B_phi(u, x_i^k) and its gradient grad phi(u) - grad phi(x_i^k), both functions
of u and d = u - x_i^k; the inner objective, the Bregman cost paid and the
correction are each one expression of these for every kind, the last two
taking the step's own d. A built-in step reads its weight alpha_k and (nu, L)
directly: they are the constants the ``bregman`` factories declare, and a test
pins them equal. Its cost is (alpha_k/2)||d||^2, or 0 for Exact, with
gradient alpha_k d; a Linearized step subtracts H's own Bregman distance from
it once, after the update. Only a Custom step builds a generator, by
``make_generator``, which ``bam check`` also calls. The inner solver and a
linearization generator see H as a function of block i's bare array through
``_frozen_partial``: the coupling's ``restrict``, else ``with_block``
closures. ``step_block`` evaluates one update once into a ``BlockStep``;
``run`` carries H and the f_i between updates and passes the corrections
c_i + e_i, and the last block's grad_n H(x^{k+1}) when its step has it, to
``diagnostics.subgradient_residual``.
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
# an inner solve stops once its prox-gradient residual is at most INNER_SIGMA/2
# times its distance from x_i^k (or inner_tol), so its certificate has
# ||e_i|| <= max(INNER_SIGMA ||x_i^{k+1} - x_i^k||, 2 inner_tol)
INNER_SIGMA = 0.5


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
        return self.value if self.kind == "constant" else self.value * lipschitz


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
    # ||e_i|| per block, the inner solve's certificate added to the residual
    # (0.0 where the step has none: see ``BlockStep.error``)
    inner_errors: tuple[float, ...] = ()

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
        raise ConfigurationError(f"{len(strategies)} strategies for {p.n_blocks} blocks")
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
    """Value/gradient of H as a function of block i, others frozen at x: the
    coupling's ``restrict`` when it has one, else closures over ``with_block``."""
    if p.coupling.restrict is not None:
        return p.coupling.restrict(x, i)

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
    if not alpha > floor >= 0.0:  # a negative or NaN L_i fails too
        raise ConfigurationError(
            f"block {p.block_ids[i]!r}: {strategy.kind} alpha_k = {alpha:g} must exceed "
            f"{floor:g} (partial Lipschitz constant L_i = {L_i:g}; generator convexity requirement)"
        )
    return alpha, L_i


def make_generator(
    strategy: BlockStrategy, p: Problem, x: BlockVector, i: int, k: int
) -> BregmanGenerator:
    """Block i's generator at sweep k, with the other blocks frozen at ``x``."""
    if strategy.kind == "exact":
        return make_zero_generator()
    if strategy.kind == "custom":
        return strategy.generator_factory(k, x, i)
    alpha, L_i = _resolve_alpha(strategy, p, x, i)
    if strategy.kind == "augmented":
        return make_augmented_generator(alpha)
    return make_linearization_generator(alpha, *_frozen_partial(p, x, i), L_i)


class BlockStep(NamedTuple):
    """Block i's update and the quantities the sweep records about it.

    ``x`` is the iterate after the update (the input iterate when the step was
    rejected), ``nu``, ``lip`` the modulus and Lipschitz bound of phi, ``h`` =
    H(x), ``f`` = f_i(x_i), ``bregman`` = B_phi(x_i^{k+1}, x_i^k), ``step_sq`` =
    ||x_i^{k+1} - x_i^k||^2, and ``correction`` is c_i = grad phi(x_i^k) -
    grad phi(x_i^{k+1}) - grad_i H(x), which ``diagnostics.subgradient_residual``
    adds to grad_i H(x^{k+1}); the step computes it as minus its cost's gradient
    at x_i^{k+1}, minus grad_i H at x (at the anchor for Linearized, whose cost
    leaves out phi's -H part). ``grad`` is grad_i H(x) when the step evaluated
    it there (every kind but Linearized, whose gradient is taken before the
    update), else None. ``error`` is the accepted inner solve's certificate
    e_i, a subgradient of the block subproblem at x_i^{k+1}, so that
    grad_i H(x) + c_i + e_i is a subgradient of Phi in block i; it is None for
    a closed-form, Linearized or rejected step.
    """

    x: BlockVector
    nu: float
    lip: float
    flag: str
    h: float
    f: float
    bregman: float
    step_sq: float
    correction: np.ndarray
    grad: Optional[np.ndarray]
    error: Optional[np.ndarray]


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
    kind, L_i = strategy.kind, None
    # The one kind dispatch: (nu, L) of phi, the cost B_phi(u, x_i^k) and its gradient
    # grad phi(u) - grad phi(x_i^k) as functions of u and d = u - x_i^k, without a
    # Linearized phi's frozen -H part
    if kind == "custom":
        gen = make_generator(strategy, p, x, i, k)
        nu, lip, g_anchor = gen.modulus_nu, gen.lipschitz_L, _vec(gen.gradient(anchor))
        cost, cost_grad = (lambda u, d: bregman_distance(gen, u, anchor),
                           lambda u, d: _vec(gen.gradient(u)) - g_anchor)
    else:  # phi = (w/2)||u||^2, minus the frozen H when Linearized: its factory's (nu, L)
        w, L_i = (0.0, None) if kind == "exact" else _resolve_alpha(strategy, p, x, i)
        shift = L_i if kind == "linearized" else 0.0
        nu, lip = w - shift, w + shift
        cost, cost_grad = lambda u, d: 0.5 * w * float(d @ d), lambda u, d: w * d

    error = None
    if kind == "linearized":
        # the linearization generator turns the subproblem into one prox-gradient step
        g = _vec(p.coupling.partial_grad(x, i))
        new, flag = _vec(term.prox(anchor - g / w, 1.0 / w)), "ok"
    elif kind != "custom" and term.exact_coupled_min is not None:
        new, flag = _vec(term.exact_coupled_min(x, i, w)), "ok"
    else:
        if not math.isfinite(lip):
            raise ConfigurationError(
                f"block {p.block_ids[i]!r}: inner solver needs a finite generator Lipschitz bound"
            )
        L_i = float(p.coupling.partial_lipschitz(x, i)) if L_i is None else L_i
        h_value, h_grad = _frozen_partial(p, x, i)
        info = {}
        new, flag = inner_exact_min(
            lambda u: float(h_value(u)) + cost(u, u - anchor),
            h_grad if kind == "exact" else lambda u: h_grad(u) + cost_grad(u, u - anchor),
            L_i + lip, term.value, term.prox, anchor, cfg.inner_tol, cfg.inner_max_iter,
            sigma=INNER_SIGMA, info=info,
        )
        error = info["error"]

    x_new = x.with_block(i, new)
    h_new, f_new = float(p.coupling.value(x_new)), float(term.value(new))
    d = new - anchor
    step_sq, bregman = float(d @ d), cost(new, d)
    if kind == "linearized":  # phi also subtracts H, the other blocks frozen
        bregman -= h_new - h - float(g @ d)
    if not math.isfinite(bregman):
        raise EvaluationError(f"block {p.block_ids[i]!r}: non-finite Bregman cost")

    # The subproblem value at the accepted point must not exceed its value at
    # the anchor (where the Bregman term vanishes); reject ascent steps.
    if h_new + f_new + bregman > h + f + 1e-12 * (1.0 + abs(h + f)):
        x_new, new, d, h_new, f_new, bregman, step_sq = x, anchor, np.zeros_like(d), h, f, 0.0, 0.0
        flag, error = "ascent-rejected", None
    elif not (math.isfinite(h_new) and math.isfinite(f_new)):
        raise EvaluationError(f"block {p.block_ids[i]!r}: non-finite objective")

    # c_i subtracts grad_i H(x_new), except that a linearized step's grad phi
    # has -grad_i H terms that leave only the anchor gradient g
    g_new = None
    if kind != "linearized":
        g = g_new = _vec(p.coupling.partial_grad(x_new, i))
    c = -cost_grad(new, d) - g
    return BlockStep(x_new, nu, lip, flag, h_new, f_new, bregman, step_sq, c, g_new, error)


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
                p, x, [s.correction if s.error is None else s.correction + s.error for s in steps],
                last_grad=steps[-1].grad,
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
                nu_blocks=tuple(s.nu for s in steps),
                lip_blocks=tuple(s.lip for s in steps),
                inner_errors=tuple(0.0 if s.error is None else math.sqrt(float(s.error @ s.error))
                                   for s in steps),
            )
        )
        if callback is not None:
            callback(k, x)

        if math.sqrt(norm_sq(x)) > DIVERGENCE_NORM:
            status = "diverged"
            break
        # a capped inner solve's residual includes its e_i, so it is a
        # subgradient of Phi, but e_i is not bounded by the step as the
        # converged rule bounds it; a rejected step moved nothing and its
        # residual is not a subgradient. Neither ends the run as converged
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
