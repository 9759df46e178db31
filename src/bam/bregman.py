"""Bregman generators and distances.

A generator is a differentiable convex function phi together with declared
curvature constants. Its Bregman distance

    B_phi(x, y) = phi(x) - phi(y) - <grad phi(y), x - y>

generalizes the squared Euclidean distance. Three factory families cover the
classical block-update rules:

* zero generator          -> plain exact block minimization,
* augmented generator     -> exact minimization plus (alpha/2)||x - x_k||^2,
* linearization generator -> the linearized/prox-gradient block update,
  obtained from phi(x) = (alpha/2)||x||^2 - H(x, frozen other blocks).

Constants are declared by the factories, not inferred. ``driver.step_block``
uses the three built-in factories' (modulus_nu, lipschitz_L) without building
a generator, and a test pins them equal. ``diagnostics.check_generator_convexity``
(also ``bam.check_generator_convexity``) validates a declaration empirically;
its ``CheckReport.details`` hold the label, the smallest observed curvature
ratio and the declared modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, ParameterError, ShapeError

Array = np.ndarray


@dataclass(frozen=True)
class BregmanGenerator:
    """Oracle bundle for a differentiable convex generator.

    Attributes
    ----------
    value : callable
        x -> phi(x), a scalar.
    gradient : callable
        x -> grad phi(x), same shape as x.
    modulus_nu : float
        Declared strong-convexity lower bound (>= 0).
    lipschitz_L : float
        Declared gradient-Lipschitz upper bound; ``math.inf`` if unbounded.
    label : str
        Human-readable tag, e.g. ``"zero"`` or ``"aam(1.0)"``.
    """

    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    modulus_nu: float
    lipschitz_L: float
    label: str = ""

    def __post_init__(self):
        # each test is written so that a NaN constant fails it
        if not self.modulus_nu >= 0:
            raise ParameterError(f"modulus_nu must be nonnegative, got {self.modulus_nu}")
        if not self.lipschitz_L + 1e-15 >= self.modulus_nu:
            raise ParameterError(f"modulus_nu must not exceed lipschitz_L, got {self.lipschitz_L}")


def bregman_distance(gen: BregmanGenerator, x: Array, y: Array) -> float:
    """Evaluate B_phi(x, y) = phi(x) - phi(y) - <grad phi(y), x - y>."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ShapeError(f"dimension mismatch: {x.size} vs {y.size}")
    gy = np.asarray(gen.gradient(y), dtype=float).ravel()
    val = float(gen.value(x)) - float(gen.value(y)) - float(gy @ (x - y))
    if not math.isfinite(val):
        raise EvaluationError(f"generator {gen.label!r} produced a non-finite Bregman distance")
    return val


def make_zero_generator() -> BregmanGenerator:
    """phi identically zero; B_phi vanishes everywhere."""
    return BregmanGenerator(
        value=lambda x: 0.0,
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        modulus_nu=0.0,
        lipschitz_L=0.0,
        label="zero",
    )


def make_augmented_generator(alpha: float) -> BregmanGenerator:
    """phi(x) = (alpha/2)||x||^2, so B_phi(x, y) = (alpha/2)||x - y||^2."""
    if not alpha > 0:  # a NaN alpha fails too
        raise ParameterError(f"alpha must be positive, got {alpha}")
    return BregmanGenerator(
        value=lambda x: 0.5 * alpha * float(np.asarray(x) @ np.asarray(x)),
        gradient=lambda x: alpha * np.asarray(x, dtype=float),
        modulus_nu=alpha,
        lipschitz_L=alpha,
        label=f"aam({alpha:g})",
    )


def make_linearization_generator(
    alpha: float,
    h_value: Callable[[Array], float],
    h_grad: Callable[[Array], Array],
    l_partial: float,
) -> BregmanGenerator:
    """phi(x) = (alpha/2)||x||^2 - H(x, frozen other blocks).

    With this generator, the block subproblem

        min_x H(x, frozen) + f(x) + B_phi(x, anchor)

    is, up to an additive constant, the linearized update

        min_x <grad_x H(anchor, frozen), x - anchor>
              + (alpha/2)||x - anchor||^2 + f(x).

    ``h_value``/``h_grad`` must already have the other blocks frozen in.
    Convexity of phi needs alpha strictly above the partial gradient-Lipschitz
    constant of H in this block, which gives modulus alpha - l_partial.
    """
    if not l_partial >= 0:  # a NaN constant fails each test
        raise ParameterError(f"l_partial must be nonnegative, got {l_partial}")
    if not alpha > l_partial:
        raise ParameterError(
            f"linearization generator needs alpha > partial Lipschitz constant "
            f"({alpha} <= {l_partial}); otherwise phi is not convex"
        )

    def value(x: Array) -> float:
        x = np.asarray(x, dtype=float)
        return 0.5 * alpha * float(x @ x) - float(h_value(x))

    def gradient(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return alpha * x - np.asarray(h_grad(x), dtype=float)

    return BregmanGenerator(
        value=value,
        gradient=gradient,
        modulus_nu=alpha - l_partial,
        lipschitz_L=alpha + l_partial,
        label=f"plam({alpha:g})",
    )
