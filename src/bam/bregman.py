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

Constants are declared by the factories, not inferred; use
``diagnostics.check_generator_convexity`` (also ``bam.check_generator_convexity``)
to validate a declaration empirically. It returns a ``CheckReport`` whose
``details`` hold the generator's label, the smallest observed curvature ratio
and the declared modulus.
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
        if self.modulus_nu < 0:
            raise ParameterError("modulus_nu must be nonnegative")
        if math.isfinite(self.lipschitz_L) and self.modulus_nu > self.lipschitz_L + 1e-15:
            raise ParameterError("modulus_nu must not exceed lipschitz_L")


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


def make_zero_generator(dim: int) -> BregmanGenerator:
    """phi identically zero; B_phi vanishes everywhere."""
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    return BregmanGenerator(
        value=lambda x: 0.0,
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        modulus_nu=0.0,
        lipschitz_L=0.0,
        label="zero",
    )


def make_augmented_generator(alpha: float, dim: int) -> BregmanGenerator:
    """phi(x) = (alpha/2)||x||^2, so B_phi(x, y) = (alpha/2)||x - y||^2."""
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    if alpha <= 0:
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
    label: str = "",
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
    if l_partial < 0:
        raise ParameterError("l_partial must be nonnegative")
    if alpha <= l_partial:
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
        label=label or f"plam({alpha:g})",
    )
