"""Bregman alternating minimization: one block-update engine whose per-block
generator choice reproduces exact, linearized, and augmented alternating
minimization (and their hybrids), with diagnostics that verify the scheme's
descent and convergence properties at runtime."""

from .blockvec import BlockVector, norm_sq
from .bregman import (
    BregmanGenerator,
    bregman_distance,
    make_augmented_generator,
    make_linearization_generator,
    make_zero_generator,
)
from .diagnostics import check_generator_convexity
from .driver import (
    AlphaRule,
    BlockStep,
    BlockStrategy,
    IterateTrace,
    RunResult,
    SolverConfig,
    resolve_strategy_preset,
    run,
    step_block,
)
from .problem import (
    BlockTerm,
    CouplingOracle,
    Problem,
    build_multiblock_quadratic,
    build_separable_quadratic,
    build_sparse_group_instance,
    estimate_partial_lipschitz,
    phi_value,
)
from .prox import group_soft_threshold, inner_exact_min, soft_threshold

__all__ = [
    "AlphaRule",
    "BlockStep",
    "BlockStrategy",
    "BlockTerm",
    "BlockVector",
    "BregmanGenerator",
    "CouplingOracle",
    "IterateTrace",
    "Problem",
    "RunResult",
    "SolverConfig",
    "bregman_distance",
    "build_multiblock_quadratic",
    "build_separable_quadratic",
    "build_sparse_group_instance",
    "check_generator_convexity",
    "estimate_partial_lipschitz",
    "group_soft_threshold",
    "inner_exact_min",
    "make_augmented_generator",
    "make_linearization_generator",
    "make_zero_generator",
    "norm_sq",
    "phi_value",
    "resolve_strategy_preset",
    "run",
    "soft_threshold",
    "step_block",
]

__version__ = "0.1.0"
