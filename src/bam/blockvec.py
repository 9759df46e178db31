"""Dense real vectors partitioned into named, ordered blocks.

BlockVector is the iterate type used by the drivers: immutable, all-finite,
with a fixed block layout. Updates build new vectors via ``with_block``, which
shares the untouched (read-only) block arrays.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import EvaluationError, ShapeError


class BlockVector:
    """Immutable dense vector split into non-empty named blocks.

    Parameters
    ----------
    blocks : iterable of (id, array-like)
        Block ids must be unique; arrays are flattened to 1-D float64.
        Non-finite entries are rejected.
    """

    __slots__ = ("_ids", "_arrays", "_dim")

    def __init__(self, blocks: Iterable[tuple[str, Sequence[float]]]):
        ids: list[str] = []
        arrays: list[np.ndarray] = []
        for bid, arr in blocks:
            a = np.array(arr, dtype=float, copy=True).ravel()
            if a.size == 0:
                raise ShapeError(f"block {bid!r} is empty")
            if not np.isfinite(a).all():
                raise EvaluationError(f"block {bid!r} contains non-finite entries")
            a.setflags(write=False)
            ids.append(str(bid))
            arrays.append(a)
        if not ids:
            raise ShapeError("a BlockVector needs at least one block")
        if len(set(ids)) != len(ids):
            raise ShapeError(f"duplicate block ids: {ids}")
        self._ids = tuple(ids)
        self._arrays = tuple(arrays)
        self._dim = int(sum(a.size for a in arrays))

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return self._arrays

    @property
    def total_dim(self) -> int:
        return self._dim

    @property
    def n_blocks(self) -> int:
        return len(self._ids)

    def block(self, i: int) -> np.ndarray:
        return self._arrays[i]

    def with_block(self, i: int, arr) -> "BlockVector":
        """Return a copy with block ``i`` replaced (same length required).

        Only the new block is validated; the untouched blocks were already
        checked when this vector was built.
        """
        a = np.array(arr, dtype=float, copy=True).ravel()
        if a.size != self._arrays[i].size:
            raise ShapeError(
                f"block {self._ids[i]!r} has length {self._arrays[i].size}, "
                f"got {a.size}"
            )
        if not np.isfinite(a).all():
            raise EvaluationError(f"block {self._ids[i]!r} contains non-finite entries")
        a.setflags(write=False)
        arrays = list(self._arrays)
        arrays[i] = a
        out = object.__new__(BlockVector)
        out._ids = self._ids
        out._arrays = tuple(arrays)
        out._dim = self._dim
        return out

    def to_flat(self) -> np.ndarray:
        """The blocks concatenated in order, as a new array."""
        return np.concatenate(self._arrays)

    def same_structure(self, other: "BlockVector") -> bool:
        return self._ids == other._ids and all(
            a.size == b.size for a, b in zip(self._arrays, other._arrays)
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"{bid}[{a.size}]" for bid, a in zip(self._ids, self._arrays))
        return f"BlockVector({parts})"


def norm_sq(v: BlockVector) -> float:
    """Squared Euclidean norm over all blocks."""
    return float(sum(a @ a for a in v.arrays))

