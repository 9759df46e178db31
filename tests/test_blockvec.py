import numpy as np
import pytest

from bam.blockvec import BlockVector, norm_sq
from bam.errors import EvaluationError, ShapeError


def test_norm_sq_zero_vector():
    assert norm_sq(BlockVector([("a", [0.0, 0.0, 0.0])])) == 0.0


def test_norm_sq_3_4_5():
    v = BlockVector([("y", [3.0]), ("z", [4.0])])
    assert norm_sq(v) == 25.0


def test_norm_sq_all_ones():
    assert norm_sq(BlockVector([("a", np.ones(10))])) == 10.0


def test_norm_sq_invariant_under_block_splitting():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(12)
    whole = BlockVector([("a", x)])
    split = BlockVector([("a", x[:5]), ("b", x[5:])])
    assert norm_sq(whole) == pytest.approx(norm_sq(split), rel=1e-15)


def test_rejects_nan_and_inf():
    with pytest.raises(EvaluationError):
        BlockVector([("a", [1.0, np.nan])])
    with pytest.raises(EvaluationError):
        BlockVector([("a", [np.inf])])


def test_rejects_empty_block_and_duplicate_ids():
    with pytest.raises(ShapeError):
        BlockVector([("a", [])])
    with pytest.raises(ShapeError):
        BlockVector([("a", [1.0]), ("a", [2.0])])
    with pytest.raises(ShapeError):
        BlockVector([])


def test_with_block_validates_and_preserves_structure():
    v = BlockVector([("y", [1.0, 2.0]), ("z", [3.0])])
    w = v.with_block(0, [5.0, 6.0])
    assert w.ids == ("y", "z")
    np.testing.assert_array_equal(w.block(0), [5.0, 6.0])
    np.testing.assert_array_equal(w.block(1), [3.0])
    np.testing.assert_array_equal(v.block(0), [1.0, 2.0])  # original untouched
    with pytest.raises(ShapeError):
        v.with_block(0, [1.0])
    with pytest.raises(EvaluationError):
        v.with_block(1, [np.nan])


def test_arrays_are_immutable():
    v = BlockVector([("a", [1.0, 2.0])])
    with pytest.raises(ValueError):
        v.block(0)[0] = 7.0
    w = v.with_block(0, [3.0, 4.0])
    with pytest.raises(ValueError):
        w.block(0)[0] = 7.0


def test_total_dim_and_flat():
    v = BlockVector([("y", [1.0, 2.0]), ("z", [3.0, 4.0, 5.0])])
    assert v.total_dim == 5
    np.testing.assert_array_equal(v.to_flat(), [1, 2, 3, 4, 5])


def test_to_flat_returns_a_new_array():
    v = BlockVector([("y", [1.0, 2.0]), ("z", [3.0])])
    flat = v.to_flat()
    assert v.to_flat() is not flat
    flat[0] = 7.0  # a private copy: the vector does not change
    np.testing.assert_array_equal(v.to_flat(), [1.0, 2.0, 3.0])
    w = v.with_block(1, [9.0])
    np.testing.assert_array_equal(w.to_flat(), [1.0, 2.0, 9.0])
