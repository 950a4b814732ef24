"""Unit tests for logical column types."""

import numpy as np

from repro.storage import ColumnType


class TestColumnType:
    def test_infer_int(self):
        assert ColumnType.infer(np.array([1, 2])) is ColumnType.INT64

    def test_infer_float(self):
        assert ColumnType.infer(np.array([1.5])) is ColumnType.FLOAT64

    def test_infer_string(self):
        arr = np.array(["a", "b"], dtype=object)
        assert ColumnType.infer(arr) is ColumnType.STRING

    def test_numpy_dtype(self):
        assert ColumnType.INT64.numpy_dtype is np.int64
        assert ColumnType.FLOAT64.numpy_dtype is np.float64
        assert ColumnType.STRING.numpy_dtype is object
