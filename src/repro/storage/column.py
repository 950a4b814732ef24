"""Logical column types over numpy arrays.

Tables hold one numpy array per column and own the mutation logic
(through positional deltas).  Three logical types cover the paper's
workloads: 64-bit integers, 64-bit floats and strings.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["ColumnType"]


class ColumnType(enum.Enum):
    """Logical column types supported by the substrate."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"

    @property
    def numpy_dtype(self) -> object:
        if self is ColumnType.INT64:
            return np.int64
        if self is ColumnType.FLOAT64:
            return np.float64
        return object

    @classmethod
    def infer(cls, values: np.ndarray) -> "ColumnType":
        """Infer the logical type of a numpy array."""
        if np.issubdtype(values.dtype, np.integer) or np.issubdtype(values.dtype, np.bool_):
            return cls.INT64
        if np.issubdtype(values.dtype, np.floating):
            return cls.FLOAT64
        return cls.STRING
