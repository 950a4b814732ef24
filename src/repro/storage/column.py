"""Logical column types over numpy arrays.

Tables hold one numpy buffer per column and own the mutation logic
(growing the buffers in place).  Three logical types cover the paper's
workloads: 64-bit integers, 64-bit floats and strings.  A STRING column
is stored as int32 codes into its :class:`StringDictionary`, and every
string kernel of the engine reads the codes.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

__all__ = ["ColumnType", "StringDictionary", "string_codes"]


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


class _CodeOf(dict):
    """value -> code; a value met the first time takes the next code."""

    def __init__(self) -> None:
        super().__init__({None: -1})
        self.new: list = []

    def __missing__(self, value):
        code = self[value] = len(self) - 1
        self.new.append(value)
        return code


class StringDictionary:
    """The append-only dictionary of a STRING column.

    Code ``i`` is the ``i``-th distinct value :meth:`encode` met and NULL
    (``None``) is -1.  The dictionary only grows and a code never
    changes, so codes a reader holds decode the same after any write.
    ``rank`` is each code's position among the values in sort order,
    rebuilt only after the dictionary grew.
    """

    def __init__(self) -> None:
        self._code_of = _CodeOf()
        # the values, then free slots: the last stays None, code -1's
        self._slots = np.empty(1, dtype=object)
        self._size = 0
        self._rank = np.zeros(0, dtype=np.int32)

    def __len__(self) -> int:
        return self._size

    @property
    def values(self) -> np.ndarray:
        return self._slots[: self._size]

    def encode(self, values) -> np.ndarray:
        """int32 codes of a sequence of values, learning the new ones."""
        items = values.tolist() if isinstance(values, np.ndarray) else list(values)
        codes = np.fromiter(map(self._code_of.__getitem__, items), np.int32, len(items))
        new = self._code_of.new
        if new:
            size = self._size + len(new)
            if size >= len(self._slots):
                slots = np.empty(2 * size + 1, dtype=object)
                slots[: self._size] = self.values
                self._slots = slots
            self._slots[self._size : size] = new
            self._size = size
            new.clear()
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The values of ``codes`` as an object array, NULL as None."""
        return self._slots[codes]

    @property
    def rank(self) -> np.ndarray:
        if len(self._rank) != self._size:
            rank = np.empty(self._size, dtype=np.int32)
            rank[np.argsort(self.values, kind="stable")] = np.arange(self._size, dtype=np.int32)
            self._rank = rank
        return self._rank

    def gather(self, per_value: np.ndarray, codes: np.ndarray, null) -> np.ndarray:
        """``per_value[codes]``, with ``null`` where a code is NULL."""
        return np.append(per_value, null)[codes]


#: ``(codes, dictionary)``: a string column as the engine's kernels read it
Coded = Tuple[np.ndarray, StringDictionary]


def string_codes(*keys) -> Optional[Tuple[list, StringDictionary]]:
    """``([codes, ...], dictionary)``: the keys' codes in one dictionary,
    None unless one is a string key (an object array or a ``Coded``).

    Coded keys of one dictionary keep their codes unless it holds more
    values than they have rows; otherwise every key is encoded once into
    a fresh dictionary.
    """
    keys = [key if isinstance(key, tuple) else np.asarray(key) for key in keys]
    coded = [key for key in keys if isinstance(key, tuple)]
    if not coded and all(key.dtype.kind != "O" for key in keys):
        return None
    first = coded[0][1] if coded else None
    rows = sum(len(key[0]) if isinstance(key, tuple) else len(key) for key in keys)
    if len(coded) == len(keys) and all(d is first for _, d in coded) and len(first) <= rows:
        return [codes for codes, _ in keys], first
    fresh = StringDictionary()
    return [fresh.encode(k[1].decode(k[0]) if isinstance(k, tuple) else k) for k in keys], fresh
