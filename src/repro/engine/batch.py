"""Relations: the columnar data flowing between operators."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.storage.column import Coded, StringDictionary

__all__ = ["Relation", "CodedColumn", "ROWID", "stored"]

#: Reserved column carrying tuple rowIDs through a dataflow: UPDATE and
#: DELETE collect the rowIDs their predicate matches under this name.
ROWID = "__rowid__"


class CodedColumn:
    """A string column held as int32 codes into its table's dictionary.

    Row selections gather the codes; :meth:`values` decodes once and
    keeps the result, as the codes never change.
    """

    __slots__ = ("codes", "dictionary", "_values")

    def __init__(self, codes: np.ndarray, dictionary: StringDictionary) -> None:
        self.codes = codes
        self.dictionary = dictionary
        self._values: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> "CodedColumn":
        return CodedColumn(self.codes[rows], self.dictionary)

    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self.dictionary.decode(self.codes)
        return self._values


Held = Union[np.ndarray, CodedColumn]


def stored(table, name: str, rows=slice(None)) -> Held:
    """Column ``name`` of a table at ``rows``, coded when stored coded."""
    coded = table.codes(name)
    if coded is None:
        return table.column(name)[rows]
    return CodedColumn(coded[0][rows], coded[1])


def _stack(parts: Sequence[Held], combine: Callable) -> Held:
    """``combine`` over the parts' codes when one dictionary codes them
    all, else over their values."""
    first = parts[0]
    if isinstance(first, CodedColumn) and all(
        isinstance(p, CodedColumn) and p.dictionary is first.dictionary for p in parts
    ):
        return CodedColumn(combine([p.codes for p in parts]), first.dictionary)
    return combine([p.values() if isinstance(p, CodedColumn) else p for p in parts])


class Relation:
    """An immutable set of equal-length named columns.

    A string column may be held as a :class:`CodedColumn`: row selections
    and projections keep it coded, :meth:`column` decodes it and
    :meth:`key` hands the kernels its codes.
    """

    __slots__ = ("_columns", "_num_rows")

    def __init__(self, columns: Dict[str, Held]) -> None:
        lengths = {len(arr) for arr in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: {sorted(lengths)}")
        self._columns = dict(columns)
        self._num_rows = lengths.pop() if lengths else 0

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def held(self, name: str) -> Held:
        """The column as held: a :class:`CodedColumn` or an array."""
        if name not in self._columns:
            raise KeyError(f"unknown column {name!r}; have {self.column_names}")
        return self._columns[name]

    def column(self, name: str) -> np.ndarray:
        arr = self.held(name)
        return arr.values() if isinstance(arr, CodedColumn) else arr

    def codes(self, name: str) -> Optional[Coded]:
        """``(codes, dictionary)`` of a coded column, else None."""
        arr = self.held(name)
        return (arr.codes, arr.dictionary) if isinstance(arr, CodedColumn) else None

    def key(self, name: str):
        """A column as the kernels take it: its codes when coded."""
        return self.codes(name) or self.column(name)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Relation":
        """Row selection by index array (gathers every column)."""
        return Relation({n: arr[indices] for n, arr in self._columns.items()})

    def filter(self, mask: np.ndarray) -> "Relation":
        """Row selection by boolean mask: a gather of the kept positions,
        or a compress per column when over 15/16 of the rows are kept
        (the measured crossover, 1–5 int64 columns of 4 k–180 k rows)."""
        if np.count_nonzero(mask) * 16 > len(mask) * 15:
            return Relation({n: arr[mask] for n, arr in self._columns.items()})
        return self.take(np.flatnonzero(mask))

    def select(self, names: Sequence[str]) -> "Relation":
        """Column projection."""
        return Relation({n: self.held(n) for n in names})

    def with_column(self, name: str, values: Held) -> "Relation":
        """Add or replace one column."""
        if len(values) != self._num_rows and self._columns:
            raise ValueError("column length mismatch")
        cols = dict(self._columns)
        cols[name] = values
        return Relation(cols)

    def drop(self, names: Iterable[str]) -> "Relation":
        """Remove columns if present."""
        names = set(names)
        return Relation({n: a for n, a in self._columns.items() if n not in names})

    @staticmethod
    def concat(
        relations: Sequence["Relation"], combine: Callable = np.concatenate
    ) -> "Relation":
        """Stack relations with identical column sets vertically.

        ``combine`` joins one column's arrays (default: end to end); a
        string column stays coded when one dictionary codes every part.
        """
        relations = [r for r in relations]
        if not relations:
            return Relation({})
        names = relations[0].column_names
        for r in relations[1:]:
            if set(r.column_names) != set(names):
                raise ValueError("concat requires identical column sets")
        return Relation({n: _stack([r.held(n) for r in relations], combine) for n in names})

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def to_rows(self) -> List[tuple]:
        """Materialize as python tuples (test/debug helper)."""
        names = self.column_names
        return list(zip(*(self.column(n).tolist() for n in names)))

    def sort_by(
        self,
        keys: Sequence[str],
        ascending: Optional[Sequence[bool]] = None,
    ) -> "Relation":
        """Multi-key sort in the engine's canonical stable order.

        The permutation is
        :func:`repro.engine.sort.serial_sort_permutation` — the
        repeated stable-argsort composition every sort consumer shares.
        """
        from repro.engine.sort import serial_sort_permutation

        order = serial_sort_permutation([self.key(k) for k in keys], ascending)
        return self.take(order)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Relation(rows={self._num_rows}, cols={self.column_names})"
