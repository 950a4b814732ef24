"""Relations: the columnar data flowing between operators."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["Relation", "ROWID"]

#: Reserved column carrying tuple rowIDs through a dataflow: UPDATE and
#: DELETE collect the rowIDs their predicate matches under this name.
ROWID = "__rowid__"


class Relation:
    """An immutable set of equal-length named columns."""

    __slots__ = ("_columns", "_num_rows")

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
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
    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise KeyError(f"unknown column {name!r}; have {self.column_names}")
        return self._columns[name]

    def columns(self) -> Dict[str, np.ndarray]:
        return dict(self._columns)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Relation":
        """Row selection by index array (gathers every column)."""
        return Relation({n: arr[indices] for n, arr in self._columns.items()})

    def filter(self, mask: np.ndarray) -> "Relation":
        """Row selection by boolean mask."""
        return Relation({n: arr[mask] for n, arr in self._columns.items()})

    def select(self, names: Sequence[str]) -> "Relation":
        """Column projection."""
        return Relation({n: self.column(n) for n in names})

    def with_column(self, name: str, values: np.ndarray) -> "Relation":
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
    def concat(relations: Sequence["Relation"]) -> "Relation":
        """Stack relations with identical column sets vertically."""
        relations = [r for r in relations]
        if not relations:
            return Relation({})
        names = relations[0].column_names
        for r in relations[1:]:
            if set(r.column_names) != set(names):
                raise ValueError("concat requires identical column sets")
        return Relation(
            {n: np.concatenate([r.column(n) for r in relations]) for n in names}
        )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def to_rows(self) -> List[tuple]:
        """Materialize as python tuples (test/debug helper)."""
        names = self.column_names
        return list(zip(*(self._columns[n].tolist() for n in names)))

    def sort_by(
        self,
        keys: Sequence[str],
        ascending: Optional[Sequence[bool]] = None,
        context=None,
    ) -> "Relation":
        """Multi-key sort in the engine's canonical stable order.

        The permutation is
        :func:`repro.engine.parallel_sort.sort_permutation` — the
        repeated stable-argsort composition every sort consumer shares;
        passing an :class:`~repro.engine.parallel.ExecutionContext` runs
        it as parallel chunk-sorts plus a deterministic k-way merge with
        bit-identical output.
        """
        from repro.engine.parallel_sort import sort_permutation

        if ascending is None:
            ascending = [True] * len(keys)
        order = sort_permutation(
            [self._columns[k] for k in keys], ascending, context=context
        )
        return self.take(order)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Relation(rows={self._num_rows}, cols={self.column_names})"
