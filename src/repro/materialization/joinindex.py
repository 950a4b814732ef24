"""JoinIndex materialization ([27], baseline of §6.3).

A JoinIndex materializes a foreign-key join by storing, for every fact
tuple, the rowID of its dimension join partner as an additional fact
column.  A join query then degenerates to a scan of the fact table plus
a positional gather from the dimension table — no hash table and no
merge.  Creation performs the full join (the paper measures ~6× the
PatchIndex creation time); fact inserts compute partners for the new
tuples only, fact deletes drop entries positionally.  Every partition
of the fact table is hooked; an event's partition-local rowids are
shifted by that partition's offset at event time, so the one partner
array stays aligned with the table-global rowids.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = ["JoinIndex"]

#: partner value for fact tuples without a dimension match
NO_PARTNER = -1


class JoinIndex:
    """Materialized FK join between a fact and a dimension table."""

    def __init__(
        self,
        fact,
        fact_key: str,
        dim,
        dim_key: str,
        auto_maintain: bool = True,
        catalog=None,
    ) -> None:
        self.fact = fact
        self.fact_key = fact_key
        self.dim = dim
        self.dim_key = dim_key
        self._partners = self._compute_partners(fact.column(fact_key))
        self._maintaining = False
        if auto_maintain:
            for part in fact.partitions:
                part.add_update_hook(self._on_fact_update)
            self._maintaining = True
        if catalog is not None:
            catalog.add_structure("joinindex", fact.name, fact_key, self)

    # ------------------------------------------------------------------
    def _compute_partners(self, fact_keys: np.ndarray) -> np.ndarray:
        """Full FK join: hash table on the dimension, probe per fact row.

        Creating a JoinIndex performs the join it materializes — the
        expensive part the paper measures (~6× a PatchIndex creation).
        Duplicate dimension keys keep their first occurrence.
        """
        dim_keys = self.dim.column(self.dim_key)
        if len(dim_keys) == 0:
            return np.full(len(fact_keys), NO_PARTNER, dtype=np.int64)
        index_of: dict = {}
        for pos, key in enumerate(dim_keys.tolist()):
            index_of.setdefault(key, pos)
        return np.fromiter(
            (index_of.get(k, NO_PARTNER) for k in fact_keys.tolist()),
            dtype=np.int64,
            count=len(fact_keys),
        )

    def _on_fact_update(self, part, event) -> None:
        offset = int(self.fact.partition_offsets()[self.fact.partitions.index(part)])
        rowids = event.rowids + offset
        if event.kind == "insert":
            new_keys = np.asarray(event.values[self.fact_key])
            at = offset + part.num_rows - len(rowids)  # the partition's old end
            self._partners = np.insert(self._partners, at, self._compute_partners(new_keys))
        elif event.kind == "delete":
            self._partners = np.delete(self._partners, rowids)
        elif event.kind == "modify":
            if self.fact_key in event.values:
                new_keys = np.asarray(event.values[self.fact_key])
                self._partners[rowids] = self._compute_partners(new_keys)

    # ------------------------------------------------------------------
    @property
    def partners(self) -> np.ndarray:
        """Dimension rowID per fact tuple (``NO_PARTNER`` if none)."""
        return self._partners

    def join(
        self,
        fact_columns: List[str],
        dim_columns: List[str],
        fact_mask: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """The materialized join: gather dimension columns positionally.

        ``fact_mask`` optionally restricts the fact rows (pre-join
        selection); unmatched fact tuples are dropped (inner join).
        """
        partners = self._partners
        keep = partners >= 0
        if fact_mask is not None:
            keep = keep & fact_mask
        idx = np.flatnonzero(keep)
        out: Dict[str, np.ndarray] = {}
        for c in fact_columns:
            out[c] = self.fact.column(c)[idx]
        gather = partners[idx]
        for c in dim_columns:
            out[c] = self.dim.column(c)[gather]
        return out

    def memory_bytes(self) -> int:
        """The extra 8-byte column on the fact table."""
        return self._partners.nbytes

    def verify(self) -> bool:
        """Partner correctness check (test helper; full scan)."""
        expected = self._compute_partners(self.fact.column(self.fact_key))
        return bool(np.array_equal(expected, self._partners))

    def detach(self) -> None:
        """Stop maintaining."""
        if self._maintaining:
            for part in self.fact.partitions:
                part.remove_update_hook(self._on_fact_update)
            self._maintaining = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JoinIndex({self.fact.name}.{self.fact_key} -> {self.dim.name}.{self.dim_key})"
