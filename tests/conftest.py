"""Fixtures shared by the engine, SQL and regression suites."""

import pytest

import repro.engine.operators as operators_mod
from repro.plan import nodes


@pytest.fixture
def piece_rows(monkeypatch):
    """Setter for the rows per piece of the piecewise paths.

    While a cancellation token is armed, scans and DML predicates (both
    :class:`repro.engine.operators.Scan`) run in ``CHECKPOINT_ROWS``-row
    pieces; test tables are far smaller than the
    production 65 536, so the suites shrink it to make every table cut
    into many pieces (restored after the test).
    """

    def set_rows(rows: int) -> None:
        monkeypatch.setattr(operators_mod, "CHECKPOINT_ROWS", rows)

    return set_rows


def _patch_mode(node):
    """Mode of the PatchScan under a Filter/Project chain, or None."""
    while isinstance(node, (nodes.FilterNode, nodes.ProjectNode)):
        node = node.child
    return node.mode if isinstance(node, nodes.PatchScanNode) else None


def _find_join_rewrite(plan):
    if isinstance(plan, nodes.UnionNode) and len(plan.inputs) == 2:
        merge, patch = plan.inputs
        if (
            isinstance(merge, nodes.JoinNode)
            and merge.build_side == "left"
            and isinstance(merge.left, nodes.ReuseCacheNode)
            and _patch_mode(merge.right) == "exclude_patches"
            and isinstance(patch, nodes.JoinNode)
            and patch.build_side == "left"
            and _patch_mode(patch.left) == "use_patches"
            and isinstance(patch.right, nodes.ReuseLoadNode)
            and patch.right.slot_id == merge.left.slot_id
        ):
            return merge, patch
    for child in plan.children():
        found = _find_join_rewrite(child)
        if found is not None:
            return found
    return None


@pytest.fixture
def join_rewrite():
    """Finder of the NSC join rewrite (§3.3, Fig. 2 right) in a plan.

    Returns ``(sorted_part, patch_part)`` or None: a join built on the
    cached sorted side "X" and probed by the exclude-patches flow, next
    to a join built on the use-patches flow and probed by X's Reuse
    load of the same slot.
    """
    return _find_join_rewrite
