"""Fixtures shared by the engine, SQL and regression suites."""

import pytest

import repro.engine.operators as operators_mod
import repro.sql.session as session_mod


@pytest.fixture
def piece_rows(monkeypatch):
    """Setter for the rows per piece of the piecewise paths.

    While a cancellation token is armed, scans and DML predicates run in
    ``CHECKPOINT_ROWS``-row pieces; test tables are far smaller than the
    production 65 536, so the suites shrink it to make every table cut
    into many pieces (restored after the test).
    """

    def set_rows(rows: int) -> None:
        monkeypatch.setattr(operators_mod, "CHECKPOINT_ROWS", rows)
        monkeypatch.setattr(session_mod, "CHECKPOINT_ROWS", rows)

    return set_rows
