"""A logged SET changes nothing when its WAL record cannot be written.

``SQLSession._run_set`` stored a logged knob (``wal_sync``,
``checkpoint_interval``) on the durability manager before it appended
the ``SET`` record.  So on a closed durable session ``SET wal_sync =
off`` raised ``WALError`` and the session read back ``off`` anyway; a
crash at the WAL append left the setting applied but never logged, so
a restart would come back with the old one.

A SET now logs first and applies after, as a write does.
"""

import numpy as np
import pytest

from repro.sql import SQLSession
from repro.storage import Catalog, Table, WALError, recovery
from repro.testing import FaultInjector, FaultRule, InjectedWorkerError, inject

#: ``(knob, a SET value, the value it reads back)``, none of them the default
LOGGED = [("wal_sync", "off", "off"), ("checkpoint_interval", "16", 16)]


def make_catalog():
    cat = Catalog()
    cat.register(Table.from_arrays("t", {"a": np.arange(4, dtype=np.int64)}))
    return cat


@pytest.mark.parametrize("name,value,read", LOGGED)
def test_set_on_a_closed_durable_session_changes_nothing(name, value, read, tmp_path):
    session = SQLSession(make_catalog(), data_dir=str(tmp_path))
    before = session.setting(name)
    assert before != read
    session.close()
    with pytest.raises(WALError):
        session.execute(f"SET {name} = {value}")
    assert session.setting(name) == before


@pytest.mark.parametrize("name,value,read", LOGGED)
def test_set_that_fails_at_the_wal_append_changes_nothing(name, value, read, tmp_path):
    with SQLSession(make_catalog(), data_dir=str(tmp_path)) as session:
        before = session.setting(name)
        injector = FaultInjector(
            seed=1, rules={"wal.append": FaultRule(action="raise", max_fires=1)}
        )
        with inject(injector):
            with pytest.raises(InjectedWorkerError):
                session.execute(f"SET {name} = {value}")
        assert session.setting(name) == before
        # the log stays usable: the same SET logs and applies now
        session.execute(f"SET {name} = {value}")
        assert session.setting(name) == read
    (_, segment), = recovery.list_segments(str(tmp_path))
    records, _, torn = recovery.scan_segment(segment, allow_torn=False)
    assert not torn
    assert [(r.kind, r.sql) for r in records] == [("set", f"SET {name} = {read}")]
