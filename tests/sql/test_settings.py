"""Every SET-able session knob validates the same way at every door.

:data:`repro.sql.session.SETTINGS` is the one list of ``SET``-able
knobs.  For each entry the in-memory and durable :class:`SQLSession`
constructors, the :class:`SQLServer` constructor and a ``SET``
statement (on an in-memory and on a durable session) reject the same
bad inputs with the same error type, and a good value reads back the
same way through :meth:`SQLSession.setting`.  A ``SET`` replies with
the setting's value as ``docs/protocol.md`` §4.1 states, and the WAL
text of a logged ``SET`` is pinned, so data directories written before
the table existed recover the same way.
"""

import numpy as np
import pytest

from repro.server import SQLServer
from repro.sql import SQLSession
from repro.sql.parser import SetStatement
from repro.sql.session import SETTINGS
from repro.storage import Catalog, Table, recovery

BAD = [0, -1, 1.5, "250", True, "sometimes"]

#: ``(knob, value as given, value read back)``
GOOD = [
    ("statement_timeout_ms", 250, 250),
    ("statement_timeout_ms", "off", None),
    ("wal_sync", "group", "group"),
    ("wal_sync", "OFF", "off"),
    ("checkpoint_interval", 16, 16),
    ("checkpoint_interval", "none", None),
]

#: SQL literals for the bad values a SET statement can spell
LITERALS = {0: "0", 1.5: "1.5", "250": "'250'", "sometimes": "sometimes"}


def make_catalog():
    cat = Catalog()
    cat.register(
        Table.from_arrays("t", {"a": np.arange(30, dtype=np.int64), "b": np.zeros(30)})
    )
    return cat


def set_value(session, name, value):
    """Run ``SET name = value`` with ``value`` exactly as given."""
    return session.run_prepared(session.prepare_parsed(SetStatement(name, value)))


def error_type(fn):
    with pytest.raises((TypeError, ValueError)) as err:
        fn()
    return type(err.value)


def test_the_table_lists_the_set_able_knobs():
    assert sorted(SETTINGS) == ["checkpoint_interval", "statement_timeout_ms", "wal_sync"]
    assert {name for name, s in SETTINGS.items() if s.logged} == {
        "wal_sync",
        "checkpoint_interval",
    }


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_every_door_rejects_a_bad_value_alike(name, bad, tmp_path):
    memory = SQLSession(make_catalog())
    durable = SQLSession(make_catalog(), data_dir=str(tmp_path / "set"))
    doors = {
        "constructor": lambda: SQLSession(make_catalog(), **{name: bad}),
        "durable constructor": lambda: SQLSession(
            make_catalog(), data_dir=str(tmp_path / "ctor"), **{name: bad}
        ),
        "server constructor": lambda: SQLServer(make_catalog(), **{name: bad}),
        "SET": lambda: set_value(memory, name, bad),
        "durable SET": lambda: set_value(durable, name, bad),
    }
    if bad in LITERALS:
        doors["SET text"] = lambda: memory.execute(f"SET {name} = {LITERALS[bad]}")
    errors = {door: error_type(fn) for door, fn in doors.items()}
    assert len(set(errors.values())) == 1, errors
    # a rejected SET changes nothing
    assert memory.setting(name) == SQLSession(make_catalog()).setting(name)
    assert durable.setting(name) == memory.setting(name)
    durable.close()


@pytest.mark.parametrize("name,value,read", GOOD)
def test_every_door_reads_a_good_value_back_alike(name, value, read, tmp_path):
    built = SQLSession(make_catalog(), **{name: value})
    built_durable = SQLSession(make_catalog(), data_dir=str(tmp_path / "ctor"), **{name: value})
    server = SQLServer(make_catalog(), **{name: value})
    memory = SQLSession(make_catalog())
    durable = SQLSession(make_catalog(), data_dir=str(tmp_path / "set"))
    reply = 0 if read is None or isinstance(read, str) else read
    assert set_value(memory, name, value) == reply
    assert set_value(durable, name, value) == reply
    for session in (built, built_durable, server.session._session, memory, durable):
        assert session.setting(name) == read
    for session in (built_durable, durable):
        session.close()
    server.session.close()


@pytest.mark.parametrize(
    "sql,reply",
    [
        ("SET statement_timeout_ms = 250", 250),
        ("SET statement_timeout_ms = off", 0),
        ("SET checkpoint_interval = 16", 16),
        ("SET checkpoint_interval = off", 0),
        ("SET wal_sync = group", 0),
    ],
)
@pytest.mark.parametrize("durable", [False, True])
def test_set_replies_with_the_setting_value(sql, reply, durable, tmp_path):
    data_dir = str(tmp_path) if durable else None
    with SQLSession(make_catalog(), data_dir=data_dir) as session:
        assert session.execute(sql) == reply


def test_set_logs_the_same_wal_text(tmp_path):
    with SQLSession(make_catalog(), data_dir=str(tmp_path)) as session:
        session.execute("SET statement_timeout_ms = 250")  # not logged
        session.execute("SET wal_sync = GROUP")
        session.execute("SET checkpoint_interval = 16")
        session.execute("SET checkpoint_interval = 'None'")
    (_, segment), = recovery.list_segments(str(tmp_path))
    records, _, torn = recovery.scan_segment(segment, allow_torn=False)
    assert not torn
    assert [(r.kind, r.sql) for r in records] == [
        ("set", "SET wal_sync = group"),
        ("set", "SET checkpoint_interval = 16"),
        ("set", "SET checkpoint_interval = off"),
    ]


@pytest.mark.parametrize("name", ["data_dir", "parallelism"])
def test_set_rejects_what_the_table_does_not_list(name):
    match = "constructor-only" if name == "data_dir" else "unknown session setting"
    with pytest.raises(ValueError, match=match):
        SQLSession(make_catalog()).execute(f"SET {name} = 2")
