"""STRING columns held as dictionary codes write the same bytes to disk.

A STRING column is stored as int32 codes into an append-only dictionary
and decoded at the WAL, checkpoint and wire boundaries, so the files a
durable session leaves are the ones the object-array storage wrote.
The digests below were taken from that storage for the same statements.

A checkpoint pickles each string column as an object array, and pickle
writes a repeated *object* once and refers back to it after; decoding
yields one object per distinct value.  Where the object-array storage
held equal strings as distinct objects (each parsed SQL literal of more
than one character is one), its checkpoint repeated them in full and a
decoded one refers back instead: the pin holds for a history whose
strings the object-array storage held one object per value, and every
history restores the same values.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.sql import SQLSession
from repro.storage import Catalog, ColumnType, Table

#: sha256 of each file the history below leaves, from the object-array storage
PINNED = {
    "checkpoint-0000000000000005.ckpt": "81dd7870d8a29fb9",
    "checkpoint-0000000000000006.ckpt": "841e4b1b97d84b7b",
    "wal-0000000000000006.log": "e582c8abe29941b7",
    "wal-0000000000000007.log": "e3b0c44298fc1c14",
}
ANSWER = [
    (3, "alpha"), (6, "beta"), (7, "delta"), (9, "eta"), (2, "omega"), (10, "theta"),
    (11, "zeta"), (1, None), (4, None), (5, None), (8, None), (12, None),
]


def catalog():
    cat = Catalog()
    s = np.array(["alpha", None, "beta", "alpha", "gamma", None, "beta"], dtype=object)
    cat.register(
        Table.from_arrays(
            "t", {"k": np.arange(7, dtype=np.int64), "s": s}, types={"s": ColumnType.STRING}
        )
    )
    return cat


def run_history(data_dir, inserted=("eta", "theta", "epsilon")):
    """INSERT, UPDATE to a new string and to NULL, DELETE, a checkpoint,
    one more UPDATE, then a clean close; returns the read before closing."""
    first, second, third = inserted
    with SQLSession(catalog(), data_dir=str(data_dir)) as session:
        session.execute(
            f"INSERT INTO t (k, s) VALUES (7, 'delta'), (8, NULL), (9, '{first}'), (10, '{second}')"
        )
        session.execute("UPDATE t SET s = 'omega' WHERE k = 2")
        session.execute("UPDATE t SET s = NULL WHERE s = 'gamma'")
        session.execute("DELETE FROM t WHERE k = 0")
        session.execute(f"INSERT INTO t (k, s) VALUES (11, '{third}'), (12, NULL)")
        session.checkpoint()
        session.execute("UPDATE t SET s = 'zeta' WHERE k = 11")
        return session.execute("SELECT k, s FROM t ORDER BY s, k").to_rows()


def digests(data_dir):
    out = {}
    for name in sorted(os.listdir(data_dir)):
        with open(os.path.join(data_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return out


def restart(data_dir):
    with SQLSession(Catalog(), data_dir=str(data_dir)) as session:
        return session.execute("SELECT k, s FROM t ORDER BY s, k").to_rows()


def test_wal_and_checkpoint_bytes_are_pinned(tmp_path):
    assert run_history(tmp_path) == ANSWER
    got = digests(tmp_path)
    assert got.keys() == PINNED.keys()
    for name, digest in PINNED.items():
        if name.endswith(".ckpt") and int(np.__version__.split(".")[0]) < 2:
            continue  # the pickle names numpy's core module, renamed in numpy 2
        assert got[name] == digest, name
    assert restart(tmp_path) == ANSWER


@pytest.mark.parametrize("inserted", [("alpha", "delta", "delta"), ("beta", "beta", "beta")])
def test_repeated_literals_restore_the_same_values(tmp_path, inserted):
    before = run_history(tmp_path, inserted)
    assert restart(tmp_path) == before
    assert digests(tmp_path)["wal-0000000000000006.log"] == PINNED["wal-0000000000000006.log"]
