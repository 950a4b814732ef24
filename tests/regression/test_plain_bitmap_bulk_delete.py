"""A rejected bulk delete leaves the plain bitmap as it was.

``PlainBitmap.bulk_delete`` deleted its positions highest first without
checking them, so an out-of-range position below the valid ones was
reached only after those had been deleted.  On the 8 bits
``[0 1 0 1 1 0 1 0]``, ``bulk_delete([5, -1])`` raised ``IndexError`` and
left 7 bits, ``[0 1 0 1 1 1 0]``.

The plain bitmap now checks the whole range first, as the sharded one
does.
"""

import numpy as np
import pytest

from repro.bitmap import PlainBitmap, ShardedBitmap

BITS = [0, 1, 0, 1, 1, 0, 1, 0]


@pytest.mark.parametrize("cls", [PlainBitmap, ShardedBitmap])
@pytest.mark.parametrize("victims", [[5, -1], [2, 8], [-3, 0, 9]])
def test_an_out_of_range_bulk_delete_changes_nothing(cls, victims):
    bm = cls.from_bool_array(np.array(BITS, dtype=bool))
    with pytest.raises(IndexError):
        bm.bulk_delete(victims)
    assert len(bm) == len(BITS)
    np.testing.assert_array_equal(bm.to_bool_array(), np.array(BITS, dtype=bool))
    bm.bulk_delete([5])  # still usable
    np.testing.assert_array_equal(bm.to_bool_array(), np.array(BITS[:5] + BITS[6:], dtype=bool))
