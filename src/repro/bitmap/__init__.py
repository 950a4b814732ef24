"""Bitmap data structures underlying the PatchIndex (paper §4).

Two designs are provided:

* :class:`~repro.bitmap.plain.PlainBitmap` — the ordinary bitmap baseline.
  Single-bit access is cheap, but deleting a bit shifts the *entire*
  remainder of the bitmap.
* :class:`~repro.bitmap.sharded.ShardedBitmap` — the paper's contribution.
  The bitmap is virtually divided into shards, each with a start value
  (a fence pointer).  Deletes shift only within one shard, so they are
  cheap; bulk deletes group their positions by shard, repack a shard
  that loses many bits and shift the others with a vectorized
  cross-element kernel (the numpy stand-in for the paper's AVX2
  intrinsics, Listing 1).  Maintenance is serial: the
  paper's thread per shard (§4.2.3/§4.2.4) was measured on CPython
  threads and did not pay.
"""

from repro.bitmap.plain import PlainBitmap
from repro.bitmap.sharded import ShardedBitmap

__all__ = ["PlainBitmap", "ShardedBitmap"]
