"""Unit tests for the microbenchmark and PublicBI generators."""

import numpy as np
import pytest

from repro.core import discover_nsc_patches, discover_nuc_patches
from repro.workloads import (
    PUBLICBI_SPECS,
    generate_dataset,
    generate_publicbi_dataset,
    insert_batch,
    modify_batch,
)
from repro.workloads.publicbi import profile_histogram


class TestNUCGenerator:
    def test_exception_rate_is_respected(self):
        ds = generate_dataset(10_000, 0.3, "nuc", seed=1)
        patches = discover_nuc_patches(ds.table.column("v"))
        measured = len(patches) / ds.num_rows
        assert measured == pytest.approx(0.3, abs=0.01)

    def test_zero_exception_rate(self):
        ds = generate_dataset(5_000, 0.0, "nuc")
        assert len(discover_nuc_patches(ds.table.column("v"))) == 0

    def test_full_exception_rate(self):
        ds = generate_dataset(5_000, 1.0, "nuc")
        patches = discover_nuc_patches(ds.table.column("v"))
        assert len(patches) == pytest.approx(5_000, abs=10)

    def test_key_column_unique(self):
        ds = generate_dataset(1_000, 0.5, "nuc")
        keys = ds.table.column("k")
        assert len(np.unique(keys)) == len(keys)

    def test_exception_values_pool_reused(self):
        ds = generate_dataset(10_000, 0.4, "nuc", num_exception_values=10)
        values = ds.table.column("v")
        uniq, counts = np.unique(values, return_counts=True)
        dup_values = uniq[counts > 1]
        assert len(dup_values) <= 10

    def test_deterministic_by_seed(self):
        a = generate_dataset(1_000, 0.2, "nuc", seed=7)
        b = generate_dataset(1_000, 0.2, "nuc", seed=7)
        np.testing.assert_array_equal(a.table.column("v"), b.table.column("v"))


class TestNSCGenerator:
    def test_exception_rate_close(self):
        ds = generate_dataset(10_000, 0.2, "nsc", seed=2)
        patches, _ = discover_nsc_patches(ds.table.column("v"))
        measured = len(patches) / ds.num_rows
        # a random replacement can accidentally fit the sorted run, so
        # the measured rate is at most the requested one
        assert measured <= 0.2 + 1e-9
        assert measured >= 0.15

    def test_zero_rate_is_sorted(self):
        ds = generate_dataset(5_000, 0.0, "nsc")
        v = ds.table.column("v")
        assert np.all(v[1:] >= v[:-1])

    def test_partitioned_output(self):
        ds = generate_dataset(8_000, 0.1, "nsc", num_partitions=8)
        assert len(ds.table.partitions) == 8
        assert ds.table.num_rows == 8_000


class TestValidation:
    def test_bad_rate(self):
        with pytest.raises(ValueError):
            generate_dataset(100, 1.5, "nuc")

    def test_bad_constraint(self):
        with pytest.raises(ValueError):
            generate_dataset(100, 0.5, "fd")


class TestUpdateBatches:
    def test_insert_batch_fresh_keys(self):
        ds = generate_dataset(1_000, 0.5, "nuc")
        batch = insert_batch(ds, 50)
        assert not np.isin(batch["k"], ds.table.column("k")).any()
        assert len(batch["k"]) == 50

    def test_insert_batch_collisions(self):
        ds = generate_dataset(1_000, 0.5, "nuc")
        batch = insert_batch(ds, 100, collide_fraction=0.5)
        collisions = np.isin(batch["v"], ds.table.column("v")).sum()
        assert collisions >= 40

    def test_modify_batch_rowids_valid(self):
        ds = generate_dataset(1_000, 0.5, "nsc")
        batch = modify_batch(ds, 30)
        assert batch["rowids"].max() < 1_000
        assert len(batch["rowids"]) == 30


class TestPublicBI:
    @pytest.mark.parametrize("name", list(PUBLICBI_SPECS))
    def test_generated_match_rates_track_spec(self, name):
        spec = PUBLICBI_SPECS[name]
        table = generate_publicbi_dataset(spec, num_rows=4_000, seed=3)
        for i, target in enumerate(spec.match_rates):
            values = table.column(f"c{i:03d}")
            if spec.constraint == "nsc":
                patches, _ = discover_nsc_patches(values)
            else:
                patches = discover_nuc_patches(values)
            measured = 1.0 - len(patches) / len(values)
            assert measured == pytest.approx(target, abs=0.06)

    def test_histogram_bucketing(self):
        hist = profile_histogram([0.95, 0.91, 0.5, 0.1])
        assert hist["80-100%"] == 2
        assert hist["40-60%"] == 1
        assert hist["0-20%"] == 1
