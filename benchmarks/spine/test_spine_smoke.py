"""Tier-1 smoke test of the benchmark spine: names, oracles, determinism.

Runs all four workloads at toy scale (10 k rows, 2 rounds) in process.
It asserts nothing about time: only that the spine emits exactly the
metrics ``BENCHMARK.json`` declares, that every statement's answer
checked out, and that the count metrics repeat exactly for one seed.
"""

import functools
import json
import os
import re

import pytest
import spine_run

TOY = ["--scale", "0.05", "--rounds", "2", "--seed", "5"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNTS = (
    "plan.pi_rewritten_share",
    "engine.patch_rows_share",
    "core.patches_after",
    "core.index_bytes_per_row",
    "storage.wal_bytes_per_commit",
)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(spine_run.REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def run(workload, trace, attempt=0):
    args = spine_run.parse_args(["--workload", workload, "--trace", str(trace)] + TOY)
    return spine_run.run_workload(args)


def test_benchmark_json_is_within_the_contract_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/spine"]
    assert [w["name"] for w in spec["workloads"]] == list(spine_run.WORKLOADS)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("workload", spine_run.WORKLOADS)
def test_workload_emits_the_declared_metrics_and_no_errors(spec, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        doc = run(workload, trace)
        assert doc["errors"] == []
        assert doc["attempted"] > 0
        assert list(doc["metrics"]) and set(doc["metrics"]) == {m["name"] for m in spec[key]}
        line = json.loads(spine_run.contract_line(doc))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        for metric in spec[key]:
            got = line["metrics"][metric["name"]]
            assert set(got) == {"value", "unit"} and got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
        if trace:
            assert doc["metrics"]["stmt.error_rate"]["value"] == 0
        else:
            assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", ["pi_query", "plain_query", "pi_update"])
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = (run(workload, 1, attempt)["metrics"] for attempt in range(2))
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
