"""tools/reach_census.py keys, matches and judges functions correctly.

The census is only as good as four things: the ``ast`` enumeration must
key every function by the line its code object reports (otherwise a
reached function reads as unreached), every allowlist entry must name
code that exists, the verdict must fold nested functions into their
unreached parent and fail on anything unlisted, and the generated probe
must record calls in worker threads and child processes.  The coverage
sources themselves are too slow to run here.
"""

from __future__ import annotations

import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys
import types

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"

_spec = importlib.util.spec_from_file_location("reach_census", REPO / "tools" / "reach_census.py")
reach_census = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = reach_census
_spec.loader.exec_module(reach_census)

DEFS = reach_census.enumerate_defs()
BY_NAME = {d.name: d for d in DEFS}
MODULES = sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py"))


def _function_codes(code: types.CodeType, prefix: str = ""):
    """``(qualname, code)`` of every function under ``code``: no lambdas, genexprs or class bodies.

    The qualified name is built from the enclosing code objects' ``co_name``
    (``co_qualname`` needs Python 3.11), without the ``<locals>`` parts.
    """
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield qualname, const
            yield from _function_codes(const, qualname + ".")


def _write_records(directory: pathlib.Path, defs) -> None:
    real = os.path.realpath(PACKAGE)
    with open(directory / "reach-1.txt", "w") as fh:
        for d in defs:
            fh.write(f"{os.path.join(real, d.rel)}:{d.line}\n")


def _census(tmp_path, capsys, omit=()):
    _write_records(tmp_path, [d for d in DEFS if d.name not in omit])
    status = reach_census.census(str(tmp_path))
    return status, capsys.readouterr().out


@pytest.mark.parametrize("rel", MODULES)
def test_every_function_code_object_is_keyed(rel):
    source = (PACKAGE / rel).read_text(encoding="utf-8")
    compiled = compile(source, str(PACKAGE / rel), "exec")
    from_code = {(c.co_firstlineno, qualname) for qualname, c in _function_codes(compiled)}
    from_ast = {(d.line, d.qualname) for d in DEFS if d.rel == rel}
    assert from_ast == from_code


@pytest.mark.parametrize("key", sorted(reach_census.ALLOWLIST))
def test_allowlist_entry_names_existing_code(key):
    assert reach_census.ALLOWLIST[key].strip(), "every entry carries a reason"
    assert any(reach_census.covers(key, d) for d in DEFS), f"{key} names no function"


def test_decorated_function_is_keyed_by_its_first_decorator():
    prop = BY_NAME["repro.storage.partition.PartitionedTable.partitions"]
    lines = (PACKAGE / prop.rel).read_text(encoding="utf-8").splitlines()
    assert lines[prop.line - 1].strip() == "@property"
    assert lines[prop.line].strip().startswith("def partitions(")


def test_nested_function_records_its_parent():
    inner = BY_NAME["repro.plan.joinorder.extract_join_graph.collect"]
    assert inner.parent is BY_NAME["repro.plan.joinorder.extract_join_graph"]
    assert BY_NAME["repro.plan.joinorder.extract_join_graph"].parent is None


def test_methods_have_no_parent_function():
    assert BY_NAME["repro.plan.joinorder.JoinGraph.neighbors"].parent is None


@pytest.mark.parametrize(
    "rel, qualname, name",
    [
        ("plan/joinorder.py", "dp_order", "repro.plan.joinorder.dp_order"),
        ("core/__init__.py", "f", "repro.core.f"),
        ("__init__.py", "f", "repro.f"),
    ],
)
def test_def_name_is_the_dotted_module_path(rel, qualname, name):
    assert reach_census.Def(rel, qualname, 1, 1, None).name == name


def test_module_glob_matches_the_relative_path():
    d = reach_census.Def("engine/sort.py", "f", 1, 1, None)
    assert reach_census.covers("engine/s*.py", d)
    assert not reach_census.covers("bitmap/s*.py", d)


def test_qualified_name_covers_nested_functions_but_not_prefixes():
    outer = reach_census.Def("a.py", "f", 1, 3, None)
    inner = reach_census.Def("a.py", "f.g", 2, 3, outer)
    sibling = reach_census.Def("a.py", "fg", 4, 5, None)
    assert reach_census.covers("repro.a.f", outer)
    assert reach_census.covers("repro.a.f", inner)
    assert not reach_census.covers("repro.a.f", sibling)


def test_name_glob_matches_across_modules():
    d = reach_census.Def("plan/nodes.py", "Scan.label", 1, 1, None)
    assert reach_census.covers("repro.*.label", d)
    assert not reach_census.covers("repro.*.labels", d)


def test_everything_reached_passes(tmp_path, capsys):
    status, out = _census(tmp_path, capsys)
    assert status == 0
    assert ", 0 unreached and unlisted" in out
    assert "UNREACHED" not in out


def test_unlisted_function_fails_once_with_its_nested_functions(tmp_path, capsys):
    outer = "repro.plan.joinorder.extract_join_graph"
    assert not any(reach_census.covers(k, BY_NAME[outer]) for k in reach_census.ALLOWLIST)
    status, out = _census(tmp_path, capsys, omit={outer, outer + ".collect"})
    assert status == 1
    unreached = [line for line in out.splitlines() if line.startswith("UNREACHED")]
    assert len(unreached) == 1
    assert f" {outer} (" in unreached[0]


def test_unreached_nested_function_of_a_reached_one_is_reported(tmp_path, capsys):
    inner = "repro.plan.joinorder.extract_join_graph.collect"
    status, out = _census(tmp_path, capsys, omit={inner})
    assert status == 1
    assert f" {inner} (" in out


def test_allowlisted_function_passes_and_is_counted(tmp_path, capsys):
    key = "repro.plan.joinorder.enumerate_orders"
    status, out = _census(tmp_path, capsys, omit={key, key + ".extend"})
    assert status == 0
    assert f"allowed {key} (1 functions" in out


def test_allowlist_entry_with_nothing_unreached_is_called_stale(tmp_path, capsys):
    _, out = _census(tmp_path, capsys)
    assert "stale allowlist entry, nothing unreached under it: repro.plan.joinorder" in out


def test_every_bucket_prints_its_size_within_its_ceiling(tmp_path, capsys):
    status, out = _census(tmp_path, capsys)
    assert status == 0
    for reason, ceiling in reach_census.BUCKET_CEILINGS.items():
        size = sum(1 for r in reach_census.ALLOWLIST.values() if r == reason)
        assert size <= ceiling
        assert f"bucket {size} entries, within its ceiling of {ceiling}: {reason}" in out


def test_a_bucket_that_grows_fails(tmp_path, capsys, monkeypatch):
    grown = dict(reach_census.ALLOWLIST)
    grown["repro.plan.joinorder.dp_order"] = reach_census._EXPLAIN
    monkeypatch.setattr(reach_census, "ALLOWLIST", grown)
    status, out = _census(tmp_path, capsys)
    assert status == 1
    assert "GREW PAST its ceiling" in out and reach_census._EXPLAIN in out


def test_debt_buckets_name_the_item_that_retires_them():
    assert "item 10" in reach_census._FRONT_END
    assert "item 7" in reach_census._BITMAP_MODEL
    assert "items 3(f) and 11" in reach_census._SPINE_TRACE
    assert "item 11" in reach_census._EXPLAIN


def test_no_records_fails(tmp_path, capsys):
    assert reach_census.census(str(tmp_path)) == 1
    assert "no reach records" in capsys.readouterr().out


def test_spine_workloads_run_untraced():
    # the spine tracer's own probes must not count as reach
    spines = [argv for label, argv, _ in reach_census.SOURCES if label.startswith("spine ")]
    assert spines
    for argv in spines:
        assert argv[argv.index("--trace") + 1] == "0"


CHILD = """
import threading
from repro.bitmap import kernels
import numpy as np
kernels.get_bit(np.zeros(1, dtype=np.uint64), 0)
t = threading.Thread(target=kernels.set_bit, args=(np.zeros(1, dtype=np.uint64), 0))
t.start(); t.join()
import subprocess, sys
subprocess.run([sys.executable, "-c",
    "import numpy as np; from repro.bitmap import kernels;"
    " kernels.popcount_words(np.zeros(1, dtype=np.uint64))"], check=True)
"""


@pytest.fixture(scope="module")
def probe_reach(tmp_path_factory):
    records = tmp_path_factory.mktemp("records")
    site = records / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        reach_census.SITECUSTOMIZE.format(
            env=reach_census.RECORDS_ENV, package=os.path.realpath(PACKAGE)
        )
    )
    env = dict(os.environ)
    env[reach_census.RECORDS_ENV] = str(records)
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(REPO / "src")])
    subprocess.run([sys.executable, "-c", CHILD], env=env, check=True, timeout=120)
    return reach_census.load_reached(str(records))


@pytest.mark.parametrize(
    "function",
    [
        "repro.bitmap.kernels.get_bit",  # main thread
        "repro.bitmap.kernels.set_bit",  # worker thread
        "repro.bitmap.kernels.popcount_words",  # child process
    ],
)
def test_probe_records_a_call(probe_reach, function):
    d = BY_NAME[function]
    assert (d.rel, d.line) in probe_reach


def test_probe_ignores_functions_never_called(probe_reach):
    d = BY_NAME["repro.bitmap.kernels.clear_bit"]
    assert (d.rel, d.line) not in probe_reach
