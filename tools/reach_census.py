#!/usr/bin/env python3
"""Reach census: every function in ``src/repro`` is reached, or listed with a reason.

Runs the repository's workloads and oracles under a stdlib profiler and
lists every ``def`` in ``src/repro`` that none of them called.  The
coverage sources are the benchmark spine's four workloads (untraced, so
the spine tracer's own probes do not count as reach), the sqlite
differential corpus, the chaos and crash-recovery suites, the two
state-machine models of the paper's core, and the paper-figure
benchmarks in quick mode.  A function no source reaches must be deleted
or named in :data:`ALLOWLIST` with the paper figure, oracle or ROADMAP
item that needs it::

    python3 tools/reach_census.py

Exit status: 0 when every unreached function is allowlisted, 1 when one
is not.  A coverage source that fails (a paper figure's wall-clock
assertion can trip under the profiler) is reported but does not decide
the verdict: whatever it did not reach shows up as unreached.

Tracing: a generated ``sitecustomize`` on ``PYTHONPATH`` installs
``sys.setprofile`` and ``threading.setprofile`` in every Python process
the sources start, spine children and crash-test victims included.  A
function counts as reached when a frame of its code object is entered;
a code object's first line is its first decorator's line, which is how
the ``ast`` enumeration keys decorated functions too.  Each process
appends first sightings to its own file as they happen, so a process
killed mid-test still leaves its reach behind.
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import glob
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")
RECORDS_ENV = "REACH_CENSUS_RECORDS"

_PARALLEL = "ROADMAP item 5: the parallel stack waits for its trial on the spine's parallelism axis"
_FRONT_END = "ROADMAP item 7: front ends and their knob plumbing fold into one statement pipeline"
_SAFETY = "safety code: runs only when a write, a WAL frame or an injected fault goes wrong"
_SPINE_TRACE = "read by the spine's --trace 1 probes, which the census runs untraced"
_EXPLAIN = "EXPLAIN rendering (no spine statement explains); ROADMAP items 8 and 9 build on it"
_DATA_MODEL = "Python data model (debug repr, len, iteration, hashability)"
_ABSTRACT = "abstract interface method, overridden by every subclass"
_HANDLE = "index-handle API shared by single and partitioned indexes (Figs. 6, 9, Table 3)"
_BITMAP_MODEL = "ROADMAP item 1: the ShardedBitmap state machine drives these against a list of bools"
_BASELINES = "the paper's comparison baselines (§6, Figs. 8-11); their unit tests read it"

#: ``{qualified name, name glob or module glob: reason}``.  A qualified
#: name (``repro.pkg.module.Class.method``) covers that function and
#: everything nested in it; a glob over qualified names
#: (``repro.*.__repr__``) covers every function it matches; a glob
#: relative to ``src/repro`` ending in ``.py`` covers whole modules.
ALLOWLIST: Dict[str, str] = {
    "engine/parallel*.py": _PARALLEL,
    "bitmap/parallel.py": _PARALLEL,
    "repro.engine.operators._morsel_affinity_keys": _PARALLEL,
    "repro.plan.cost.CostModel.dml_parallel_payoff": _PARALLEL,
    "repro.sql.session.SQLSession.parallelism": _PARALLEL,
    "repro.sql.session.SQLSession.context": _PARALLEL,
    "repro.bench.harness.time_*serial_vs_parallel": (
        "ROADMAP item 5: timing of benchmarks/test_{parallel,dml}_speedup.py, the trial's evidence"
    ),
    "repro.bitmap.sharded.ShardedBitmap.from_bool_array": (
        "ROADMAP item 5: benchmarks/test_dml_speedup.py builds its bitmaps with it"
    ),
    "server/*.py": _FRONT_END,
    "sql/async_session.py": _FRONT_END,
    "repro.sql.parser._Parser._parse_set": _FRONT_END,
    "repro.sql.binder.UnknownColumnError.__str__": _FRONT_END,
    "repro.sql.session.SQLSession._run_set": _FRONT_END,
    "repro.sql.session.SQLSession.data_dir": _FRONT_END,
    "repro.sql.session.SQLSession.*wal_sync": _FRONT_END,
    "repro.sql.session.SQLSession.*checkpoint_interval": _FRONT_END,
    "repro.sql.session.SQLSession.checkpoint": _FRONT_END,
    "repro.storage.wal.DurabilityManager.*wal_sync": _FRONT_END,
    "repro.storage.wal.DurabilityManager.*checkpoint_interval": _FRONT_END,
    "repro.storage.wal.DurabilityManager.log_set": _FRONT_END,
    "repro.storage.recovery._find_frame_after": _SAFETY,
    "repro.storage.wal.DurabilityManager.rollback_record": _SAFETY,
    "repro.storage.wal.WriteAheadLog.truncate_to": _SAFETY,
    "repro.sql.session.SQLSession._rollback_logged": _SAFETY,
    "repro.testing.faults.FaultInjector.*": _SAFETY,
    "repro.testing.differential.UnsupportedSQL.__init__": (
        "the differential oracle's failure report: runs only when the corpus diverges"
    ),
    "repro.testing.differential.DifferentialReport.summary": (
        "the differential oracle's failure report: runs only when the corpus diverges"
    ),
    "repro.bitmap.sharded.ShardedBitmap.from_positions": _SPINE_TRACE,
    "repro.bitmap.sharded.ShardedBitmap.utilization": _SPINE_TRACE,
    "repro.bitmap.sharded.ShardedBitmap.overhead_fraction": _SPINE_TRACE,
    "repro.engine.batch.Relation.__contains__": _SPINE_TRACE,
    "repro.engine.batch.Relation.drop": _SPINE_TRACE,
    "repro.engine.operators.*.children": _SPINE_TRACE,
    "repro.storage.wal.WriteAheadLog.offset": _SPINE_TRACE,
    "repro.storage.wal.DurabilityManager.checkpoints_written": _SPINE_TRACE,
    "repro.*.label": _EXPLAIN,
    "repro.plan.*.describe": _EXPLAIN,
    "repro.engine.operators.Operator.explain": _EXPLAIN,
    "repro.plan.executor.explain_plan": _EXPLAIN,
    "repro.plan.selection.PhysicalOperatorAssignment.get": _EXPLAIN,
    "repro.plan.selection.PhysicalOperatorAssignment.__len__": _EXPLAIN,
    "repro.*.__repr__": _DATA_MODEL,
    "repro.*.__len__": _DATA_MODEL,
    "repro.*.__iter__": _DATA_MODEL,
    "repro.engine.expressions.Expression.__hash__": _DATA_MODEL,
    "repro.core.constraints.Constraint.initial_patches": _ABSTRACT,
    "repro.engine.expressions.Expression.evaluate": _ABSTRACT,
    "repro.engine.operators.Operator.execute": _ABSTRACT,
    "repro.plan.selection.PhysicalOperatorSelection._apply_selection": _ABSTRACT,
    "repro.core.constraints.NearlySortedColumn.initial_patches": (
        "§5.5's Constraint interface; the index builds NSC through initial_patches_with_state"
    ),
    "repro.core.manager.*.exception_rate": _HANDLE,
    "repro.core.manager.*.condense": _HANDLE,
    "repro.core.manager.PartitionedPatchIndex.memory_bytes": _HANDLE,
    "repro.core.manager.PartitionedPatchIndex.detach": _HANDLE,
    "repro.core.manager._SingleIndexHandle.index": _HANDLE,
    "repro.core.patchindex.PatchIndex.exception_rate": _HANDLE,
    "repro.core.patchindex.PatchIndex.condense": _HANDLE,
    "repro.bitmap.plain.PlainBitmap": (
        "Table 2's unsharded baseline; ROADMAP item 10 reuses it as the NULL validity bitmap"
    ),
    "repro.bitmap.kernels.clear_bit": _BITMAP_MODEL,
    "repro.bitmap.sharded.ShardedBitmap.unset": _BITMAP_MODEL,
    "repro.bitmap.sharded.ShardedBitmap.append": _BITMAP_MODEL,
    "repro.bitmap.sharded.ShardedBitmap.num_shards": _BITMAP_MODEL,
    "repro.materialization.*.is_stale": _BASELINES,
    "repro.materialization.joinindex.JoinIndex.partners": _BASELINES,
    "repro.materialization.joinindex.JoinIndex.verify": _BASELINES,
    "repro.plan.joinorder.enumerate_orders": "the exhaustive reference the DP is tested against",
    "repro.plan.stats.analyze_table": (
        "the DP's distinct counts in benchmarks/test_join_order_search.py, which keeps the DP"
    ),
    "repro.storage.partition.PartitionedTable.rowids": (
        "Table.rowids parity: tests/sql/test_dml_partitioned.py addresses rows through it"
    ),
}


def _spine(workload: str) -> List[str]:
    return [
        sys.executable, "benchmarks/spine/spine_run.py", "--workload", workload,
        "--trace", "0", "--scale", "0.05", "--rounds", "2",
    ]


def _pytest(*patterns: str) -> List[str]:
    files = sorted(f for p in patterns for f in glob.glob(os.path.join(REPO, p)))
    return [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *files]


#: ``(label, argv, extra environment)``, each run from the repo root
SOURCES: List[Tuple[str, List[str], Dict[str, str]]] = [
    *[(f"spine {w}", _spine(w), {}) for w in ("pi_query", "plain_query", "pi_update", "tcp_mixed")],
    (
        "oracles",
        _pytest(
            "tests/regression/test_differential_corpus.py",
            "tests/integration/test_fault_injection.py",
            "tests/integration/test_crash_recovery.py",
            "tests/sql/test_patch_flow_model.py",
            "tests/core/test_nuc_maintenance_model.py",
        ),
        {},
    ),
    (
        "paper figures",
        _pytest("benchmarks/test_fig*.py", "benchmarks/test_tab*.py", "benchmarks/test_ablations.py"),
        {"BENCH_QUICK": "1"},
    ),
]

SITECUSTOMIZE = '''\
"""Reach-census probe (generated by tools/reach_census.py)."""
import os as _os
import sys as _sys
import threading as _threading

_OUT = _os.environ.get({env!r})
if _OUT:
    _PACKAGE = {package!r} + _os.sep
    _seen = set()
    _fh = []

    def _reach_census_profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in _seen:
            return
        _seen.add(code)
        path = _os.path.realpath(code.co_filename)
        if path.startswith(_PACKAGE):
            if not _fh:
                name = _os.path.join(_OUT, "reach-%d.txt" % _os.getpid())
                _fh.append(open(name, "a", buffering=1))
            _fh[0].write("%s:%d\\n" % (path, code.co_firstlineno))

    _sys.setprofile(_reach_census_profile)
    _threading.setprofile(_reach_census_profile)
'''


@dataclasses.dataclass
class Def:
    """One ``def`` in the package, keyed by the line its code object reports."""

    rel: str  # path relative to src/repro
    qualname: str
    line: int  # first decorator's line for decorated functions
    end: int
    parent: Optional["Def"]

    @property
    def name(self) -> str:
        module = self.rel[:-3].replace(os.sep, ".")
        if module.endswith("__init__"):
            module = module[: -len(".__init__")]
        return f"repro.{module}.{self.qualname}" if module else f"repro.{self.qualname}"

    @property
    def lines(self) -> int:
        return self.end - self.line + 1


def enumerate_defs() -> List[Def]:
    """Every function and method under ``src/repro``, nested ones included."""
    out: List[Def] = []

    def visit(node: ast.AST, rel: str, prefix: str, parent: Optional[Def]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                entry = Def(rel, prefix + child.name, line, child.end_lineno, parent)
                out.append(entry)
                visit(child, rel, entry.qualname + ".", entry)
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, prefix + child.name + ".", parent)
            else:
                visit(child, rel, prefix, parent)

    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        visit(tree, os.path.relpath(path, PACKAGE), "", None)
    return out


def run_sources(records: str) -> None:
    """Run every coverage source under the probe."""
    site = os.path.join(records, "site")
    os.makedirs(site, exist_ok=True)
    with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE.format(env=RECORDS_ENV, package=os.path.realpath(PACKAGE)))
    for label, argv, extra in SOURCES:
        env = {k: v for k, v in os.environ.items() if not k.startswith("BENCH_")}
        env.update(extra)
        env[RECORDS_ENV] = records
        env["PYTHONPATH"] = os.pathsep.join([site, SRC, env.get("PYTHONPATH", "")]).rstrip(
            os.pathsep
        )
        print(f"# running {label}", flush=True)
        done = subprocess.run(argv, cwd=REPO, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            tail = "\n".join((done.stdout + done.stderr).splitlines()[-15:])
            print(f"# {label} exited {done.returncode}:\n{tail}", flush=True)


def load_reached(records: str) -> Set[Tuple[str, int]]:
    reached: Set[Tuple[str, int]] = set()
    for name in glob.glob(os.path.join(records, "reach-*.txt")):
        with open(name) as fh:
            for row in fh:
                path, _, line = row.strip().rpartition(":")
                if path:
                    reached.add((os.path.relpath(path, os.path.realpath(PACKAGE)), int(line)))
    return reached


def covers(key: str, entry: Def) -> bool:
    """Whether an allowlist key names ``entry`` (module glob or qualified name)."""
    if key.endswith(".py"):
        return fnmatch.fnmatchcase(entry.rel, key)
    return fnmatch.fnmatchcase(entry.name, key) or entry.name.startswith(key + ".")


def census(records: str) -> int:
    defs = enumerate_defs()
    reached = load_reached(records)
    if not reached:
        print("no reach records: did the sources run?")
        return 1
    unreached = [d for d in defs if (d.rel, d.line) not in reached]
    missing = {id(d) for d in unreached}
    # a nested function of an unreached function is part of that report
    outermost = [
        d for d in unreached if d.parent is None or id(d.parent) not in missing
    ]
    listed: Dict[str, List[Def]] = {key: [] for key in ALLOWLIST}
    unlisted: List[Def] = []
    for d in outermost:
        key = next((k for k in ALLOWLIST if covers(k, d)), None)
        if key is None:
            unlisted.append(d)
        else:
            listed[key].append(d)
    print(
        f"# {len(defs)} functions, {len(defs) - len(unreached)} reached, "
        f"{len(outermost) - len(unlisted)} unreached and allowlisted, "
        f"{len(unlisted)} unreached and unlisted"
    )
    for key, entries in listed.items():
        if entries:
            size = sum(d.lines for d in entries)
            print(f"allowed {key} ({len(entries)} functions, {size} lines): {ALLOWLIST[key]}")
        else:
            print(f"stale allowlist entry, nothing unreached under it: {key}")
    for d in unlisted:
        print(f"UNREACHED src/repro/{d.rel}:{d.line} {d.name} ({d.lines} lines)")
    return 1 if unlisted else 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-census-") as records:
        run_sources(records)
        return census(records)


if __name__ == "__main__":
    sys.exit(main())
