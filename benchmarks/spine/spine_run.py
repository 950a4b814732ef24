"""Benchmark spine: four workloads, end-to-end metrics, a traced run.

One workload per process (so ``peak_rss_mb`` is that workload's)::

    python3 benchmarks/spine/spine_run.py --workload pi_query --seed 11 \\
        --seconds 12 --trace 0

prints each metric by name and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  ``--workload all`` runs every workload in a child
process and prints them side by side; ``--aa`` runs two sets of seeds
back to back and checks them against the bounds in ``BENCHMARK.json``.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
if not os.path.isdir(os.path.join(REPO, "src", "repro")):
    sys.exit(f"{REPO} holds no src/repro: the spine measures the checkout it sits in")
sys.path.insert(0, os.path.join(REPO, "src"))

import numpy as np  # noqa: E402

from spine_trace import (  # noqa: E402
    OPERATORS,
    Tracer,
    bitmap_probe,
    codec_probe,
    storage_probe,
    wal_probe,
)
from spine_workloads import (  # noqa: E402
    READ_FAMILIES,
    WAL_SYNC,
    WORKLOADS,
    RoundResult,
    Sample,
    TcpWorkload,
    check_statement,
    make_workload,
)

from repro.sql import SQLSession  # noqa: E402

WORK_DIR = os.path.join(HERE, "_work")
OUT_DIR = os.path.join(HERE, "_out")
#: cold starts per run (``setup_s`` is their median) and warm-up rounds
#: discarded after the last one's own cold round
SETUPS = 3
WARMUP_ROUNDS = 2
MIN_ROUNDS = 5


def load_spec() -> Dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def summary(samples: List[float], scale: float = 1.0, pct: Optional[float] = None) -> Dict:
    """``value`` (median, or the ``pct`` percentile), n, q1 and q3 of ``samples``."""
    if not samples:
        return {"value": 0.0, "n": 0}
    data = sorted(s * scale for s in samples)
    q1, _, q3 = statistics.quantiles(data, n=4) if len(data) > 1 else (data[0],) * 3
    if pct is None:
        value = statistics.median(data)
    else:
        value = data[min(len(data) - 1, int(pct * len(data)))]
    return {"value": value, "n": len(data), "q1": q1, "q3": q3}


def count(value: float) -> Dict:
    return {"value": value, "n": 1}


def per_round(rounds: List[RoundResult], family: str) -> List[float]:
    """Per round, the summed latency of the ``family`` statements."""
    return [sum(s.seconds for s in r.samples if s.family == family) for r in rounds]


def end_to_end(setups: List[float], rounds: List[RoundResult]) -> Dict[str, Dict]:
    samples: List[Sample] = [s for r in rounds for s in r.samples]
    reads = [s.seconds for s in samples if s.is_read]
    out = {
        "setup_s": summary(setups),
        "round_ms": summary([r.seconds for r in rounds], 1e3),
    }
    for family in READ_FAMILIES:
        out[f"{family}_ms"] = summary(per_round(rounds, family), 1e3)
    out["insert_ms"] = summary([s.seconds for s in samples if s.family == "insert"], 1e3)
    out["read_p50_ms"] = summary(reads, 1e3)
    out["read_p95_ms"] = summary(reads, 1e3, pct=0.95)
    out["peak_rss_mb"] = count(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


# ----------------------------------------------------------------------
# per-layer metrics from the traced run
# ----------------------------------------------------------------------
def index_numbers(workload) -> Dict[str, Dict]:
    handles = workload.indexes()
    rows = sum(h.num_rows for h in handles)
    patches = sum(h.num_patches for h in handles)
    return {
        "core.patches_after": count(patches),
        "core.exception_rate_after": count(patches / rows if rows else 0.0),
        "core.index_bytes_per_row": count(
            sum(h.memory_bytes() for h in handles) / rows if rows else 0.0
        ),
    }


def span_metrics(tracer: Tracer) -> Dict[str, Dict]:
    def ns(name: str) -> List[float]:
        return [s.ns for s in tracer.named(name)]

    out = {
        "sql.parse_us": summary(ns("sql.parse"), 1e-3),
        "sql.bind_us": summary(ns("sql.bind"), 1e-3),
        "sql.prepare_us": summary(ns("sql.prepare"), 1e-3),
        "sql.run_prepared_us": summary(ns("sql.run_prepared"), 1e-3),
        "plan.optimize_us": summary(ns("plan.optimize"), 1e-3),
        "plan.lower_us": summary(ns("plan.lower"), 1e-3),
        "engine.exec_ms": summary(ns("engine.exec"), 1e-6),
        "core.apply_delete_ms": summary(
            ns("core.apply.delete.nuc") + ns("core.apply.delete.nsc"), 1e-6
        ),
    }
    for event in ("insert", "modify"):
        for kind in ("nuc", "nsc"):
            out[f"core.apply_{event}_{kind}_ms"] = summary(ns(f"core.apply.{event}.{kind}"), 1e-6)

    stmts = tracer.named("stmt")
    rounds = sorted({s.round for s in stmts})

    def by_round(spans, value: Callable) -> List[float]:
        return [sum(value(s) for s in spans if s.round == r) for r in rounds]

    for cls in OPERATORS:
        out[f"engine.op.{cls}.self_ms"] = summary(
            by_round(tracer.named(f"op.{cls}"), lambda s: s.self_ns), 1e-6
        )
    selects = [s for s in stmts if "rows" in s.attrs]
    writes = [s for s in stmts if "rows" not in s.attrs]
    out["stmt.check_read_ms"] = summary(by_round(selects, lambda s: s.ns), 1e-6)
    out["stmt.write_p90_ms"] = summary([s.ns for s in writes], 1e-6, pct=0.9)
    for family in ("modify", "delete", "bulk_insert", "bulk_delete"):
        spans = [s for s in writes if s.attrs["family"] == family]
        out[f"stmt.{family}_ms"] = summary([s.ns for s in spans], 1e-6)
    total = sum(s.ns for s in selects)
    unexplained = sum(s.self_ns for s in selects) + sum(
        s.self_ns for s in tracer.named("engine.exec")
    )
    out["stmt.unexplained_pct"] = count(100.0 * unexplained / total if total else 0.0)
    out["plan.pi_rewritten_share"] = count(
        sum(s.attrs["patch_scans"] > 0 for s in selects) / len(selects) if selects else 0.0
    )
    patch = tracer.named("op.PatchSelect")
    through = sum(s.attrs["rows"] for s in patch)
    out["engine.patch_rows_share"] = count(
        sum(s.attrs["rows"] for s in patch if s.attrs["mode"] == "use_patches") / through
        if through
        else 0.0
    )
    result_rows = sum(s.attrs["rows"] for s in selects)
    out["engine.rows_examined_per_result"] = count(
        sum(s.attrs["rows"] for s in tracer.named("op.Scan")) / result_rows if result_rows else 0.0
    )
    return out


def speedup_probe(own: SQLSession, plain: SQLSession, stmts, repeats: int = 5) -> Dict[str, float]:
    """Per read family: time without any index ÷ time through ``own``."""
    sessions = (own, plain)
    out = {}
    for family in ("distinct", "sort", "join"):
        seconds = [0.0, 0.0]  # through own, through plain
        for stmt in (s for s in stmts if s.family == family):
            timings: List[List[float]] = [[], []]
            for i in range(repeats):
                for which in (i % 2, 1 - i % 2):  # alternate who goes first
                    t0 = time.perf_counter()
                    sessions[which].execute(stmt.sql)
                    timings[which].append(time.perf_counter() - t0)
            for which in (0, 1):
                seconds[which] += statistics.median(timings[which])
        out[f"plan.pi_speedup_{family}_x"] = seconds[1] / seconds[0] if seconds[0] else 0.0
    return out


async def paired_probe(workload: TcpWorkload, stmts, sync: SQLSession):
    """The same reads over TCP, through the async session, and blocking."""
    client, session = workload.clients[0], workload.server.session
    tcp, admitted, blocking, replies = [], [], [], []
    for stmt in stmts:
        t0 = time.perf_counter_ns()
        replies.append(await client.execute(stmt.sql))
        t1 = time.perf_counter_ns()
        await session.execute(stmt.sql)
        t2 = time.perf_counter_ns()
        sync.execute(stmt.sql)
        t3 = time.perf_counter_ns()
        tcp.append(t1 - t0)
        admitted.append(t2 - t1)
        blocking.append(t3 - t2)
    med = statistics.median
    # paired differences: neither layer can be called on its own
    return {
        "server.wire_us": (med(tcp) - med(admitted)) / 1e3,
        "sql.admit_us": (med(admitted) - med(blocking)) / 1e3,
    }, replies


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f)) for root, _, files in os.walk(path) for f in files
    )


def tcp_probes(workload: TcpWorkload, tracer: Tracer, session: SQLSession):
    """Server, WAL and recovery numbers; then the stream replayed in process."""
    script = workload.last_scripts[0]
    reads = [s for s in script if s.is_read][:150]
    out, replies = workload.loop.run_until_complete(paired_probe(workload, reads, session))
    out.update(codec_probe(replies))
    workload.stop_server()
    recovery_s, errors = workload.recover()
    user_bytes = sum(t.column(c).nbytes for t in workload.catalog for c in t.schema.names)
    out["storage.recovery_ms"] = recovery_s * 1e3
    out["storage.checkpoints"] = workload.durability.checkpoints_written
    out["storage.disk_bytes_per_user_byte"] = dir_bytes(workload.data_dir) / user_bytes
    out["server.error_frames"] = workload.error_frames
    writes = [s.sql for s in script if not s.is_read]
    out.update(wal_probe(workload.catalog, writes, workload.work_dir, WAL_SYNC))
    # the statement pipeline cannot be opened up across the socket:
    # replay further rounds of the same stream in process, traced
    for extra in range(3):
        tracer.round = -1 - extra
        with tracer.wrap_apply_update():
            for client in range(workload.clients_n):
                for stmt in workload.client_script(client):
                    why = check_statement(stmt, tracer.execute(session, stmt.sql, stmt.family))
                    if why is not None:
                        errors.append(f"tcp_mixed replay: {why}")
    return out, errors


def layer_probes(workload, tracer: Tracer, seed: int, scale: float):
    """Everything the traced run measures besides the rounds themselves."""
    out: Dict[str, float] = {}
    errors: List[str] = []
    if isinstance(workload, TcpWorkload):
        session, script = SQLSession(workload.catalog, workload.manager), workload.last_scripts[0]
        out, errors = tcp_probes(workload, tracer, session)
    else:
        session, script = workload.session, workload.last_script
    out.update(speedup_probe(session, workload.plain_session(), script))
    out.update(storage_probe(*workload.storage_rows(), seed))
    if workload.use_index:
        out.update(bitmap_probe(seed, max(50_000, int(1_000_000 * scale))))
    return {name: count(value) for name, value in out.items()}, errors


# ----------------------------------------------------------------------
# one workload, one process
# ----------------------------------------------------------------------
def measure_rounds(workload, seconds: float, fixed: Optional[int], tracer: Optional[Tracer]):
    """Warm up, then run rounds for ``seconds`` (or exactly ``fixed``).

    Round 0 was the cold round of the set-up.

    With a tracer, odd rounds run traced and even rounds untraced, so
    both see the same drift and their difference is the tracing cost.
    """
    plain: List[RoundResult] = []
    traced: List[RoundResult] = []
    warmup = [workload.run_round(1 + r) for r in range(WARMUP_ROUNDS if fixed is None else 0)]
    round_no = 1 + len(warmup)
    start = time.perf_counter()

    def finished() -> bool:
        done = len(plain) + len(traced)
        if fixed is not None:
            return done >= fixed
        return done >= MIN_ROUNDS and time.perf_counter() - start >= seconds

    while not finished():
        gc.collect()
        if tracer is not None and round_no % 2:
            tracer.round = round_no
            with tracer.wrap_apply_update():
                traced.append(
                    workload.run_round(
                        round_no,
                        lambda stmt: tracer.execute(workload.session, stmt.sql, stmt.family),
                    )
                )
        else:
            plain.append(workload.run_round(round_no))
        round_no += 1
    return warmup, plain, traced


def run_workload(args) -> Dict:
    spec = load_spec()
    trace = bool(args.trace)
    os.makedirs(WORK_DIR, exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.scale, WORK_DIR)
    try:
        doc = measure(workload, args, spec["per_layer" if trace else "end_to_end"])
    finally:
        workload.teardown()
        workload.close()
    doc.update(workload=args.workload, trace=int(trace), seed=args.seed, profile=profile())
    return doc


def measure(workload, args, declared: List[Dict]) -> Dict:
    """Set up, run the rounds, check, and name the metrics as ``declared``."""
    # set-up is a cold start: build everything, then answer one round.
    # The round is what makes the number steady (a 6 ms server start is
    # all noise) and what catches work a change moves into first use.
    setups: List[float] = []
    cold: List[RoundResult] = []
    for _ in range(SETUPS):
        workload.teardown()
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        built = time.perf_counter() - t0
        cold.append(workload.run_round(0))
        setups.append(built + cold[-1].seconds)

    tracer = Tracer() if args.trace else None
    warmup, plain, traced = measure_rounds(workload, args.seconds, args.rounds, tracer)
    errors = [e for r in cold + warmup + plain + traced for e in r.errors]
    attempted = sum(len(r.samples) for r in cold + warmup + plain + traced)

    probes: Dict[str, Dict] = {}
    if tracer is not None:
        probes, probe_errors = layer_probes(workload, tracer, args.seed, args.scale)
        errors += probe_errors
    elif isinstance(workload, TcpWorkload):
        workload.stop_server()
        errors += workload.recover()[1]
    errors += workload.final_errors()

    if tracer is None:
        metrics = end_to_end(setups, plain)
    else:
        # a layer this workload never enters stays at 0
        metrics = {m["name"]: count(0.0) for m in declared}
        metrics.update(probes)
        metrics.update(span_metrics(tracer))
        metrics.update(index_numbers(workload))
        base, with_spans = (statistics.median(r.seconds for r in rs) for rs in (plain, traced))
        metrics["stmt.traced_overhead_pct"] = count(100.0 * (with_spans - base) / base)
        for kind in ("nuc", "nsc"):
            metrics[f"core.create_{kind}_ms"] = summary(workload.create_seconds[kind], 1e3)
        metrics["stmt.error_rate"] = count(len(errors) / attempted)

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        odd = sorted(set(metrics) ^ set(units))
        raise SystemExit(f"metric names differ from BENCHMARK.json: {odd}")
    for name, unit in units.items():
        metrics[name]["unit"] = unit
    return {
        "rounds": len(plain) + len(traced),
        "attempted": attempted,
        "errors": errors,
        "metrics": metrics,
        "spans": [s.as_dict() for s in tracer.spans] if tracer is not None else [],
    }


def profile() -> Dict:
    try:
        sha = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
    }


def print_metrics(doc: Dict) -> None:
    print(f"# {doc['workload']} seed={doc['seed']} trace={doc['trace']} rounds={doc['rounds']}")
    print(f"{'metric':<36}{'unit':>9}{'n':>7}{'value':>14}{'q1':>14}{'q3':>14}")
    for name, m in doc["metrics"].items():
        quartiles = f"{m['q1']:>14.4f}{m['q3']:>14.4f}" if "q1" in m else ""
        print(f"{name:<36}{m['unit']:>9}{m['n']:>7}{m['value']:>14.4f}{quartiles}")
    for error in doc["errors"][:20]:
        print(f"FAILED {error}")


def contract_line(doc: Dict) -> str:
    return json.dumps(
        {
            "correct": not doc["errors"],
            "attempted": doc["attempted"],
            "failed": len(doc["errors"]),
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]} for name, m in doc["metrics"].items()
            },
        }
    )


# ----------------------------------------------------------------------
# every workload, one child process each
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, trace: int, args) -> Dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{workload}_seed{seed}_trace{trace}.json")
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--scale", str(args.scale),
        "--out", out,
    ]
    if args.rounds is not None:
        cmd += ["--rounds", str(args.rounds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if not os.path.exists(out):
        raise SystemExit(f"{workload} produced no result:\n{done.stdout}\n{done.stderr}")
    with open(out) as fh:
        return json.load(fh)


def run_all(args) -> int:
    docs = []
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            doc = run_child(workload, args.seed, trace, args)
            doc.pop("spans")
            print_metrics(doc)
            docs.append(doc)
    by = {(d["workload"], d["trace"]): d["metrics"] for d in docs}
    if args.trace:
        print("# paper ratios (plain_query family ms / pi_query family ms, untraced runs)")
        for family in ("distinct", "sort", "join"):
            plain, pi = (by[(w, 0)][f"{family}_ms"]["value"] for w in ("plain_query", "pi_query"))
            print(f"{family:<10}{plain:>12.3f} ms /{pi:>12.3f} ms = {plain / pi:.3f}x")
    out = args.out or os.path.join(OUT_DIR, f"spine_seed{args.seed}.json")
    with open(out, "w") as fh:
        json.dump({"profile": profile(), "seed": args.seed, "runs": docs}, fh, indent=1)
    print(f"# wrote {out}")
    return 1 if any(d["errors"] for d in docs) else 0


def run_aa(args) -> int:
    """Two sets of ``--runs`` seeds back to back, judged as the driver judges.

    Per end-to-end metric and workload: the spread of set A (distance
    between its quartiles over its median) and how much worse set B's
    median is than set A's must both stay within the metric's bound.
    """
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: Dict = {}
    failed = 0
    for label in "AB":
        for workload in WORKLOADS:
            for i in range(args.runs):
                doc = run_child(workload, args.seed + i, 0, args)
                failed += len(doc["errors"])
                for name, m in doc["metrics"].items():
                    sets = values.setdefault((workload, name), {"A": [], "B": []})
                    sets[label].append(m["value"])
    rows, breaches = [], 0
    print(
        f"{'workload':<13}{'metric':<14}{'median A':>12}{'median B':>12}"
        f"{'B worse':>9}{'spread A':>10}{'bound':>7}"
    )
    for (workload, name), sets in values.items():
        med_a, med_b = statistics.median(sets["A"]), statistics.median(sets["B"])
        q1, _, q3 = statistics.quantiles(sets["A"], n=4)
        worse = (med_b - med_a) / med_a
        spread = (q3 - q1) / med_a
        breach = worse > bounds[name] or (name != "setup_s" and spread > bounds[name])
        breaches += breach
        rows.append(
            {
                "workload": workload, "metric": name, "median_a": med_a, "median_b": med_b,
                "b_worse_by": worse, "spread_a": spread, "bound": bounds[name], "breach": breach,
            }
        )
        flag = "  BREACH" if breach else ""
        print(
            f"{workload:<13}{name:<14}{med_a:>12.4f}{med_b:>12.4f}"
            f"{worse:>9.3f}{spread:>10.3f}{bounds[name]:>7.2f}{flag}"
        )
    out = args.out or os.path.join(OUT_DIR, "aa_check.json")
    with open(out, "w") as fh:
        json.dump(
            {
                "profile": profile(), "first_seed": args.seed, "runs_per_set": args.runs,
                "seconds": args.seconds, "failed_statements": failed, "rows": rows,
            },
            fh, indent=1,
        )
    print(f"# wrote {out}; {breaches} breach(es), {failed} failed statement(s)")
    return 1 if breaches or failed else 0


def parse_args(argv=None) -> argparse.Namespace:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0, help="table sizes; 1 is the benchmark")
    parser.add_argument("--rounds", type=int, help="measure this many rounds instead of --seconds")
    parser.add_argument("--out", help="where to write the JSON document")
    parser.add_argument("--aa", action="store_true", help="two sets of runs against the bounds")
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per set under --aa")
    args = parser.parse_args(argv)
    if args.trace and args.rounds is not None and args.rounds < 2:
        parser.error("--trace needs --rounds >= 2: one traced round and one untraced")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.aa:
        return run_aa(args)
    if args.workload == "all":
        return run_all(args)
    doc = run_workload(args)
    print_metrics(doc)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh)
    print(contract_line(doc))
    return 1 if doc["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
