"""Command-line interface for quick experiments with the IMP reproduction.

The CLI wraps the most common workflows so they can be run without writing
Python code::

    python -m repro demo                      # the paper's running example
    python -m repro compare --rows 5000 ...   # IMP vs FM vs NS on a mixed workload
    python -m repro maintain --query groups   # per-delta maintenance cost, IMP vs FM
    python -m repro serve                     # multi-session snapshot-isolation REPL
    python -m repro serve --demo              # concurrent readers + writer driver
    python -m repro serve --data-dir d/       # durable serving (WAL + checkpoints)
    python -m repro recover d/                # offline recovery + integrity report
    python -m repro info                      # library / subsystem overview

Every command prints a small, self-describing report to stdout and returns a
process exit code of 0 on success.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

from repro import __version__
from repro.core.errors import StorageError
from repro.imp.engine import IMPConfig
from repro.imp.maintenance import FullMaintainer, IncrementalMaintainer
from repro.imp.middleware import FullMaintenanceSystem, IMPSystem, NoSketchSystem
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.storage.recovery import recover_database
from repro.storage.wal import FSYNC_ALWAYS, FSYNC_POLICIES
from repro.workloads.mixed import MixedWorkload, WorkloadRunner
from repro.workloads.queries import q_endtoend, q_groups, q_having, q_joinsel, q_topk
from repro.workloads.synthetic import SyntheticTable, load_join_helper, load_synthetic

QUERY_CHOICES = {
    "groups": lambda: q_groups(threshold=900),
    "having": lambda: q_having(3),
    "endtoend": lambda: q_endtoend(low=800, high=900),
    "joinsel": lambda: q_joinsel(filter_threshold=2000, having_threshold=2000),
    "topk": lambda: q_topk(k=10),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IMP: in-memory incremental maintenance of provenance sketches",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("demo", help="run the paper's running example end to end")

    compare = subparsers.add_parser(
        "compare", help="compare IMP / FM / NS on a synthetic mixed workload"
    )
    compare.add_argument("--rows", type=int, default=5_000, help="table size")
    compare.add_argument("--groups", type=int, default=250, help="number of groups")
    compare.add_argument("--operations", type=int, default=40, help="workload length")
    compare.add_argument("--ratio", default="1U3Q", help="update-query ratio, e.g. 1U5Q")
    compare.add_argument("--delta", type=int, default=20, help="tuples per update batch")
    compare.add_argument("--fragments", type=int, default=96, help="partition fragments")

    maintain = subparsers.add_parser(
        "maintain", help="measure per-delta maintenance cost (IMP vs full maintenance)"
    )
    maintain.add_argument(
        "--query", choices=sorted(QUERY_CHOICES), default="groups", help="query template"
    )
    maintain.add_argument("--rows", type=int, default=5_000)
    maintain.add_argument("--groups", type=int, default=250)
    maintain.add_argument("--delta", type=int, default=100)
    maintain.add_argument("--batches", type=int, default=5)
    maintain.add_argument("--fragments", type=int, default=96)
    maintain.add_argument("--no-bloom", action="store_true", help="disable bloom filters")
    maintain.add_argument(
        "--no-pushdown", action="store_true", help="disable delta selection push-down"
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve concurrent snapshot-isolated sessions (REPL or --demo driver)",
    )
    serve.add_argument("--rows", type=int, default=2_000, help="synthetic table size")
    serve.add_argument("--groups", type=int, default=100, help="number of groups")
    serve.add_argument(
        "--demo",
        action="store_true",
        help="run the scripted concurrency demo (readers + writer + maintenance)",
    )
    serve.add_argument("--readers", type=int, default=4, help="demo reader threads")
    serve.add_argument("--commits", type=int, default=10, help="demo writer commits")
    serve.add_argument("--delta", type=int, default=25, help="demo tuples per commit")
    serve.add_argument(
        "--data-dir",
        default=None,
        help="serve durably from this directory (recovered when it exists)",
    )
    serve.add_argument(
        "--fsync",
        choices=sorted(FSYNC_POLICIES),
        default=FSYNC_ALWAYS,
        help="WAL fsync policy for --data-dir (durability vs commit latency)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write an automatic checkpoint every N commits (default: manual only)",
    )

    recover = subparsers.add_parser(
        "recover",
        help="recover a data directory offline and print an integrity report",
    )
    recover.add_argument("data_dir", help="the data directory to recover")

    subparsers.add_parser("info", help="print library and subsystem overview")
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def command_demo(_args: argparse.Namespace) -> int:
    from examples import quickstart  # type: ignore[import-not-found]

    quickstart.main()
    return 0


def _run_demo_inline() -> int:
    """Fallback demo used when the examples package is not importable."""
    from repro.sketch.ranges import DatabasePartition, RangePartition
    from repro.sketch.use import instrument_plan

    db = Database("demo")
    db.create_table("sales", ["sid", "brand", "product", "price", "numsold"], primary_key="sid")
    db.insert(
        "sales",
        [
            (1, "Lenovo", "T14s", 349, 1),
            (2, "Lenovo", "T14s", 449, 2),
            (3, "Apple", "Air", 1199, 1),
            (4, "Apple", "Pro", 3875, 1),
            (5, "Dell", "XPS", 1345, 1),
            (6, "HP", "450", 999, 4),
            (7, "HP", "550", 899, 1),
        ],
    )
    sql = (
        "SELECT brand, SUM(price * numsold) AS rev FROM sales "
        "GROUP BY brand HAVING SUM(price * numsold) > 5000"
    )
    partition = DatabasePartition([RangePartition("sales", "price", [1, 601, 1001, 1501, 10000])])
    plan = db.plan(sql)
    maintainer = IncrementalMaintainer(db, plan, partition)
    sketch = maintainer.capture().sketch
    print("initial result:", sorted(db.query(sql).rows()))
    print("sketch fragments:", sorted(sketch.fragment_ids()))
    db.insert("sales", [(8, "HP", "650", 1299, 1)])
    result = maintainer.maintain()
    print("after insert   :", sorted(db.query(instrument_plan(plan, result.sketch)).rows()))
    print("sketch fragments:", sorted(result.sketch.fragment_ids()))
    return 0


def command_compare(args: argparse.Namespace) -> int:
    source = Database("source")
    table = load_synthetic(source, num_rows=args.rows, num_groups=args.groups, seed=11)
    workload = MixedWorkload(
        table,
        query_factory=lambda rng: q_endtoend(low=800, high=900),
        ratio=args.ratio,
        delta_size=args.delta,
        num_operations=args.operations,
        seed=3,
    )
    operations = list(workload.operations())

    print(
        f"workload: {len(operations)} operations, ratio {args.ratio}, "
        f"delta {args.delta}, table {args.rows} rows / {args.groups} groups\n"
    )
    print(f"{'system':<18} {'total (s)':>10} {'queries (s)':>12} {'updates (s)':>12}")
    rows = []
    for kind in ("no-sketch", "full-maintenance", "imp"):
        database = Database(kind)
        load_synthetic(database, num_rows=args.rows, num_groups=args.groups, seed=11)
        if kind == "no-sketch":
            system = NoSketchSystem(database)
        elif kind == "full-maintenance":
            system = FullMaintenanceSystem(database, num_fragments=args.fragments)
        else:
            system = IMPSystem(database, num_fragments=args.fragments)
        report = WorkloadRunner(system).run_operations(operations)
        rows.append((kind, report))
        print(
            f"{kind:<18} {report.total_seconds:>10.3f} {report.query_seconds:>12.3f} "
            f"{report.update_seconds:>12.3f}"
        )
    fastest = min(rows, key=lambda item: item[1].total_seconds)[0]
    print(f"\nfastest system: {fastest}")
    return 0


def command_maintain(args: argparse.Namespace) -> int:
    database = Database("maintain")
    table = load_synthetic(database, num_rows=args.rows, num_groups=args.groups, seed=19)
    sql = QUERY_CHOICES[args.query]()
    if args.query == "joinsel":
        load_join_helper(
            database, num_rows=max(200, args.rows // 5), join_domain=args.groups, seed=20
        )
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, args.fragments)
    config = IMPConfig(
        use_bloom_filters=not args.no_bloom,
        selection_pushdown=not args.no_pushdown,
    )
    incremental = IncrementalMaintainer(database, plan, partition, config)
    capture = incremental.capture()
    full = FullMaintainer(database, plan, partition)
    full.capture()
    print(f"query: {sql}")
    print(f"capture: {capture.seconds * 1000:.2f} ms, sketch fragments: {len(capture.sketch)}\n")
    print(f"{'batch':<6} {'delta':>6} {'IMP (ms)':>10} {'FM (ms)':>10} {'speedup':>8}")
    for batch in range(1, args.batches + 1):
        deletes = table.pick_deletes(args.delta // 2)
        if deletes:
            database.delete_rows("r", deletes)
        database.insert("r", table.make_inserts(args.delta - len(deletes)))
        started = time.perf_counter()
        incremental.maintain()
        imp_ms = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        full.maintain()
        fm_ms = (time.perf_counter() - started) * 1000
        print(
            f"{batch:<6} {args.delta:>6} {imp_ms:>10.2f} {fm_ms:>10.2f} "
            f"{fm_ms / max(imp_ms, 1e-6):>7.1f}x"
        )
    stats = incremental.statistics
    print(
        f"\nIMP statistics: {stats.delta_tuples_fetched} delta tuples fetched, "
        f"{stats.delta_tuples_filtered} filtered by push-down, "
        f"{stats.bloom_filtered_tuples} pruned by bloom filters, "
        f"{stats.backend_round_trips} join sides built"
    )
    return 0


_SERVE_HELP = """\
session REPL commands:
  .open              open a new session pinned at the current version
  .use <id>          switch the current session
  .close [<id>]      close a session (default: the current one)
  .sessions          list open sessions and their pinned versions
  .refresh           re-pin the current session at the latest version
  .commit <n>        commit <n> synthetic rows to table r (a concurrent write)
  .checkpoint        write a durable checkpoint now (durable serving only)
  .version           print the current database version
  .help              this text
  .quit              exit
anything else is run as SQL in the current session (table: r(id, a, b, c))\
"""


def command_serve(args: argparse.Namespace) -> int:
    """Serve concurrent snapshot-isolated sessions over a synthetic table."""
    if args.data_dir is not None:
        database = Database(
            "serve",
            data_dir=args.data_dir,
            fsync=args.fsync,
            checkpoint_interval=args.checkpoint_every,
        )
        report = database.recovery_report
        if report is not None and not report.fresh:
            print("recovered existing data directory:")
            for line in report.lines():
                print("  " + line)
        if database.has_table("r"):
            # Resume serving the recovered table; the synthetic driver picks
            # its row-id counter up from the recovered rows.
            table = SyntheticTable(
                name="r",
                rows=sorted(database.table("r").rows()),
                num_groups=args.groups,
                value_range=2_000,
                seed=23,
            )
        else:
            table = load_synthetic(
                database, num_rows=args.rows, num_groups=args.groups, seed=23
            )
    else:
        database = Database("serve")
        table = load_synthetic(
            database, num_rows=args.rows, num_groups=args.groups, seed=23
        )
    try:
        if args.demo:
            return _serve_demo(database, table, args)
        return _serve_repl(database, table)
    finally:
        database.close()


def _serve_repl(database: Database, table) -> int:
    """A line-oriented REPL: each session reads its pinned snapshot while
    ``.commit`` advances the database underneath -- the canonical way to watch
    snapshot isolation at work from a terminal (also drivable by piped input).
    """
    sessions: dict[int, object] = {}
    current: object | None = None
    interactive = sys.stdin.isatty()
    print(f"repro serve: table r with {len(table)} rows at version {database.version}")
    if database.is_durable:
        print(
            f"durable: {database.data_dir} (fsync policy set at startup; "
            f"last checkpoint version {database.last_checkpoint_version})"
        )
    print("type .help for commands" if interactive else _SERVE_HELP)
    while True:
        if interactive:
            print(f"repro[{getattr(current, 'id', '-')}]> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        try:
            if line == ".quit":
                break
            elif line == ".help":
                print(_SERVE_HELP)
            elif line == ".open":
                current = database.connect()
                sessions[current.id] = current
                print(f"opened session {current.id} pinned at version {current.pinned_version}")
            elif line.startswith(".use "):
                current = sessions[int(line.split()[1])]
                print(f"using session {current.id} (version {current.pinned_version})")
            elif line.split()[0] == ".close":
                parts = line.split()
                victim = sessions[int(parts[1])] if len(parts) > 1 else current
                if victim is None:
                    print("no session to close")
                    continue
                victim.close()
                sessions.pop(victim.id, None)
                if current is victim:
                    current = None
                print(f"closed session {victim.id}")
            elif line == ".sessions":
                for session in sessions.values():
                    marker = "*" if session is current else " "
                    print(f" {marker} session {session.id}: pinned at version {session.pinned_version}")
                print(f"registry: {database.session_registry.summary()}")
            elif line == ".refresh":
                if current is None:
                    print("no open session; .open first")
                    continue
                print(f"session {current.id} now at version {current.refresh()}")
            elif line.split()[0] == ".commit":
                parts = line.split()
                count = int(parts[1]) if len(parts) > 1 else 10
                version = database.insert("r", table.make_inserts(count))
                print(f"committed {count} rows; database now at version {version}")
            elif line == ".checkpoint":
                path = database.checkpoint()
                print(
                    f"checkpoint written at version {database.version}: {path}"
                )
            elif line == ".version":
                print(f"database version {database.version}")
            elif line.startswith("."):
                print(f"unknown command {line.split()[0]!r}; try .help")
            elif current is None:
                print("no open session; .open first (or .help)")
            else:
                result = current.query(line)
                for row in result.to_sorted_list()[:20]:
                    print("  ", row)
                print(f"({len(result)} rows, snapshot version {current.pinned_version})")
        except Exception as exc:  # noqa: BLE001 - REPL surfaces, never dies
            print(f"error: {exc}")
    for session in sessions.values():
        session.close()
    return 0


def _serve_demo(database: Database, table, args: argparse.Namespace) -> int:
    """Scripted concurrency demo: N snapshot readers + a writer + background
    sketch maintenance, ending with a consistency report."""
    import threading

    sql = "SELECT a, SUM(c) AS total FROM r GROUP BY a HAVING SUM(c) > 500"
    system = IMPSystem(database, num_fragments=32)
    system.run_query(sql)  # capture the sketch before the threads start
    system.start_background_maintenance(interval=0.005)

    stop = threading.Event()
    counts = [0] * args.readers
    stable = [True] * args.readers
    errors: list[str] = []

    def reader(slot: int) -> None:
        try:
            with database.connect() as session:
                baseline = session.query(sql).to_sorted_list()
                while not stop.is_set():
                    if session.query(sql).to_sorted_list() != baseline:
                        stable[slot] = False
                    counts[slot] += 1
        except Exception as exc:  # noqa: BLE001 - a dead reader is a failure
            stable[slot] = False
            errors.append(f"reader {slot}: {exc!r}")

    threads = [
        threading.Thread(target=reader, args=(slot,)) for slot in range(args.readers)
    ]
    for thread in threads:
        thread.start()
    for _ in range(args.commits):
        database.insert("r", table.make_inserts(args.delta))
        time.sleep(0.01)
    stop.set()
    for thread in threads:
        thread.join()
    system.stop_background_maintenance(drain=True)

    print(f"writer: {args.commits} commits x {args.delta} rows; database at version {database.version}")
    print(f"readers: {args.readers} sessions, {sum(counts)} snapshot queries total")
    for error in errors:
        print(f"reader error: {error}")
    print(f"snapshot stability: {'OK' if all(stable) else 'VIOLATED'} "
          "(every pinned read identical while the writer committed)")
    print(f"maintenance: {system.scheduler.summary()}")
    print(f"sessions: {database.session_registry.summary()}")
    return 0 if all(stable) else 1


def command_recover(args: argparse.Namespace) -> int:
    """Offline recovery: open a data directory, print an integrity report.

    Performs the same recovery a durable ``serve`` startup would (including
    truncating a torn WAL tail), then reports what was found: checkpoint
    used, WAL records replayed, per-table row counts, and a content
    fingerprint per table.  Exit code 0 when the directory recovers to a
    consistent state, 1 when it cannot.
    """
    import os

    from repro.storage.recovery import state_fingerprint

    if not os.path.isdir(args.data_dir):
        print(f"recovery failed: no such data directory: {args.data_dir}")
        return 1
    try:
        database, report = recover_database(args.data_dir)
    except StorageError as exc:
        print(f"recovery failed: {exc}")
        return 1
    try:
        print("recovery report:")
        for line in report.lines():
            print("  " + line)
        fingerprint = state_fingerprint(database)
        print("content fingerprints:")
        for table, entry in sorted(fingerprint["tables"].items()):
            print(f"  {table}: rows={entry['rows']} sha256={entry['sha256'][:16]}…")
        print(f"integrity: OK (version {database.version})")
        return 0
    finally:
        database.close()


def command_info(_args: argparse.Namespace) -> int:
    print(f"repro {__version__} — In-memory Incremental Maintenance of Provenance Sketches")
    print("subsystems:")
    subsystems = [
        ("repro.core", "bit sets, bloom filters, red-black trees, timing"),
        ("repro.relational", "bag-semantics relational algebra and evaluation"),
        ("repro.sql", "SQL parser and translation to algebra"),
        ("repro.storage", "versioned in-memory backend database with indexes"),
        ("repro.sketch", "provenance sketches: partitions, use, safety, adaptivity"),
        ("repro.imp", "sketch capture, incremental maintenance engine, strategies, middleware"),
        ("repro.workloads", "synthetic / TPC-H / Crimes data and query templates"),
        ("repro.bench", "benchmark harness and reporting"),
    ]
    for name, description in subsystems:
        print(f"  {name:<18} {description}")
    print("\nsee README.md, DESIGN.md and EXPERIMENTS.md for details")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "demo":
        try:
            return command_demo(args)
        except ImportError:
            return _run_demo_inline()
    if args.command == "compare":
        return command_compare(args)
    if args.command == "maintain":
        return command_maintain(args)
    if args.command == "serve":
        return command_serve(args)
    if args.command == "recover":
        return command_recover(args)
    if args.command == "info":
        return command_info(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
