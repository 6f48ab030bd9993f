"""The IMP benchmark driver.

Two ways to run it, both from the repository root::

    # every workload, untraced then traced, one fresh subprocess each
    python3 bench/run.py --seed 11 --out bench/results/latest.json

    # one workload in this process (the form the PR driver uses)
    python3 bench/run.py --workload mixed_1u5q --seed 11 --seconds 8 --trace 0

Load model: closed loop, one client, one thread.  A run builds its inputs from
``--seed`` (``streams.py``), sets the system up (load, index, build, capture
every template, warm pass), then replays a fixed, pre-materialised operation
stream through the public middleware API (``run_query`` / ``apply_update``)
and checks the final state for correctness outside the timed region.  The
stream length is fixed before the run from ``--seconds`` and a per-workload
rate calibrated on the build box, so for a given seed every counter repeats
exactly; the timed phase lasts *about* ``--seconds``.

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` replays the first half of the same stream twice on two fresh
systems -- once untraced, once under the external spans of ``spans.py`` -- and
reports the per-layer metrics plus the tracing overhead between the two.

The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics ``BENCHMARK.json`` names
for that trace mode).  The exit code is non-zero when any operation failed or
any result was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, ".work")

LAPS = 3
"""Set-up + timed-stream replays per untraced run: ``setup_s`` is the median
of the set-ups, every operation keeps its best time over the laps."""

KERNEL_REFERENCE_S = 0.0002
"""What one run of the calibration kernel takes on the build box when the box
is quiet.  Every reported time is ``wall * KERNEL_REFERENCE_S / kernel time
measured next to it``: the box's speed drifts by a third within the hour and
by half within seconds (other tenants of the host), and a time scaled this way
moves with the program, not with the neighbours."""

CALIBRATE_EVERY_S = 0.004
FSYNC_BATCH_INTERVAL = 128
VERIFY_REPEATS = 3
MIN_SAMPLES_FOR_P90 = 100  # p90 must leave at least ten samples beyond it


def ensure_environment() -> None:
    """Pin the hash seed (set iteration order feeds counters and float sums)
    and put ``src`` on the import path."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"bench: {source}/repro not found; run from a full checkout")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    for path in (source, BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- running operations -----------------------------------------------------------


class Failures:
    """Operations that raised, and verify mismatches, with the first messages."""

    def __init__(self) -> None:
        self.count = 0
        self.messages: list[str] = []

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def kernel_seconds() -> float:
    """Time one run of the calibration kernel: a fixed piece of interpreter
    work (tuples, a dict, a sort) of the kind the engine itself does."""
    started = time.perf_counter()
    totals: dict[int, float] = {}
    rows = []
    for index in range(600):
        row = (index, index * 7 % 13, index * 0.5)
        totals[row[1]] = totals.get(row[1], 0.0) + row[2]
        rows.append(row)
    rows.sort(key=lambda row: row[1])
    return time.perf_counter() - started


def at_reference_speed(function, *args) -> tuple[object, float]:
    """Call ``function(*args)`` once; returns its result and its wall time
    scaled to the reference machine speed (calibrated just before and after)."""
    before = [kernel_seconds() for _ in range(5)]
    started = time.perf_counter()
    result = function(*args)
    seconds = time.perf_counter() - started
    after = [kernel_seconds() for _ in range(5)]
    return result, seconds * KERNEL_REFERENCE_S / statistics.median(before + after)


def execute(system, operations, failures: Failures) -> tuple[list[float], float]:
    """Run ``operations`` in order.

    Returns each operation's wall time scaled to the reference machine speed,
    and the unscaled total.  The calibration kernel runs between operations,
    every CALIBRATE_EVERY_S at the most, and an operation is scaled by the
    mean of the calibrations just before and just after it.
    """
    clock = time.perf_counter
    raw: list[float] = []
    # (index of the first operation after the calibration, kernel seconds)
    calibrations = [(0, kernel_seconds())]
    calibrated = clock()
    for index, operation in enumerate(operations):
        started = clock()
        try:
            if operation.kind == "query":
                system.run_query(operation.sql)
            else:
                system.apply_update(operation.table, operation.inserts, operation.deletes)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
            failures.add(f"{operation.kind}: {exc!r}")
        ended = clock()
        raw.append(ended - started)
        if ended - calibrated >= CALIBRATE_EVERY_S:
            calibrations.append((index + 1, kernel_seconds()))
            calibrated = clock()
    calibrations.append((len(operations) + 1, kernel_seconds()))
    scaled: list[float] = []
    current = 0
    for index, seconds in enumerate(raw):
        while calibrations[current + 1][0] <= index:
            current += 1
        kernel = (calibrations[current][1] + calibrations[current + 1][1]) / 2
        scaled.append(seconds * KERNEL_REFERENCE_S / kernel)
    return scaled, sum(raw)


def set_up(workload, inputs, data_dir: str | None, failures: Failures):
    """Load the tables, build the system, capture every template, warm up."""
    from repro.storage.database import Database

    if data_dir is None:
        database = Database()
    else:
        updates = sum(1 for operation in inputs.timed_ops if operation.kind == "update")
        # Two checkpoints inside the timed phase and a WAL tail of about a
        # fifth of its commits left for recovery to replay.  fsync is batched:
        # on the build box one fsync took 0.3 ms to 7 ms depending on the hour,
        # so fsync="always" made every timing of this workload swing fivefold
        # from run to run (see README, "not covered").
        database = Database(
            data_dir=data_dir,
            fsync="batch",
            batch_interval=FSYNC_BATCH_INTERVAL,
            checkpoint_interval=max(2, int(0.4 * updates)),
        )
    # Set-up time is the sum of its pieces, each scaled to the reference speed
    # by the calibrations next to it (one calibration pair around the whole
    # second-long set-up would miss the speed changes inside it).
    seconds = 0.0

    def load(table) -> None:
        database.create_table(table.name, table.columns, primary_key=table.primary_key)
        database.insert(table.name, table.rows)

    def capture(sql: str) -> None:
        try:
            system.run_query(sql)
        except Exception as exc:  # noqa: BLE001 - counted like any failed op
            failures.add(f"capture: {exc!r}")

    for table in inputs.tables:
        seconds += at_reference_speed(load, table)[1]
    system = workload.make_system(database)
    for sql in inputs.templates:
        seconds += at_reference_speed(capture, sql)[1]
    seconds += sum(execute(system, inputs.warm_ops, failures)[0])
    return database, system, seconds


def verify(system, database, templates, failures: Failures) -> dict:
    """Correctness pass on the final state, outside the timed region.

    Sketch systems must return what the plain backend query returns; the
    no-sketch system must return what the unoptimized row engine returns.
    """
    sketch_based = hasattr(system, "store")
    system_ms: list[float] = []
    reference_ms: list[float] = []
    checked = mismatches = 0
    for sql in templates:
        try:
            system.run_query(sql)  # settles any pending lazy maintenance
            for _ in range(VERIFY_REPEATS):
                started = time.perf_counter()
                got = system.run_query(sql)
                system_ms.append((time.perf_counter() - started) * 1e3)
            for _ in range(VERIFY_REPEATS if sketch_based else 1):
                started = time.perf_counter()
                if sketch_based:
                    expected = database.query(sql)
                else:
                    expected = database.query(sql, optimize_plans=False, vectorize=False)
                reference_ms.append((time.perf_counter() - started) * 1e3)
        except Exception as exc:  # noqa: BLE001 - counted as a failed check
            failures.add(f"verify: {exc!r}")
            mismatches += 1
            continue
        checked += 1
        if got != expected:
            mismatches += 1
            failures.add(f"verify mismatch: {len(got)} rows, expected {len(expected)}: {sql}")
    system_p50 = statistics.median(system_ms) if system_ms else 0.0
    no_sketch_p50 = statistics.median((reference_ms if sketch_based else system_ms) or [0.0])
    return {
        "verify.queries_checked": checked,
        "verify.mismatches": mismatches,
        "verify.ns_query_p50_ms": no_sketch_p50,
        "verify.sketch_speedup": no_sketch_p50 / system_p50 if sketch_based and system_p50 else 0.0,
    }


def sketch_state_mb(system) -> float:
    store = getattr(system, "store", None)
    return store.memory_bytes() / 2**20 if store is not None else 0.0


NO_RECOVERY = {
    "recovery_s": 0.0,
    "wal_bytes_per_commit": 0.0,
    "storage.recovered_commits_replayed": 0,
}
"""What the traced pass reports on workloads without a data directory."""


def close_and_recover(database, data_dir: str, failures: Failures) -> dict:
    """Close the durable database, time its recovery, compare fingerprints."""
    from repro.storage.recovery import WAL_FILE, recover_database, state_fingerprint
    from repro.storage.wal import WAL_MAGIC

    fingerprint = state_fingerprint(database)
    database.close()
    wal_bytes = os.path.getsize(os.path.join(data_dir, WAL_FILE)) - len(WAL_MAGIC)
    (recovered, report), recovery_s = at_reference_speed(recover_database, data_dir)
    if state_fingerprint(recovered) != fingerprint:
        failures.add("recovery: recovered state differs from the pre-close fingerprint")
    recovered.close()
    records = report.commits_replayed + report.ddl_replayed
    return {
        "recovery_s": recovery_s,
        "storage.recovered_commits_replayed": report.commits_replayed,
        # The WAL tail since the last checkpoint; at full scale every record
        # in it is a commit.
        "wal_bytes_per_commit": wal_bytes / records if records else 0.0,
    }


# -- statistics ---------------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def latency_metrics(kind: str, operations, seconds: list[float]) -> tuple[dict, int]:
    latencies = [
        duration * 1e3
        for operation, duration in zip(operations, seconds)
        if operation.kind == kind
    ]
    enough = len(latencies) >= MIN_SAMPLES_FOR_P90
    return {
        f"{kind}_p50_ms": statistics.median(latencies) if latencies else None,
        f"{kind}_p90_ms": percentile(latencies, 0.9) if enough else None,
    }, len(latencies)


def epoch_rates(seconds: list[float], epochs: int) -> list[float]:
    """Operations per second of each of ``epochs`` equal slices of the stream."""
    size = len(seconds) // epochs
    return [size / sum(seconds[index * size:(index + 1) * size]) for index in range(epochs)]


# -- one workload, in this process ----------------------------------------------------


def run_untraced(workload, inputs, work_dir: str) -> dict:
    """LAPS times: set up a fresh system and replay the whole timed stream.

    Every lap does identical work, so each operation is timed LAPS times,
    seconds apart, and keeps its *best* time: interference from the rest of
    the machine only ever slows an operation down, and rarely hits the same
    operation in every lap.  Percentiles and epoch rates are then taken over
    those per-operation best times.
    """
    from streams import EPOCHS

    failures = Failures()
    setup_seconds: list[float] = []
    lap_seconds: list[list[float]] = []
    raw_walls: list[float] = []
    recoveries: list[dict] = []
    for lap in range(LAPS):
        data_dir = os.path.join(work_dir, f"data-{lap}") if workload.durable else None
        database, system, seconds = set_up(workload, inputs, data_dir, failures)
        setup_seconds.append(seconds)
        # Everything alive now is set-up state: keep the collector from
        # walking it during the timed phase.
        gc.collect()
        gc.freeze()
        scaled, raw_wall = execute(system, inputs.timed_ops, failures)
        lap_seconds.append(scaled)
        raw_walls.append(raw_wall)
        gc.unfreeze()
        if lap == LAPS - 1:
            checks = verify(system, database, inputs.templates, failures)
            checks["sketch_state_mb"] = sketch_state_mb(system)
        if data_dir is not None:
            recoveries.append(close_and_recover(database, data_dir, failures))
        del database, system

    best = [min(samples) for samples in zip(*lap_seconds)]
    rates = epoch_rates(best, EPOCHS)
    query_metrics, query_samples = latency_metrics("query", inputs.timed_ops, best)
    update_metrics, update_samples = latency_metrics("update", inputs.timed_ops, best)
    attempted = LAPS * (len(inputs.templates) + len(inputs.warm_ops) + len(inputs.timed_ops))
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": statistics.median(rates),
        **query_metrics,
        **update_metrics,
        "failed_ops": failures.count,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sketch_state_mb": checks["sketch_state_mb"],
        "wal_bytes_per_commit": recoveries[-1]["wal_bytes_per_commit"] if recoveries else None,
        "recovery_s": min(r["recovery_s"] for r in recoveries) if recoveries else None,
    }
    return {
        "metrics": metrics,
        "attempted": attempted + checks["verify.queries_checked"] + checks["verify.mismatches"],
        "failed": failures.count,
        "failure_messages": failures.messages,
        "samples": {
            "laps": LAPS,
            "epochs": EPOCHS,
            "timed_ops": len(inputs.timed_ops),
            "queries": query_samples,
            "updates": update_samples,
            "lap_wall_s": [sum(lap) for lap in lap_seconds],
            "lap_wall_unscaled_s": raw_walls,
            "best_wall_s": sum(best),
        },
        "quartiles": {
            "setup_s": quartiles(setup_seconds),
            "ops_per_s": quartiles(rates),
        },
    }


def run_traced(workload, inputs, work_dir: str) -> dict:
    """Replay the timed stream untraced, then traced, on two fresh systems;
    derive the per-layer metrics from the traced replay."""
    from layers import layer_metrics, layer_shares, op_walls_and_self_sums, program_counters
    from spans import Tracer, self_times

    failures = Failures()

    def data_dir(label: str) -> str | None:
        return os.path.join(work_dir, label) if workload.durable else None

    database, system, _seconds = set_up(workload, inputs, data_dir("untraced"), failures)
    gc.collect()
    untraced_wall = sum(execute(system, inputs.timed_ops, failures)[0])
    database.close()
    del database, system

    tracer = Tracer()
    tracer.install()
    try:
        database, system, _seconds = set_up(workload, inputs, data_dir("traced"), failures)
        gc.collect()
        first_timed_span = len(tracer.spans)
        before = program_counters(system, database)
        # Counters fed by spans restart with the timed phase.
        tracer.counters.clear()
        traced_wall = sum(execute(system, inputs.timed_ops, failures)[0])
        after = program_counters(system, database)
    finally:
        tracer.uninstall()

    own = self_times(tracer.spans)
    metrics = layer_metrics(tracer, own, first_timed_span, before, after, system, database)
    metrics.update(verify(system, database, inputs.templates, failures))
    metrics["sketch_state_mb"] = sketch_state_mb(system)
    recovery = NO_RECOVERY
    if workload.durable:
        recovery = close_and_recover(database, data_dir("traced"), failures)
    metrics.update(recovery)
    metrics["storage.recover_s"] = recovery["recovery_s"]
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    op_checks = op_walls_and_self_sums(tracer.spans, own, first_timed_span)
    attempted = 2 * (len(inputs.templates) + len(inputs.warm_ops) + len(inputs.timed_ops))
    return {
        "metrics": metrics,
        "attempted": attempted + metrics["verify.queries_checked"] + metrics["verify.mismatches"],
        "failed": failures.count,
        "failure_messages": failures.messages,
        "samples": {
            "timed_ops": len(inputs.timed_ops),
            "spans": len(tracer.spans) - first_timed_span,
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "max_self_sum_over_wall": max(total / wall for wall, total in op_checks),
        },
        "layer_shares": layer_shares(tracer.spans, own, first_timed_span),
        "unrestored_patches": Tracer.installed_patches(),
        "spans": tracer.spans,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload in this process and return its record."""
    from streams import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, scale, seconds / LAPS)
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        record = (run_traced if trace else run_untraced)(workload, inputs, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record.update({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": int(trace),
        "correct": record["failed"] == 0,
    })
    return record


# -- output -----------------------------------------------------------------------------


def contract_names(trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json lists for this trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    return [
        (metric["name"], metric["unit"])
        for metric in contract["per_layer" if trace else "end_to_end"]
    ]


def contract_line(record: dict) -> str:
    """The single-line JSON result the PR driver reads."""
    metrics = {}
    for name, unit in contract_names(bool(record["trace"])):
        value = record["metrics"].get(name)
        if value is None:
            sys.exit(f"bench: metric {name} is not available on {record['workload']} "
                     f"(too few samples at --seconds {record['seconds']}?)")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def metric_units() -> dict[str, str]:
    from catalog import END_TO_END, PER_LAYER

    units = {name: unit for name, unit, _better, _bound in END_TO_END}
    units.update({name: unit for name, unit, _better in PER_LAYER})
    return units


def print_record(record: dict) -> None:
    """Every metric by name, with its unit; sample counts first."""
    units = metric_units()
    mode = "traced (per-layer)" if record["trace"] else "untraced (end-to-end)"
    print(f"== {record['workload']}  seed={record['seed']}  {mode}")
    print("   samples: " + ", ".join(
        f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in record["samples"].items()
    ))
    for name, value in record["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = ""
        if name in record.get("quartiles", {}):
            low, _mid, high = record["quartiles"][name]
            extra = f"   (quartiles {low:.4g} .. {high:.4g})"
        print(f"   {name:<44}{shown:>14} {units.get(name, ''):<6}{extra}")
    if record["trace"]:
        print("   layer shares of traced op wall: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in record["layer_shares"].items()
        ))
    if record["workload"] == "durable_commit":
        print("   note: fsync cost is this sandbox's file system, not a device's")
    for message in record["failure_messages"]:
        print(f"   FAILED {message}")


def write_record(record, path: str, indent: int | None = 1) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=indent)
        handle.write("\n")


# -- all workloads, one subprocess each ---------------------------------------------------


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        ).stdout.strip()
    except OSError:  # no git on this machine
        commit = ""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "git_commit": commit or None,
    }


def run_all(args) -> int:
    """Every workload untraced, then every workload traced, one fresh
    subprocess each; the summary goes to ``--out`` and each pass's record
    (and the traced passes' spans) into the directory named after it."""
    from streams import WORKLOADS

    out = args.out or os.path.join(BENCH_DIR, "results", "latest.json")
    details = os.path.splitext(out)[0]
    summary = {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "environment": environment(),
        "workloads": {name: {} for name in WORKLOADS},
    }
    failed = 0
    for trace, mode in ((0, "untraced"), (1, "traced")):
        for name in WORKLOADS:
            record_path = os.path.join(details, f"{name}.{mode}.json")
            if os.path.exists(record_path):
                os.remove(record_path)
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", args.scale, "--out", record_path,
            ]
            completed = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, check=False
            )
            if not os.path.exists(record_path):
                print(completed.stdout + completed.stderr)
                print(f"== {name}: no result (exit code {completed.returncode})")
                failed += 1
                continue
            with open(record_path, encoding="utf-8") as handle:
                record = json.load(handle)
            print_record(record)
            failed += record["failed"]
            summary["workloads"][name][mode] = record
    summary["failed_ops"] = failed
    # This benchmark measures; it claims no gain.
    summary["claim"] = None
    write_record(summary, out)
    print(f"wrote {out} (per-pass records and spans in {details}/)")
    print(json.dumps({"failed_ops": failed, "claim": None}))
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="target length of the timed phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the full record(s) to this JSON file")
    args = parser.parse_args()
    ensure_environment()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            args.seconds = float(json.load(handle)["run_seconds"])
    if not args.workload:
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    spans = record.pop("spans", None)
    print_record(record)
    if args.out:
        write_record(record, args.out)
        if spans is not None:
            # One [name, start, end, parent index, op id] per span.
            write_record(spans, os.path.splitext(args.out)[0] + ".spans.json", indent=None)
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
