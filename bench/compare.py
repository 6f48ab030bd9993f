"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 bench/compare.py BASE NEW [--write-baseline bench/baseline.json]

``BASE`` and ``NEW`` are each a result file written by ``run.py --out``, a
directory of such files (repeated runs of one commit), or a baseline file
written by ``--write-baseline`` (all of its runs count as one side).

One row is printed per workload and end-to-end metric: median and quartiles of
each side, the change of the median with its base, the metric's bound and a
verdict:

* ``same``        the median moved by less than the bound;
* ``better`` / ``worse``  it moved by more than the bound;
* ``unresolved``  either side's own run-to-run spread (distance between its
  quartiles, as a share of its median) is wider than the bound, so a change of
  the size of the bound could not be told from noise;
* exact metrics (``failed_ops``, ``sketch_state_mb``, ``wal_bytes_per_commit``)
  and the traced counters must match to the digit: ``same`` or ``worse``.

The exit code is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from catalog import DETERMINISTIC_UNITS, END_TO_END, EXACT, PER_LAYER

Side = dict[str, dict[str, dict[str, list]]]
"""``side[workload]["untraced" | "traced"][metric]`` is the list of values
measured for it, one per run (``None`` where a metric does not apply)."""


def load_side(path: str) -> tuple[Side, list[dict]]:
    """Read one side; returns its values and the environment of each run."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name) for name in os.listdir(path) if name.endswith(".json")
        )
    else:
        files = [path]
    side: Side = {}
    environments: list[dict] = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            document = json.load(handle)
        if "sets" in document:  # a baseline file: its sets are runs of one commit
            environments.append(document["environment"])
            for entry in document["sets"]:
                for workload, passes in entry["workloads"].items():
                    for mode, metrics in passes.items():
                        for name, summary in metrics.items():
                            _values(side, workload, mode, name).extend(summary["values"])
        elif "workloads" in document:  # one run of run.py --out
            environments.append({
                **document["environment"],
                **{key: document[key] for key in ("seed", "seconds", "scale")},
            })
            for workload, passes in document["workloads"].items():
                for mode, record in passes.items():
                    for name, value in record["metrics"].items():
                        _values(side, workload, mode, name).append(value)
    if not side:
        sys.exit(f"compare: no benchmark results found in {path}")
    return side, environments


def _values(side: Side, workload: str, mode: str, name: str) -> list:
    return side.setdefault(workload, {}).setdefault(mode, {}).setdefault(name, [])


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, _middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def spread(values: list[float]) -> float:
    low, median, high = summarize(values)
    return (high - low) / median if median else 0.0


def verdict(base: list, new: list, better: str, bound: float | str) -> tuple[str, float | None]:
    """Verdict and relative change of the median (None when undefined)."""
    if bound == EXACT:
        return ("same" if set(base) == set(new) else "worse"), None
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    change = (new_median - base_median) / base_median if base_median else 0.0
    if max(spread(base), spread(new)) > bound:
        return "unresolved", change
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse", change
    if worsening < -bound:
        return "better", change
    return "same", change


def compare(base: Side, new: Side) -> int:
    """Print the comparison; returns the number of ``worse`` rows."""
    worse = 0
    header = (
        f"{'workload':<16}{'metric':<22}{'base median [q1..q3]':>40}"
        f"{'new median [q1..q3]':>40}{'change':>9}{'bound':>7}  verdict"
    )
    print(header)
    for workload in base:
        if workload not in new:
            print(f"{workload:<16}missing on the new side")
            worse += 1
            continue
        for name, unit, better, bound in END_TO_END:
            base_values = base[workload].get("untraced", {}).get(name, [])
            new_values = new[workload].get("untraced", {}).get(name, [])
            if all(value is None for value in base_values + new_values):
                print(f"{workload:<16}{name:<22}{'n/a':>40}{'n/a':>40}")
                continue
            if None in base_values or None in new_values or not base_values or not new_values:
                print(f"{workload:<16}{name:<22}  defined on one side only: worse")
                worse += 1
                continue
            result, change = verdict(base_values, new_values, better, bound)
            worse += result == "worse"
            shown_bound = bound if bound == EXACT else f"{bound:.0%}"
            shown_change = "" if change is None else f"{change:+.1%}"
            print(
                f"{workload:<16}{name:<22}{_cell(base_values, unit):>40}"
                f"{_cell(new_values, unit):>40}{shown_change:>9}{shown_bound:>7}  {result}"
            )
        worse += _compare_counters(workload, base[workload], new[workload])
    return worse


def _cell(values: list[float], unit: str) -> str:
    low, median, high = summarize(values)
    return f"{median:.5g} [{low:.5g}..{high:.5g}] {unit} n={len(values)}"


def _compare_counters(workload: str, base: dict, new: dict) -> int:
    """Traced counters repeat exactly for a given seed; report any that differ."""
    differing = 0
    checked = 0
    for name, unit, _better in PER_LAYER:
        if unit not in DETERMINISTIC_UNITS:
            continue
        base_values = set(base.get("traced", {}).get(name, []))
        new_values = set(new.get("traced", {}).get(name, []))
        if not base_values or not new_values:
            continue
        checked += 1
        if base_values != new_values:
            differing += 1
            print(f"{workload:<16}{name:<22}  counter differs: {sorted(base_values)} "
                  f"vs {sorted(new_values)}: worse")
    print(f"{workload:<16}traced counters: {checked - differing} of {checked} identical")
    return differing


def baseline_document(sides: list[tuple[Side, list[dict]]]) -> dict:
    """Medians, quartiles and raw values of each side, plus where they ran."""
    sets = []
    for side, environments in sides:
        workloads: dict = {}
        for workload, passes in side.items():
            for mode, metrics in passes.items():
                for name, values in metrics.items():
                    present = [value for value in values if value is not None]
                    if not present:
                        continue
                    low, median, high = summarize(present)
                    workloads.setdefault(workload, {}).setdefault(mode, {})[name] = {
                        "median": median, "q1": low, "q3": high, "values": present,
                    }
        sets.append({"runs": len(environments), "workloads": workloads})
    return {"environment": sides[0][1][0], "sets": sets, "claim": None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="also record both sides as the two sets of a baseline file")
    args = parser.parse_args()
    base, base_environments = load_side(args.base)
    new, new_environments = load_side(args.new)
    worse = compare(base, new)
    if args.write_baseline:
        document = baseline_document([(base, base_environments), (new, new_environments)])
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.write_baseline}")
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
