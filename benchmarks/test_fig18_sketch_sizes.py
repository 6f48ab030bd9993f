"""Figure 18 (table): memory of sketches and range lists.

The paper reports the physical size of sketches (bitvectors) and of the range
boundary lists for 100 to 100,000 ranges: sketches are tiny (tens of bytes to
a dozen kilobytes) and ranges are roughly 44 bytes per boundary.  This
benchmark regenerates the same table and checks the orders of magnitude.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import ExperimentResult
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.sketch import ProvenanceSketch

from benchmarks.conftest import print_rows

RANGE_COUNTS = [100, 200, 500, 1000, 2000, 5000, 10000, 20000, 100000]


def build_sketch_and_ranges(num_ranges: int) -> tuple[int, int]:
    partition = RangePartition("t", "a", list(range(num_ranges + 1)))
    database_partition = DatabasePartition([partition])
    sketch = ProvenanceSketch.full(database_partition)
    return sketch.byte_size(), partition.byte_size()


def test_fig18_sketch_and_range_sizes():
    rows = [(count, *build_sketch_and_ranges(count)) for count in RANGE_COUNTS]
    result = ExperimentResult("fig18")
    for count, sketch_bytes, range_bytes in rows:
        result.add(
            num_ranges=count,
            sketch_mb=round(sketch_bytes / 1_000_000, 6),
            ranges_mb=round(range_bytes / 1_000_000, 6),
        )
    print_rows(result, "Fig. 18: memory of sketches and ranges")

    by_count = {count: (s, r) for count, s, r in rows}
    # Sketches stay tiny: ~1 bit per range (plus a small header).
    assert by_count[100][0] < 100
    assert by_count[100_000][0] < 20_000
    # Ranges are tens of bytes per boundary, i.e. a few MB at 100k ranges.
    assert 1_000_000 < by_count[100_000][1] < 10_000_000
    # Both grow monotonically with the number of ranges.
    sketch_sizes = [by_count[count][0] for count in RANGE_COUNTS]
    range_sizes = [by_count[count][1] for count in RANGE_COUNTS]
    assert sketch_sizes == sorted(sketch_sizes)
    assert range_sizes == sorted(range_sizes)


@pytest.mark.parametrize("num_ranges", [1000, 100000])
def test_fig18_sketch_construction_cost(num_ranges):
    """Building a full sketch over many ranges stays cheap (microseconds-ms):
    the seconds are printed; the sketch holds one bit per range."""
    started = time.perf_counter()
    sketch_bytes, _ranges_bytes = build_sketch_and_ranges(num_ranges)
    seconds = time.perf_counter() - started
    print(f"\nFig. 18: sketch and ranges over {num_ranges} ranges built in {seconds:.6f} s")
    assert num_ranges // 8 <= sketch_bytes < num_ranges // 8 + 100
