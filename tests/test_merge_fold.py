"""The merge operator ``μ`` on the shared fragment fold, held to a per-entry
reference counter over random streams of valid bag deltas."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imp.annotated import AnnotatedDelta
from repro.imp.operators import IncrementalOperator, MergeOperator
from repro.relational.schema import Schema
from repro.sketch.sketch import SketchDelta

SCHEMA = Schema(["a"])


class ReferenceMerge:
    """``μ``'s counts applied entry by entry, in order, never netting equal
    masks: a count that passes through zero drops its fragment and re-inserts
    it at the end of ``counts``."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}

    def apply(self, annotations: list[int], counts: list[int]) -> SketchDelta:
        totals = self.counts
        before: dict[int, int] = {}
        for annotation, count in zip(annotations, counts):
            for fragment in range(annotation.bit_length()):
                if not annotation >> fragment & 1:
                    continue
                current = totals.get(fragment, 0)
                before.setdefault(fragment, current)
                if current + count:
                    totals[fragment] = current + count
                else:
                    totals.pop(fragment, None)
        entered = {f for f, old in before.items() if old <= 0 < totals.get(f, 0)}
        left = {f for f, old in before.items() if old > 0 >= totals.get(f, 0)}
        return SketchDelta(frozenset(entered), frozenset(left))

    def mask(self) -> int:
        return sum(1 << fragment for fragment, count in self.counts.items() if count > 0)


class Feed(IncrementalOperator):
    """A child that hands ``μ`` the batch queued last."""

    def __init__(self) -> None:
        super().__init__(SCHEMA)
        self.delta = AnnotatedDelta(SCHEMA)

    def process(self, run) -> AnnotatedDelta:
        return self.delta


masks = st.integers(min_value=0, max_value=0b111111)


@st.composite
def streams(draw) -> list[tuple[list[int], list[int]]]:
    """Batches of ``(annotations, counts)``.  A unit-count batch only inserts
    single tuples; a mixed-sign batch inserts and deletes, in any order, and
    deletes only annotated tuples present before it."""
    present: dict[int, int] = {}
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if draw(st.booleans()):
            annotations = draw(st.lists(masks, max_size=12))
            counts = [1] * len(annotations)
        else:
            held = {mask: count for mask, count in present.items() if count > 0}
            entries = []
            for _ in range(draw(st.integers(min_value=0, max_value=12))):
                if held and draw(st.booleans()):
                    mask = draw(st.sampled_from(sorted(held)))
                    count = draw(st.integers(min_value=1, max_value=held[mask]))
                    held[mask] -= count
                    if not held[mask]:
                        del held[mask]
                    entries.append((mask, -count))
                else:
                    entries.append((draw(masks), draw(st.integers(min_value=1, max_value=3))))
            annotations = [mask for mask, _count in entries]
            counts = [count for _mask, count in entries]
        for mask, count in zip(annotations, counts):
            present[mask] = present.get(mask, 0) + count
        batches.append((annotations, counts))
    return batches


@settings(max_examples=300, deadline=None)
@given(streams())
def test_merge_operator_equals_the_per_entry_counter(stream):
    feed = Feed()
    merge, reference = MergeOperator(feed), ReferenceMerge()
    for annotations, counts in stream:
        feed.delta = AnnotatedDelta(SCHEMA, [(0,)] * len(counts), annotations, counts)
        assert merge.process_to_sketch_delta(None) == reference.apply(annotations, counts)
        assert list(merge.counts.items()) == list(reference.counts.items())
        assert merge.mask == reference.mask()
