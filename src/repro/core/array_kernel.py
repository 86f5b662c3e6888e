"""The step-2.2 kernels: instance-pair enumeration and the Iterative Check.

Step 2.2 of E-STPM (paper Sec. IV-D) has two inner loops, one function
each, shared by the batch miner's group tasks (:mod:`repro.core.stpm`)
and the streaming miner (:mod:`repro.streaming.incremental`).  Both run
on the per ``(event, granule)`` columns of
:class:`~repro.core.instance_index.InstanceColumn`, whose start and end
bounds are strictly ascending:

* **Pair enumeration** (:func:`array_collect_pair_patterns`, k = 2).
  For one ``(event_a, event_b)`` column pair an amortized two-pointer
  walk finds, per ``a_i``, the epsilon-shifted bulk boundaries
  ``head[i]`` (every ``b`` before it is wholly before ``a_i``) and
  ``tail[i]`` (every ``b`` from it on is wholly after ``a_i``).  Both
  bulk zones are unconditional Follows, stored implicitly as boundary
  lists in :class:`~repro.core.instance_index.LazyAssignments`; only
  the near window between them is classified pair by pair, inlining the
  comparisons of :func:`~repro.events.relations.relation_of_bounds`.
  Accepted pairs land in the encoded-assignment
  ``(earlier_index, later_index)`` format that ``GH_k`` stores.
* **Verdict-row extension** (:func:`array_extend_group_patterns`,
  k >= 3).  Each verdict row (bulk prefix/suffix fills bounded by two
  bisects, plus a classified near window) is built once per
  caller-owned :class:`~repro.core.instance_index.VerdictStore`: once
  per level in the batch miner, once per advance in the streaming
  miner.  Rows are combined per assignment with O(1) *bulk-zone*
  handling: the index range where every slot verdict is a constant
  Follows is accepted (or rejected, when the Iterative Check already
  killed the triple) without touching the per-index loop.
* **Supports only at the last level.**  ``GH_k`` assignments exist only
  for level k + 1 to extend.  At ``k == max_pattern_length`` nothing
  reads them, so the extension kernel records just the granules each
  extended pattern occurs in -- no assignment tuples, no per-granule
  sets -- and returns an empty assignment table per pattern.

Neither kernel calls numpy, so the compute backend (``REPRO_COMPUTE``)
does not reach step 2.2.  Columns are short on every shipped workload
(1.4-1.7 instances on average on the paper's datasets, at most 18 in the
dense ``perfbench`` workload), and per-column array set-up would cost
more than the vectorized arithmetic saves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat

from repro.core.hlh import HLH1, Assignment, HLHk
from repro.core.instance_index import (
    LazyAssignments,
    intern_pair_pattern,
    intern_pattern,
    intern_triple,
)
from repro.core.pattern import TemporalPattern, Triple, splice_triples
from repro.events.relations import CONTAINS, FOLLOWS, OVERLAPS
from repro.obs import counters as metrics

#: Verdict sentinel: "computed, and no (allowed) relation holds".
_NO_RELATION = object()


# ---------------------------------------------------------------------------
# Pair enumeration (step 2.2, k = 2)
# ---------------------------------------------------------------------------


def array_collect_pair_patterns(
    hlh1: HLH1,
    event_a: str,
    event_b: str,
    granules,
    relation,
    pattern_support: dict[TemporalPattern, list[int]],
    pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]],
) -> None:
    """Enumerate the related instance pairs of one event pair per granule.

    The inner loop of step 2.2 at k = 2, shared by the batch miner (which
    walks the full group support) and the streaming miner (which walks
    only the tail granules of an advance).  ``granules`` must be
    ascending; every related pair accumulates in place into the two
    dictionaries, keyed by its interned pair pattern.  See the module
    docstring for the mechanics.
    """
    epsilon = relation.epsilon
    min_overlap = relation.min_overlap
    entries: dict[tuple[str, str, str], tuple[list, dict]] = {}

    def _bucket(key: tuple[str, str, str], granule: int) -> list:
        """The assignment list of one pattern at one granule, marking the
        granule in the pattern's support on first use."""
        entry = entries.get(key)
        if entry is None:
            pattern = intern_pair_pattern(*key)
            entry = entries[key] = (
                pattern_support.setdefault(pattern, []),
                pattern_assignments.setdefault(pattern, {}),
            )
        support_list, by_granule = entry
        if not support_list or support_list[-1] != granule:
            support_list.append(granule)
        bucket = by_granule.get(granule)
        if bucket is None:
            bucket = by_granule[granule] = LazyAssignments()
        return bucket

    same = event_a == event_b
    for granule in granules:
        column_a = hlh1.column_of(event_a, granule)
        n_a = len(column_a.starts_arr)
        if n_a == 0:
            continue
        if same:
            _self_join(column_a, event_a, granule, epsilon, min_overlap, _bucket)
            continue
        column_b = hlh1.column_of(event_b, granule)
        n_b = len(column_b.starts_arr)
        if n_b == 0:
            continue
        _pair_join(
            column_a, column_b, event_a, event_b, granule,
            epsilon, min_overlap, _bucket,
        )


def _pair_join(
    column_a, column_b, event_a, event_b, granule, epsilon, min_overlap, bucket_of
) -> None:
    """Distinct-event join of two columns at one granule: amortized
    two-pointer boundaries feeding lazy bulk-Follows blocks, with a
    scalar classification loop over the near windows."""
    starts_a, ends_a = column_a.starts, column_a.ends
    starts_b, ends_b = column_b.starts, column_b.ends
    n_a, n_b = len(starts_a), len(starts_b)
    follows_ab = (FOLLOWS, event_a, event_b)
    follows_ba = (FOLLOWS, event_b, event_a)
    buckets: dict[tuple[str, str, str], list] = {}

    def _local(key):
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = bucket_of(key, granule)
        return bucket

    heads = []
    tails = []
    before_total = 0
    after_total = 0
    head = 0
    tail = 0
    for i in range(n_a):
        start_i = starts_a[i]
        end_i = ends_a[i]
        while head < n_b and ends_b[head] + epsilon < start_i:
            head += 1
        threshold = end_i + epsilon + 1
        if tail < head:
            tail = head
        while tail < n_b and starts_b[tail] < threshold:
            tail += 1
        heads.append(head)
        tails.append(tail)
        before_total += head
        after_total += n_b - tail
        for j in range(head, tail):
            start_j = starts_b[j]
            end_j = ends_b[j]
            if start_j != start_i:
                a_first = start_i < start_j
            elif end_j != end_i:
                a_first = end_i > end_j
            else:
                a_first = event_a <= event_b
            if a_first:
                s_1, e_1, s_2, e_2 = start_i, end_i, start_j, end_j
            else:
                s_1, e_1, s_2, e_2 = start_j, end_j, start_i, end_i
            if s_1 <= s_2 and e_2 <= e_1 + epsilon:
                rel = CONTAINS
            elif s_2 >= e_1 + 1 - epsilon:
                rel = FOLLOWS
            elif (
                s_1 < s_2
                and e_1 + epsilon < e_2
                and e_1 + 1 - s_2 >= min_overlap - epsilon
            ):
                rel = OVERLAPS
            else:
                continue
            if a_first:
                _local((rel, event_a, event_b)).append((i, j))
            else:
                _local((rel, event_b, event_a)).append((j, i))
    if before_total:
        _local(follows_ba).add_bulk_before(heads, before_total)
    if after_total:
        _local(follows_ab).add_bulk_after(tails, n_b, after_total)
    if metrics.metrics_enabled():
        metrics.inc("kernel.pairs.bulk", before_total + after_total)
        metrics.inc(
            "kernel.pairs.near_classified", sum(tails) - sum(heads)
        )


def _self_join(column, event, granule, epsilon, min_overlap, bucket_of) -> None:
    """Same-event join of one column (distinct ordered pairs ``i < j``).

    Same-event runs are disjoint, so instance ``i`` always precedes every
    ``j > i``; the only boundary is the bulk ``i -> j`` Follows tail.
    """
    starts, ends = column.starts, column.ends
    n = len(starts)
    buckets: dict[tuple[str, str, str], list] = {}

    def _local(key):
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = bucket_of(key, granule)
        return bucket

    tails = []
    after_total = 0
    tail = 0
    for i in range(n):
        start_i = starts[i]
        end_i = ends[i]
        if tail <= i:
            tail = i + 1
        threshold = end_i + epsilon + 1
        while tail < n and starts[tail] < threshold:
            tail += 1
        tails.append(tail)
        after_total += n - tail
        for j in range(i + 1, tail):
            start_j = starts[j]
            end_j = ends[j]
            if start_i <= start_j and end_j <= end_i + epsilon:
                rel = CONTAINS
            elif start_j >= end_i + 1 - epsilon:
                rel = FOLLOWS
            elif (
                start_i < start_j
                and end_i + epsilon < end_j
                and end_i + 1 - start_j >= min_overlap - epsilon
            ):
                rel = OVERLAPS
            else:
                continue
            _local((rel, event, event)).append((i, j))
    if after_total:
        _local((FOLLOWS, event, event)).add_bulk_after(tails, n, after_total)
    if metrics.metrics_enabled():
        metrics.inc("kernel.pairs.bulk", after_total)
        metrics.inc(
            "kernel.pairs.near_classified", sum(tails) - n * (n + 1) // 2
        )


# ---------------------------------------------------------------------------
# Group extension (step 2.2, k >= 3)
# ---------------------------------------------------------------------------


def _verdict_row_array(
    existing_column,
    existing_event: str,
    existing_index: int,
    event: str,
    new_column,
    epsilon: int,
    min_overlap: int,
    allowed_triples,
    before,
    after,
):
    """One existing instance's verdicts against the whole new column.

    Returns ``(row, head, tail)``: ``row`` is the full verdict list
    indexed by new-instance position (entries are ``(existing_first,
    triple)`` or :data:`_NO_RELATION`); ``head`` / ``tail`` bound the
    near window.  They come from two bisects: new instances before
    ``head`` end more than epsilon before the existing start, new
    instances from ``tail`` on start more than epsilon after its end.
    Both columns are strictly ascending, so ``head <= tail``.
    ``before`` / ``after`` are the constant verdicts of those bulk
    zones, held in the caller's verdict-store slot (they depend only on
    the event pair, not on the instance).
    """
    new_starts = new_column.starts
    new_ends = new_column.ends
    n_new = len(new_starts)
    s_e = existing_column.starts_arr[existing_index]
    e_e = existing_column.ends_arr[existing_index]
    head = bisect_right(new_ends, s_e - epsilon - 1)
    tail = bisect_left(new_starts, e_e + epsilon + 1)
    # Sized once (the store keeps every row for a whole level): bulk
    # verdicts throughout, then the near window overwritten in place.
    row: list = [before] * head + [after] * (n_new - head)
    for j in range(head, tail):
        s_n = new_starts[j]
        e_n = new_ends[j]
        if s_e != s_n:
            existing_first = s_e < s_n
        elif e_e != e_n:
            existing_first = e_e > e_n
        else:
            existing_first = existing_event <= event
        if existing_first:
            s_1, e_1, s_2, e_2 = s_e, e_e, s_n, e_n
        else:
            s_1, e_1, s_2, e_2 = s_n, e_n, s_e, e_e
        if s_1 <= s_2 and e_2 <= e_1 + epsilon:
            rel = CONTAINS
        elif s_2 >= e_1 + 1 - epsilon:
            rel = FOLLOWS
        elif (
            s_1 < s_2
            and e_1 + epsilon < e_2
            and e_1 + 1 - s_2 >= min_overlap - epsilon
        ):
            rel = OVERLAPS
        else:
            row[j] = _NO_RELATION
            continue
        if existing_first:
            info = (True, intern_triple(rel, existing_event, event))
        else:
            info = (False, intern_triple(rel, event, existing_event))
        if allowed_triples is not None and info[1] not in allowed_triples:
            info = _NO_RELATION
        row[j] = info
    if existing_event == event and existing_index < n_new:
        # The existing instance is itself a column entry of the new
        # event; it always falls inside the near window, so patching the
        # row never touches the bulk-zone constants.
        row[existing_index] = _NO_RELATION
    return (row, head, tail)


def _shape_entry(
    shape_cache: dict,
    accumulator: dict,
    merged: set,
    shape: tuple,
    events: tuple[str, ...],
    triples: tuple[Triple, ...],
    keep: bool,
) -> list:
    """Create the shape-cache entry ``[store, granule, bucket]`` of one
    extended pattern identity.

    ``store`` is the identity's accumulator value: per-granule assignment
    sets when assignments are kept, otherwise the list of granules the
    identity occurs in.  Two shapes can splice to one identity (a
    repeated event inserted at two positions, or two parent patterns
    embedding the parent group in two ways); their granule lists then
    interleave, so such an identity is noted in ``merged`` and sorted
    once at the end.
    """
    key = (events, triples)
    store = accumulator.get(key)
    if store is None:
        store = accumulator[key] = {} if keep else []
    elif not keep:
        merged.add(key)
    entry = shape_cache[shape] = [store, -1, None]
    return entry


def _enter_granule(entry: list, granule: int, keep: bool) -> None:
    """Move a shape entry to ``granule``: its bucket becomes the
    identity's assignment set there, or -- when assignments are not kept
    -- the granule is recorded once and the bucket is the granule list."""
    entry[1] = granule
    store = entry[0]
    if keep:
        bucket = store.get(granule)
        if bucket is None:
            bucket = store[granule] = set()
        entry[2] = bucket
    else:
        store.append(granule)
        entry[2] = store


def _resolve_zone_bucket(
    shape_cache: dict,
    accumulator: dict,
    merged: set,
    shape: tuple,
    events: tuple[str, ...],
    prev_triples: tuple[Triple, ...],
    partners: tuple[Triple, ...],
    position: int,
    k: int,
    granule: int,
    keep: bool,
):
    """The bucket of one bulk-zone shape at one granule.

    Resolved lazily on the first contributing assignment (so a granule
    whose assignments all have an empty zone never records the shape),
    then reused for the rest of the granule by the caller.
    """
    entry = shape_cache.get(shape)
    if entry is None:
        triples = splice_triples(prev_triples, partners, position, k)
        entry = _shape_entry(
            shape_cache, accumulator, merged, shape, events, triples, keep
        )
    if entry[1] != granule:
        _enter_granule(entry, granule, keep)
    return entry[2]


def _granule_record(hlh1: HLH1, event: str, granule: int) -> tuple:
    """A verdict-store record of one ``(new event, granule)``: the new
    column, its length, and the per-existing-event slots (filled by
    :func:`_slot_record`)."""
    new_column = hlh1.column_of(event, granule)
    return (new_column, len(new_column.starts_arr), {})


def _slot_record(
    hlh1: HLH1, existing_event: str, event: str, granule: int, allowed_triples
) -> tuple:
    """A verdict-store slot of one existing event at one granule:
    ``(rows, column, before, after)``.

    ``rows`` is the lazily filled row list parallel to the existing
    column.  ``before`` / ``after`` are the bulk-zone verdict constants:
    a new instance wholly before an existing one is always "new Follows
    existing", one wholly after is "existing Follows new", whatever the
    instance.
    """
    existing_column = hlh1.column_of(existing_event, granule)
    before = (False, intern_triple(FOLLOWS, event, existing_event))
    after = (True, intern_triple(FOLLOWS, existing_event, event))
    if allowed_triples is not None:
        if before[1] not in allowed_triples:
            before = _NO_RELATION
        if after[1] not in allowed_triples:
            after = _NO_RELATION
    return ([None] * len(existing_column.starts_arr), existing_column, before, after)


def array_extend_group_patterns(
    hlh1: HLH1,
    previous: HLHk,
    entry_prev,
    event: str,
    candidate_triples,
    params,
    check_candidates: bool,
    verdict_store,
    parent_patterns=None,
    granule_filter=None,
) -> tuple[
    dict[TemporalPattern, list[int]],
    dict[TemporalPattern, dict[int, list[Assignment]]],
]:
    """Extend every candidate pattern of one parent group with ``event``.

    This is the Iterative Check of Sec. IV-D 4.2.2: each new relation
    triple between an existing event and the new event must already be
    a candidate 2-event pattern, otherwise the extension is discarded.

    ``parent_patterns`` restricts the extension to a subset of the parent
    group's candidate patterns and ``granule_filter`` to a subset of the
    granule positions -- the hooks the streaming miner uses to extend only
    newly incorporated parent patterns / only the tail granules of an
    advance.  The batch miner leaves both ``None`` (all patterns, all
    granules).

    Parent assignments arrive -- and extended assignments leave -- in the
    compact column-index encoding of :mod:`repro.core.instance_index`:
    ``assignment[i]`` indexes the instance of ``pattern.events[i]`` in
    its ``(event, granule)`` column.  Each assignment's bulk zones cost
    O(1): new-instance indices where every slot's verdict is the
    constant before/after Follows are accepted as one batch -- or
    rejected as one batch when the Iterative Check already discarded
    that Follows triple -- leaving the per-index loop only the combined
    near window.

    ``verdict_store`` is a caller-owned
    :class:`~repro.core.instance_index.VerdictStore` shared by every call
    with the same ``hlh1``, candidate triples, check flag and relation
    config; each verdict row is built once per store.  Its layout: new
    event -> granule -> ``(new column, length, slots)``, where ``slots``
    maps an existing event to ``(rows, column, before, after)`` -- the
    per-instance row list, the existing column and its bulk-zone verdict
    constants.  Rows built by this call are counted under
    ``kernel.extend.verdict_rows``.

    At the last level (``previous.k + 1 == params.max_pattern_length``)
    nothing will extend the new patterns, so only the granules each one
    occurs in are recorded: its support list, with an empty per-granule
    assignment table.
    """
    relation = params.relation
    epsilon = relation.epsilon
    min_overlap = relation.min_overlap
    allowed_triples = candidate_triples if check_candidates else None
    if parent_patterns is None:
        parent_patterns = entry_prev.patterns
    keep = previous.k + 1 < params.max_pattern_length
    accumulator: dict[tuple, dict | list] = {}
    merged: set[tuple] = set()
    by_granule = verdict_store.setdefault(event, {})
    built = 0
    event_support = hlh1.support_of(event)
    for pattern_prev in parent_patterns:
        prev_events = pattern_prev.events
        prev_triples = pattern_prev.triples
        assignments_at = previous.ghk[pattern_prev]
        k = len(prev_events) + 1
        n_slots = k - 1
        shape_cache: dict[tuple, list] = {}
        # The bulk-zone shapes of this parent pattern are assignment
        # independent: every slot's prefix verdict is the same Follows
        # triple for all realizing assignments, so the spliced identity
        # and the Iterative Check verdict are hoisted out of the
        # per-assignment loop entirely.
        before_partners = tuple(
            intern_triple(FOLLOWS, event, prev_event) for prev_event in prev_events
        )
        after_partners = tuple(
            intern_triple(FOLLOWS, prev_event, event) for prev_event in prev_events
        )
        if allowed_triples is None:
            before_ok = after_ok = True
        else:
            before_ok = all(t in allowed_triples for t in before_partners)
            after_ok = all(t in allowed_triples for t in after_partners)
        prefix_shape = (0, *before_partners)
        suffix_shape = (n_slots, *after_partners)
        prefix_events = (event,) + prev_events
        suffix_events = prev_events + (event,)
        common = previous.support_of(pattern_prev) & event_support
        if granule_filter is not None:
            common = common & granule_filter
        for granule in common:
            record = by_granule.get(granule)
            if record is None:
                record = by_granule.setdefault(
                    granule, _granule_record(hlh1, event, granule)
                )
            new_column, n_new, slots = record
            if n_new == 0:
                continue
            # One (rows, column, before, after) slot per existing event:
            # rows are indexed directly by the encoded instance index of
            # the slot's event (no tuple-key hashing in the
            # per-assignment loop).
            slot_records = []
            for existing_event in prev_events:
                slot = slots.get(existing_event)
                if slot is None:
                    slot = slots.setdefault(
                        existing_event,
                        _slot_record(
                            hlh1, existing_event, event, granule, allowed_triples
                        ),
                    )
                slot_records.append(slot)
            prefix_bucket = None
            suffix_bucket = None
            assignments = assignments_at.get(granule, ())
            if n_slots == 2:
                # k = 3 fast path (the dominant level under the default
                # max_pattern_length): slot loop unrolled, extended
                # tuples built positionally.
                (rows_of_0, column_0, before_0, after_0), (
                    rows_of_1, column_1, before_1, after_1
                ) = slot_records
                event_0, event_1 = prev_events
                for assignment in assignments:
                    index_0, index_1 = assignment
                    row_0 = rows_of_0[index_0]
                    if row_0 is None:
                        row_0 = rows_of_0[index_0] = _verdict_row_array(
                            column_0, event_0, index_0, event, new_column,
                            epsilon, min_overlap, allowed_triples,
                            before_0, after_0,
                        )
                        built += 1
                    row_1 = rows_of_1[index_1]
                    if row_1 is None:
                        row_1 = rows_of_1[index_1] = _verdict_row_array(
                            column_1, event_1, index_1, event, new_column,
                            epsilon, min_overlap, allowed_triples,
                            before_1, after_1,
                        )
                        built += 1
                    head = row_0[1]
                    other = row_1[1]
                    lo = other if other < head else head
                    tail = row_0[2]
                    other = row_1[2]
                    hi = other if other > tail else tail
                    if before_ok and lo:
                        if prefix_bucket is None:
                            prefix_bucket = _resolve_zone_bucket(
                                shape_cache, accumulator, merged, prefix_shape,
                                prefix_events, prev_triples, before_partners,
                                0, k, granule, keep,
                            )
                        if keep:
                            prefix_bucket.update(
                                zip(range(lo), repeat(index_0), repeat(index_1))
                            )
                    if after_ok and hi < n_new:
                        if suffix_bucket is None:
                            suffix_bucket = _resolve_zone_bucket(
                                shape_cache, accumulator, merged, suffix_shape,
                                suffix_events, prev_triples, after_partners,
                                n_slots, k, granule, keep,
                            )
                        if keep:
                            suffix_bucket.update(
                                zip(repeat(index_0), repeat(index_1), range(hi, n_new))
                            )
                    if lo >= hi:
                        continue
                    verdicts_0 = row_0[0]
                    verdicts_1 = row_1[0]
                    for new_index in range(lo, hi):
                        info_0 = verdicts_0[new_index]
                        if info_0 is _NO_RELATION:
                            continue
                        info_1 = verdicts_1[new_index]
                        if info_1 is _NO_RELATION:
                            continue
                        if info_0[0]:
                            position = 2 if info_1[0] else 1
                        else:
                            position = 1 if info_1[0] else 0
                        shape_key = (position, info_0[1], info_1[1])
                        entry = shape_cache.get(shape_key)
                        if entry is None:
                            entry = _shape_entry(
                                shape_cache, accumulator, merged, shape_key,
                                prev_events[:position] + (event,) + prev_events[position:],
                                splice_triples(
                                    prev_triples, (info_0[1], info_1[1]), position, k
                                ),
                                keep,
                            )
                        if entry[1] != granule:
                            _enter_granule(entry, granule, keep)
                        if keep:
                            entry[2].add(
                                (index_0, index_1, new_index)
                                if position == 2
                                else (index_0, new_index, index_1)
                                if position == 1
                                else (new_index, index_0, index_1)
                            )
                continue
            for assignment in assignments:
                rows = []
                lo = n_new
                hi = 0
                for slot in range(n_slots):
                    index = assignment[slot]
                    rows_of, existing_column, before, after = slot_records[slot]
                    row = rows_of[index]
                    if row is None:
                        row = rows_of[index] = _verdict_row_array(
                            existing_column, prev_events[slot], index,
                            event, new_column, epsilon, min_overlap,
                            allowed_triples, before, after,
                        )
                        built += 1
                    rows.append(row)
                    head = row[1]
                    tail = row[2]
                    if head < lo:
                        lo = head
                    if tail > hi:
                        hi = tail
                if before_ok and lo:
                    # Bulk prefix: every new instance before lo is a pure
                    # new -> existing Follows against every slot (one
                    # batch; skipped wholesale when the Iterative Check
                    # discarded any of the Follows triples).
                    if prefix_bucket is None:
                        prefix_bucket = _resolve_zone_bucket(
                            shape_cache, accumulator, merged, prefix_shape,
                            prefix_events, prev_triples, before_partners,
                            0, k, granule, keep,
                        )
                    if keep:
                        prefix_bucket.update(
                            [(new_index,) + assignment for new_index in range(lo)]
                        )
                if after_ok and hi < n_new:
                    # Bulk suffix: every new instance from hi on is a
                    # pure existing -> new Follows against every slot.
                    if suffix_bucket is None:
                        suffix_bucket = _resolve_zone_bucket(
                            shape_cache, accumulator, merged, suffix_shape,
                            suffix_events, prev_triples, after_partners,
                            n_slots, k, granule, keep,
                        )
                    if keep:
                        suffix_bucket.update(
                            [assignment + (new_index,) for new_index in range(hi, n_new)]
                        )
                for new_index in range(lo, hi):
                    position = 0
                    partner: list[Triple] = []
                    valid = True
                    for slot in range(n_slots):
                        info = rows[slot][0][new_index]
                        if info is _NO_RELATION:
                            valid = False
                            break
                        if info[0]:
                            position += 1
                        partner.append(info[1])
                    if not valid:
                        continue
                    shape_key = (position, *partner)
                    entry = shape_cache.get(shape_key)
                    if entry is None:
                        entry = _shape_entry(
                            shape_cache, accumulator, merged, shape_key,
                            prev_events[:position] + (event,) + prev_events[position:],
                            splice_triples(prev_triples, partner, position, k),
                            keep,
                        )
                    if entry[1] != granule:
                        _enter_granule(entry, granule, keep)
                    if keep:
                        entry[2].add(
                            assignment[:position]
                            + (new_index,)
                            + assignment[position:]
                        )
    if metrics.metrics_enabled():
        metrics.inc("kernel.extend.verdict_rows", built)
    pattern_support: dict[TemporalPattern, list[int]] = {}
    pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]] = {}
    for key, store in accumulator.items():
        pattern = intern_pattern(*key)
        if keep:
            pattern_support[pattern] = sorted(store)
            pattern_assignments[pattern] = {
                granule: sorted(assignments)
                for granule, assignments in store.items()
            }
        else:
            pattern_support[pattern] = sorted(set(store)) if key in merged else store
            pattern_assignments[pattern] = {}
    return pattern_support, pattern_assignments
