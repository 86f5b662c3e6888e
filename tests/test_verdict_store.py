"""The verdict store shared across step-2.2 extension-kernel calls.

A verdict row depends only on (existing event, instance index, new event,
granule) and on what every call sharing one store has in common, so
sharing a store across calls must change nothing but the work done:

* extending every task of a batch level through one shared store gives
  the outcomes of a fresh store per call, at an inner and at the last
  level, and builds fewer rows;
* the same holds for each of the streaming miner's extension calls,
  which pass ``parent_patterns`` and ``granule_filter``;
* a :class:`~repro.core.stpm.LevelContext` pickles with an empty store.
"""

import dataclasses
import pickle

import pytest

import repro.streaming.incremental as incremental
from repro.core.instance_index import VerdictStore
from repro.core.stpm import ESTPM, LevelContext, mine_extension_task
from repro.datasets.registry import DATASET_BUILDERS
from repro.obs.counters import capture
from repro.streaming import IncrementalSTPM

ROWS = "kernel.extend.verdict_rows"


@pytest.fixture(scope="module")
def small_inf():
    """44 INF granules whose patterns reach k = 4 within a few seconds."""
    dataset = DATASET_BUILDERS["INF"](n_sequences=44, n_series=4)
    return dataset.dseq(), dataset.params(min_season=3, min_density_pct=0.6)


def _extension_levels(dseq, params, monkeypatch) -> list[tuple[list, LevelContext]]:
    """Mine once, recording each extension level's tasks and context."""
    levels = []
    dispatch = ESTPM._dispatch

    def recording(self, fn, tasks, context, *args):
        if fn is mine_extension_task:
            levels.append((list(tasks), context))
        return dispatch(self, fn, tasks, context, *args)

    monkeypatch.setattr(ESTPM, "_dispatch", recording)
    ESTPM(dseq, params).mine()
    monkeypatch.undo()
    return levels


def _outcome_key(outcome):
    """An outcome with its dict orders kept (they fix the result order)."""
    support = None if outcome.support is None else list(outcome.support)
    return (
        outcome.group,
        support,
        list(outcome.pattern_support.items()),
        [
            (pattern, list(by_granule.items()))
            for pattern, by_granule in outcome.pattern_assignments.items()
        ],
    )


def _run_level(tasks, context):
    with capture() as registry:
        outcomes = [mine_extension_task(task, context) for task in tasks]
    return [_outcome_key(outcome) for outcome in outcomes], registry.counters.get(ROWS, 0)


class TestBatchLevelSharing:
    @pytest.mark.parametrize("max_pattern_length", [3, 4])
    def test_shared_store_matches_fresh_store_per_call(
        self, small_inf, monkeypatch, max_pattern_length
    ):
        dseq, params = small_inf
        params = dataclasses.replace(params, max_pattern_length=max_pattern_length)
        levels = _extension_levels(dseq, params, monkeypatch)
        assert len(levels) == max_pattern_length - 2
        for tasks, context in levels:
            # replace() never copies the store: it is not an init field.
            shared = dataclasses.replace(context)
            assert not shared.verdict_store
            shared_outcomes, shared_rows = _run_level(tasks, shared)
            fresh_outcomes = []
            fresh_rows = 0
            for task in tasks:
                outcomes, rows = _run_level([task], dataclasses.replace(context))
                fresh_outcomes.extend(outcomes)
                fresh_rows += rows
            assert shared_outcomes == fresh_outcomes
            assert any(key[2] for key in shared_outcomes), "level mined nothing"
            assert 0 < shared_rows < fresh_rows

    def test_pickled_context_carries_an_empty_store(self, small_inf, monkeypatch):
        dseq, params = small_inf
        (_, context), = _extension_levels(dseq, params, monkeypatch)
        assert context.verdict_store, "mining must have filled the store"
        restored = pickle.loads(pickle.dumps(context))
        assert type(restored.verdict_store) is VerdictStore
        assert restored.verdict_store == {}
        assert restored == context  # the store takes no part in equality
        assert context.verdict_store  # pickling leaves the original alone


class TestStreamingAdvanceSharing:
    def test_each_call_matches_a_fresh_store(self, small_inf, monkeypatch):
        dseq, params = small_inf
        params = dataclasses.replace(params, max_pattern_length=4)
        calls = []
        extend = incremental.array_extend_group_patterns

        def checked_extend(*args, parent_patterns, granule_filter):
            *head, store = args
            with capture() as shared:
                outcome = extend(
                    *head, store,
                    parent_patterns=parent_patterns, granule_filter=granule_filter,
                )
            with capture() as fresh:
                alone = extend(
                    *head, VerdictStore(),
                    parent_patterns=parent_patterns, granule_filter=granule_filter,
                )
            assert outcome == alone
            calls.append(
                (
                    granule_filter is not None,
                    shared.counters.get(ROWS, 0),
                    fresh.counters.get(ROWS, 0),
                )
            )
            return outcome

        monkeypatch.setattr(incremental, "array_extend_group_patterns", checked_extend)
        miner = IncrementalSTPM.empty(dseq.ratio, params)
        for start in range(0, len(dseq), 4):
            miner.advance(dseq.rows[start : start + 4])
        assert miner.state.mirror(4).phk, "the stream must reach k = 4"
        assert any(filtered for filtered, _, _ in calls)
        assert any(not filtered for filtered, _, _ in calls)
        shared_rows = sum(rows for _, rows, _ in calls)
        fresh_rows = sum(rows for _, _, rows in calls)
        assert 0 < shared_rows < fresh_rows
