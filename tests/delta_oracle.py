"""The streaming delta oracle: what one advance must report.

``delta.promoted`` must be exactly the patterns frequent after the advance
and not before, and ``delta.updated`` the patterns frequent before and
after whose :class:`~repro.core.seasonality.SeasonView` changed -- both
read off the diff of ``result().seasonal_map()`` around the advance.
Append-only streams never demote a pattern.
"""


def advance_checked(miner, rows, before):
    """Advance ``miner`` by ``rows`` and check its delta against the
    result diff.

    ``before`` is the seasonal map of the result before the advance
    (empty for a fresh miner).  Returns the delta and the map after it,
    which is the next call's ``before``.
    """
    delta = miner.advance(rows)
    after = miner.result().seasonal_map()
    promoted = {p: view for p, view in after.items() if p not in before}
    updated = {
        p: view for p, view in after.items() if p in before and before[p] != view
    }
    reported_promoted = {sp.pattern: sp.seasons for sp in delta.promoted}
    reported_updated = {sp.pattern: sp.seasons for sp in delta.updated}
    assert len(reported_promoted) == len(delta.promoted), "duplicate promotion"
    assert len(reported_updated) == len(delta.updated), "duplicate update"
    assert reported_promoted == promoted, (
        f"granule {delta.n_granules}: promoted "
        f"{sorted(p.describe() for p in reported_promoted.keys() ^ promoted.keys())}"
    )
    assert reported_updated == updated, (
        f"granule {delta.n_granules}: updated "
        f"{sorted(p.describe() for p in reported_updated.keys() ^ updated.keys())}"
    )
    assert not delta.demoted and before.keys() <= after.keys()
    return delta, after
