"""Test oracle for the DSEQ front end (paper Defs. 3.9-3.11).

The sequence mapping written the obvious way: cut every series into
``ratio``-symbol blocks and run-group each block on its own (runs never
span granule boundaries, Def. 3.10).  The columnar builder
(:func:`repro.build_sequence_database`) and the streaming row builder
must produce exactly these rows; the front-end tests compare them.

:func:`support_dsyb` goes the other way, for the tests of the
whole-level support steps: a DSYB whose events have given supports.
:func:`each_backend` runs a check under both compute backends, for
tests that compare the twins inside one test.
"""

from __future__ import annotations

from repro.core.config import set_compute_backend
from repro.events.event import EventInstance
from repro.events.sequence import TemporalSequence
from repro.symbolic.database import SymbolicDatabase
from repro.transform.sequence_db import TemporalSequenceDatabase


def granule_instances(name: str, block, offset: int) -> list[EventInstance]:
    """Event instances of one series' symbol block.

    ``offset`` is the 0-based global position of the block's first
    symbol; intervals use global 1-based fine-granule positions.
    """
    instances: list[EventInstance] = []
    run_symbol = block[0]
    run_start = offset + 1
    for index in range(1, len(block)):
        if block[index] != run_symbol:
            instances.append(
                EventInstance(f"{name}:{run_symbol}", run_start, offset + index)
            )
            run_symbol = block[index]
            run_start = offset + index + 1
    instances.append(
        EventInstance(f"{name}:{run_symbol}", run_start, offset + len(block))
    )
    return instances


def oracle_dseq(dsyb: SymbolicDatabase, ratio: int) -> TemporalSequenceDatabase:
    """DSEQ built granule by granule; a trailing partial block is dropped."""
    rows: list[TemporalSequence] = []
    for index in range(dsyb.n_instants // ratio):
        start = index * ratio
        sequence = TemporalSequence(position=index + 1)
        for series in dsyb:
            sequence.instances.extend(
                granule_instances(
                    series.name, series.symbols[start : start + ratio], start
                )
            )
        rows.append(sequence.finalize())
    return TemporalSequenceDatabase(rows=rows, ratio=ratio, source_names=dsyb.names)


def support_dsyb(supports: dict[str, list[int]], n_granules: int) -> SymbolicDatabase:
    """A DSYB of ``n_granules`` instants in which, at ratio 1, event
    ``name:1`` occurs at exactly the positions ``supports[name]`` and
    ``name:0`` at every other granule.  ``build_sequence_database`` runs
    the numpy builder on it when ``n_granules`` reaches
    ``_NUMPY_MIN_SYMBOLS`` and the numpy backend is on."""
    rows = {}
    for name, positions in supports.items():
        row = ["0"] * n_granules
        for position in positions:
            row[position - 1] = "1"
        rows[name] = "".join(row)
    return SymbolicDatabase.from_rows(rows)


def each_backend(check) -> None:
    """Run ``check()`` under the numpy backend, then the pure-Python one."""
    for backend in (None, "python"):
        set_compute_backend(backend)
        try:
            check()
        finally:
            set_compute_backend(None)
