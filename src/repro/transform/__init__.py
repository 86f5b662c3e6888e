"""Phase 1 of FreqSTPfTS: data transformation (paper Sec. IV-A).

Converts a symbolic database ``DSYB`` at the fine granularity G into a
temporal sequence database ``DSEQ`` at a coarser granularity H via the
sequence mapping ``g: XS ->m H`` (paper Defs. 3.9-3.11, Table IV).
"""

from repro.transform.sequence_db import (
    TemporalSequenceDatabase,
    build_sequence_database,
)

__all__ = [
    "TemporalSequenceDatabase",
    "build_sequence_database",
]
