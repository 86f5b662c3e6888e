"""CSV ingestion for user data.

The expected layout is one column per series with a header row; every row
is one time instant of the fine granularity G (chronological order).  An
optional leading timestamp column is skipped via ``skip_columns``.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.exceptions import DatasetError
from repro.symbolic.series import TimeSeries, first_non_finite


def load_csv_series(
    path: str | Path,
    delimiter: str = ",",
    skip_columns: int = 0,
) -> list[TimeSeries]:
    """Load every column of a CSV file as a :class:`TimeSeries`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such CSV file: {path}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"CSV file {path} is empty") from None
        names = [name.strip() for name in header[skip_columns:]]
        if not names:
            raise DatasetError(f"CSV file {path} has no data columns")
        columns: list[list[float]] = [[] for _ in names]
        for line_number, row in enumerate(reader, start=2):
            values = row[skip_columns:]
            if len(values) != len(names):
                raise DatasetError(
                    f"{path}:{line_number}: expected {len(names)} values, "
                    f"got {len(values)}"
                )
            for index, cell in enumerate(values):
                try:
                    columns[index].append(float(cell))
                except ValueError:
                    raise DatasetError(
                        f"{path}:{line_number}: non-numeric value {cell!r} "
                        f"in column {names[index]!r}"
                    ) from None
    if not columns[0]:
        raise DatasetError(f"CSV file {path} has a header but no rows")
    for name, column in zip(names, columns):
        bad = first_non_finite(column)
        if bad is not None:
            # Data rows start on line 2, after the header.
            raise DatasetError(
                f"{path}:{bad + 2}: non-finite value {column[bad]!r} "
                f"in column {name!r}"
            )
    return [TimeSeries(name, tuple(column)) for name, column in zip(names, columns)]


def save_csv_series(
    series_list: list[TimeSeries],
    path: str | Path,
    delimiter: str = ",",
) -> None:
    """Write series as CSV columns (the inverse of :func:`load_csv_series`)."""
    if not series_list:
        raise DatasetError("nothing to save: empty series list")
    lengths = {len(series) for series in series_list}
    if len(lengths) != 1:
        raise DatasetError(f"series lengths differ: {sorted(lengths)}")
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow([series.name for series in series_list])
        for row in zip(*(series.values for series in series_list)):
            writer.writerow([f"{value:.10g}" for value in row])
