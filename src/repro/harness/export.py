"""CSV export of experiment rows.

Every experiment driver returns a list of flat dataclass rows;
:func:`rows_to_csv` serializes any of them to a CSV file so the figures
can be re-plotted outside Python (gnuplot, spreadsheets, the paper's own
plotting scripts).  The CLI exposes this via ``--csv``.
"""

from __future__ import annotations

import csv
import dataclasses
from typing import Sequence


def _flatten(value: object) -> object:
    """Make a dataclass field CSV-friendly."""
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(_flatten(v)) for v in value)
    return value


def rows_to_csv(rows: Sequence[object], path: str) -> list[str]:
    """Write experiment rows to ``path``; returns the header columns.

    Rows must be dataclass instances of one type.  Tuple-valued fields
    (e.g. Figure 1's utilization series) are semicolon-joined.
    """
    if not rows:
        raise ValueError("no rows to export")
    first = rows[0]
    if not dataclasses.is_dataclass(first):
        raise TypeError(f"rows must be dataclasses, got {type(first).__name__}")
    fields = [f.name for f in dataclasses.fields(first)]
    for row in rows:
        if type(row) is not type(first):
            raise TypeError(
                f"mixed row types: {type(first).__name__} and "
                f"{type(row).__name__}"
            )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow(
                [_flatten(getattr(row, name)) for name in fields]
            )
    return fields


def read_csv_rows(path: str) -> list[dict[str, str]]:
    """Read an exported CSV back as dictionaries (round-trip checks)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
