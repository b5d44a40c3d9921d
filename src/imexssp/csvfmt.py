"""The one number format of every CSV artifact: 12 significant digits.

``FLOAT`` is the %-conversion for a float; it prints exactly what
``f"{x:.12g}"`` prints (nan, inf and -0 included). ``format_rows`` and
``fill`` format a whole table with a single C-level ``%`` call, so no Python
code runs per cell.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FLOAT", "fmt", "fill", "format_rows"]

FLOAT = "%.12g"


def fmt(x) -> str:
    """One float in the CSV number format."""
    return FLOAT % x


def fill(template: str, *columns) -> str:
    """Fill the %-slots of ``template`` with the equal-length columns' values,
    read row by row (first row of every column, then the second row, ...).

    The columns are stacked as float64, so a ``%d`` slot prints a 0/1 flag.
    Literal text in the template writes a percent sign as ``%%``.
    """
    return template % tuple(np.column_stack(columns).ravel().tolist())


def format_rows(row: str, *columns) -> str:
    """One copy of the one-row %-template ``row`` per row of the columns,
    e.g. ``format_rows("%.12g,%.12g,%d\\n", x, y, flag)``."""
    return fill(row * len(columns[0]), *columns)
