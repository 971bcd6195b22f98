"""The one CSV writer of the package.

Every table is written as ``np.savetxt(path, table, fmt="%.17g",
delimiter=",", header=header, comments="# ")`` would write it, byte for
byte, but with one ``%``-format per block of rows instead of one per row.
A table is an x column and its value columns, and the x column of a table
on an (x, t) grid repeats the same few values, so :func:`write_grid` takes
it formatted once (:func:`formatted`), with each t value formatted once per
slice, and writes them again as they are.
"""

from __future__ import annotations

import numpy as np

__all__ = ["formatted", "write_grid"]

# Rows per %-format, which bounds the tuple and string a block builds.
_BLOCK_ROWS = 4096


def formatted(values) -> list[str]:
    """An x column formatted once for :func:`write_grid`: its values at
    17 significant digits, one per line, in one string per block of
    ``_BLOCK_ROWS``."""
    values = np.ravel(values).tolist()
    return ["\n".join(["%.17g"] * len(block)) % tuple(block)
            for block in (values[lo:lo + _BLOCK_ROWS]
                          for lo in range(0, len(values), _BLOCK_ROWS))]


def write_grid(path, table: np.ndarray, header: str, x: list[str], times=None) -> None:
    """Write the values ``table[i, j]`` at time ``i`` and point ``j`` as the
    rows ``(t_i, x_j, *table[i, j])``, t slowest, at 17 significant digits,
    comma separated, under the line ``# header``.  ``x`` is the x column as
    :func:`formatted` gives it; without ``times`` the table is one slice,
    ``(n_x, k)``, and its rows have no t column."""
    cells = ",%.17g" * table.shape[-1] + "\n"
    slices = [("", table)] if times is None else [
        ("%.17g," % t, v) for t, v in zip(np.ravel(times).tolist(), table)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + header + "\n")
        for lead, values in slices:
            for lo, column in zip(range(0, len(values), _BLOCK_ROWS), x):
                line = lead + column.replace("\n", cells + lead) + cells
                fh.write(line % tuple(values[lo:lo + _BLOCK_ROWS].ravel().tolist()))
