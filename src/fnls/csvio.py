"""The one CSV writer of the package.

Every table is written as ``np.savetxt(path, table, fmt="%.17g",
delimiter=",", header=header, comments="# ")`` would write it, byte for
byte, but with one ``%``-format per block of rows instead of one per row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_csv"]

# Rows per %-format, which bounds the tuple and string a block builds.
_BLOCK_ROWS = 4096


def write_csv(path, table: np.ndarray, header: str) -> None:
    """Write the rows of the 2-D ``table`` at 17 significant digits, comma
    separated, under the line ``# header``."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + header + "\n")
        for lo in range(0, table.shape[0], _BLOCK_ROWS):
            block = table[lo:lo + _BLOCK_ROWS]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
