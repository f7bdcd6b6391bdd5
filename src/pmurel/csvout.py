"""CSV output with reproducible formatting.

Every float is printed with 17 significant digits so values survive a
write/read round trip bit-for-bit; re-running a command with the same
configuration therefore reproduces output files byte-for-byte.
"""

from __future__ import annotations

from pathlib import Path


def fmt(value) -> str:
    if isinstance(value, bool):
        raise TypeError("booleans have no CSV representation here")
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def write_csv(path, header, rows) -> None:
    """Write a CSV file with a fixed header and formatted rows, creating its
    directory if it is missing."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
