"""CSV writing/reading with a provenance comment line.

All floats are rendered with 17 significant digits so values round-trip
exactly; files use '\n' endings and no timestamps, making byte-identical
output reproducible for identical inputs.

Two writers share one format.  A table given as a 2-D numpy array is all
numbers: it is streamed in blocks of ``BLOCK_ROWS`` rows, each rendered by
one ``%`` of a ``%.17g`` row template, which gives the same bytes as
``format_value`` (``"%.17g" % v == f"{v:.17g}"`` for every float, and
``"%.17g" % float(n) == str(n)`` for integers below 1e17).  Any other
table is a sequence of rows or dicts whose cells may be None, bool or
strings, written cell by cell through ``format_value``.
"""

from __future__ import annotations

import csv

import numpy as np

BLOCK_ROWS = 4096


def format_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path, fieldnames, rows, provenance=""):
    with open(path, "w", newline="") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        if isinstance(rows, np.ndarray):
            _write_numeric(fh, rows)
            return
        for row in rows:
            if isinstance(row, dict):
                writer.writerow([format_value(row.get(k)) for k in fieldnames])
            else:
                writer.writerow([format_value(v) for v in row])


def _write_numeric(fh, table):
    """Write a 2-D float array as rows of %.17g cells."""
    template = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, table.shape[0], BLOCK_ROWS):
        block = table[start:start + BLOCK_ROWS]
        fh.write(template * block.shape[0] % tuple(block.ravel().tolist()))


def read_csv(path):
    """Returns (provenance, fieldnames, rows); rows are dicts of strings."""
    with open(path, newline="") as fh:
        provenance = ""
        first = fh.readline()
        if first.startswith("#"):
            provenance = first[1:].strip()
            first = fh.readline()
        fieldnames = next(csv.reader([first]))
        rows = [dict(zip(fieldnames, rec)) for rec in csv.reader(fh)]
    return provenance, fieldnames, rows
