"""CSV writing/reading with a provenance comment line.

All floats are rendered with 17 significant digits so values round-trip
exactly; files use '\n' endings and no timestamps, making byte-identical
output reproducible for identical inputs.

Two writers share one format.  A table given as a 2-D numpy array, or as
a ``BlockTable`` that yields its rows block by block, is all numbers: an
array is streamed in blocks of ``BLOCK_ROWS`` rows, a ``BlockTable`` in
its own blocks, so it is never held whole, and each block is encoded by
numpy into the bytes ``"%.17g" % v`` gives for every cell, which are the
bytes of ``format_value`` (``"%.17g" % v == f"{v:.17g}"`` for every
float, and ``"%.17g" % float(n) == str(n)`` for integers below 1e17).
Any other table is a sequence of rows or dicts whose cells may be None,
bool or strings, written cell by cell through ``format_value``.

Why the block encoder is exact.  A finite cell x with 1e-4 <= |x| < 1e16
is printed by ``%.17g`` in fixed notation: with k = floor(log10 |x|) in
[-4, 15] and s = 16 - k, its digits are the 17-digit integer
d = round(|x| 10^s), ties to even, unless that rounding carries into
10^17.  The encoder computes d without error:

- 10^s is an exact double for s <= 22, since 5^22 < 2^53;
- Dekker's TwoProduct splits |x| 10^s into hi + lo exactly (hi the
  rounded product, lo its error).  This needs round-to-nearest and no
  contraction of a multiply and an add into one fused operation, which
  separate numpy ufunc calls guarantee;
- when hi + lo >= 1e16 > 2^53, hi is an even integer, so hi + rint(lo)
  with ``rint`` rounding ties to even is d;
- k is estimated by ``log10`` and corrected once.  A cell is accepted only
  when 1e16 <= hi + lo (compared exactly) and d < 1e17, which makes k the
  true exponent and rules out a carry.  Testing hi alone is not enough:
  for x = 0.09999999999999999 and s = 17, hi rounds up to 1e16 while
  hi + lo < 1e16, and the digits would come out one short.

Every other cell is formatted by ``%.17g`` itself, cell by cell: zeros of
either sign, nan, inf, subnormals, every value printed in exponent
notation, and any cell the exponent test rejects.
"""

from __future__ import annotations

import csv

import numpy as np

BLOCK_ROWS = 1024

# One cell is laid out in a slot of _SLOT bytes: sign, the "0.000" lead of
# values below 1, 17 digits with one point among them, and the separator.
# NUL bytes fill what a cell does not use and are deleted at the end.  The
# slot also holds the 24 characters of the longest %.17g text, such as
# "-2.2250738585072014e-308".
_SLOT = 25
_BODY = 6
_POW10 = np.array([float(10**s) for s in range(21)])
_SPLITTER = float(2**27 + 1)


def format_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


class BlockTable:
    """A numeric table of ``n_rows`` rows that exists one block at a time:
    the iterator ``blocks``, consumed by one write, yields its rows in
    order as 2-D float arrays of any number of rows.  ``len`` is the row
    count, as for the array it stands in for."""

    def __init__(self, n_rows, blocks):
        self.n_rows = n_rows
        self.blocks = blocks

    def __len__(self):
        return self.n_rows


def write_csv(path, fieldnames, rows, provenance=""):
    with open(path, "w", newline="") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        if isinstance(rows, (np.ndarray, BlockTable)):
            _write_numeric(fh, rows)
            return
        for row in rows:
            if isinstance(row, dict):
                writer.writerow([format_value(row.get(k)) for k in fieldnames])
            else:
                writer.writerow([format_value(v) for v in row])


def _write_numeric(fh, table):
    """Write a 2-D array, in blocks of ``BLOCK_ROWS`` rows, or the blocks of
    a ``BlockTable`` as rows of %.17g cells, one block at a time."""
    fh.flush()
    blocks = table.blocks if isinstance(table, BlockTable) else (
        table[start:start + BLOCK_ROWS] for start in range(0, len(table), BLOCK_ROWS))
    for block in blocks:
        fh.buffer.write(_encode_block(block))


def _split(v):
    """Veltkamp's split of v into a 26-bit head and the exact rest."""
    c = v * _SPLITTER
    head = c - (c - v)
    return head, v - head


_POW10_HEAD, _POW10_TAIL = _split(_POW10)


def _scaled(a, s):
    """d = round(a 10^s), ties to even, and whether a 10^s < 1e16 exactly.

    d is exact whenever a 10^s >= 1e16 (see the module docstring).
    """
    hi = a * np.take(_POW10, s)
    a_head, a_tail = _split(a)
    p_head, p_tail = np.take(_POW10_HEAD, s), np.take(_POW10_TAIL, s)
    lo = a_tail * p_tail - (((hi - a_head * p_head) - a_tail * p_head) - a_head * p_tail)
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    # hi - 1e16 is exact for hi in [5e15, 2e16] and far larger than |lo|
    # outside it, so the sum has the sign of hi + lo - 1e16.
    return d, (hi - 1e16) + lo < 0


def _ascii8(v):
    """The 8 decimal digits of each v < 10^8, one per byte of a uint64,
    the leading digit in the lowest byte.

    v is split into 4-digit halves in 32-bit lanes, each lane into 2-digit
    halves in 16-bit lanes, then into digits in bytes.  Within a lane,
    (x * 10486) >> 20 equals x // 100 for x < 10^4 and (x * 103) >> 10
    equals x // 10 for x < 100, and no lane's product reaches the next lane.
    """
    hi = v // 10000
    x = hi | ((v - hi * 10000) << 32)
    q = ((x * 10486) >> 20) & 0x0000007F0000007F
    x = q | ((x - q * 100) << 16)
    q = ((x * 103) >> 10) & 0x000F000F000F000F
    return q | ((x - q * 10) << 8)


def _layouts():
    """Byte masks of a slot for every exponent k, trailing-zero count tz
    and sign: the bytes taken from the digits in place (integer part, or
    all digits when k < 0), those taken from the digits shifted one byte
    right (fraction part, after the point), and the literal bytes (sign,
    lead and point).  Trailing zeros of the fraction, and the point when
    no fraction digit is left, are NUL.
    """
    k = np.arange(-4, 16)[:, None, None, None]
    tz = np.arange(17)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    c = np.arange(_SLOT)
    frac = (k >= 0) & (tz < 16 - k)
    left = (c >= _BODY) & (c <= _BODY + np.where(k < 0, 16 - tz, k))
    right = frac & (c >= _BODY + k + 2) & (c <= _BODY + 17 - tz)
    lead = (k < 0) & (c >= 1) & (c <= 1 - k)
    literal = (np.where(c == 0, 45 * neg, 0) + np.where(frac & (c == _BODY + k + 1), 46, 0)
               + np.where(lead, np.where(c == 2, 46, 48), 0))
    slot = np.dtype((np.void, _SLOT))
    shape = (20, 17, 2, _SLOT)
    return [np.ascontiguousarray(np.broadcast_to(m, shape), np.uint8)
            .reshape(-1, _SLOT).view(slot).ravel()
            for m in (left * 255, right * 255, literal)]


_LEFT, _RIGHT, _LITERAL = _layouts()


def _encode_block(block):
    """The bytes of ``block`` as CSV rows of %.17g cells."""
    x = np.asarray(block, dtype=np.float64)
    rows, cols = x.shape
    if x.size == 0:
        return b"\n" * rows
    x = x.ravel()
    fast, s, d = _fixed_point(x)
    out = _lay_out(s, d, x < 0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%-24.17g" * slow.size) % tuple(x[slow].tolist())
        chars = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
        out[slow, :24] = chars * (chars != 32)
    out = out.reshape(rows, cols, _SLOT)
    out[:, :, -1] = 44
    out[:, -1, -1] = 10
    return out.tobytes().translate(None, b"\0")


def _fixed_point(x):
    """The cells the encoder formats itself, and their s and digits d.

    A cell the corrected exponent still fails (a rounding carry into 1e17,
    which no double in the range reaches) is left to the fallback.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    np.clip(s, 1, 20, out=s)
    d, below = _scaled(a, s)
    fix = np.flatnonzero(below | (d >= 10**17))
    if fix.size:
        s[fix] = np.clip(s[fix] + np.where(below[fix], 1, -1), 1, 20)
        d[fix], below_fix = _scaled(a[fix], s[fix])
        fast[fix[below_fix | (d[fix] >= 10**17)]] = False
    return fast, s, d


def _lay_out(s, d, negative):
    """The (n, _SLOT) text of cells with digits d and exponent 16 - s."""
    n = d.size
    # d = lead * 10^16 + words[0] * 10^8 + words[1]
    lead = d // 10**16
    rest = d - lead * 10**16
    high = rest // 10**8
    words = np.empty((2, n), np.uint64)
    words[0] = high
    words[1] = rest - high * 10**8
    words = _ascii8(words)
    # Count trailing zero digits: smear each nonzero byte into the lower
    # bytes, then count the bytes up to the last nonzero digit.
    nz = words | (words >> 8)
    nz |= nz >> 16
    nz |= nz >> 32
    nz += 0x7F7F7F7F7F7F7F7F
    nz &= 0x8080808080808080
    kept = np.bitwise_count(nz)
    tz = 8 - kept[1]
    tz += (kept[1] == 0) * (8 - kept[0])
    words |= 0x3030303030303030

    # The digits sit at columns _BODY.._BODY+16 of an (n, _SLOT) array that
    # starts one byte into buf, so buf[:-1] is that array shifted right.
    # Each word is stored little-endian, its lowest byte first.
    buf = np.zeros(n * _SLOT + 1, np.uint8)
    np.add(lead, 48, out=buf[1 + _BODY::_SLOT], casting="unsafe")
    for i in range(2):
        np.ndarray((n,), "<u8", buf, 2 + _BODY + 8 * i, (_SLOT,))[:] = words[i]
    code = ((20 - s) * 17 + tz) * 2 + negative
    out = np.take(_LEFT, code).view(np.uint8)
    out &= buf[1:]
    right = np.take(_RIGHT, code).view(np.uint8)
    right &= buf[:-1]
    out |= right
    out |= np.take(_LITERAL, code).view(np.uint8)
    return out.reshape(n, _SLOT)


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
