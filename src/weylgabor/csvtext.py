"""Exact ``%.17g`` CSV text in bulk.

Every CSV artifact of the command line is a block of float64 values in
which each line reads ``",".join("%.17g" % v for v in line) + "\\n"``.
The writers here produce exactly those bytes with numpy and stream them
to the file one block at a time, so the whole text is never held in
memory.  A block holds whole rows, at least one, as many as
``numerics._tile_lines`` fits in the package's one work budget at 121
bytes per value formatted: its 48-byte slot (below), its share of the
block's ``tobytes()`` copy, and its text, at most the 24 characters of
``-d.dddddddddddddddde-XXX`` and a separator.  Only the values a line
formats count: the n axis fields of ``write_pair_rows`` are Python's own
``%.17g`` text, made once per file and copied into every line.  At the
default budget a block holds about 4300 values, and the formatter's
temporaries, about 16 arrays of 8 bytes per value, come on top.

Digits.  For a finite |x| in [1e-280, 1e280] let k = floor(log10|x|),
corrected by one either way so that q = |x|*10^(16-k) lies in
[1e16, 1e17).  Then q is formed as a double-double: 10^p is hi + lo from a
table computed with exact integer arithmetic (hi correctly rounded, lo the
correctly rounded remainder), x*hi = ph + pl exactly by Dekker's
two-product with Veltkamp's split (numpy has no fma), and x*lo is added to
pl.  With |lo| <= 2^-53*hi and the table's own error below 2^-106*hi, and
since q < 2^57, the computed q = ph + t differs from the exact product by
less than 2^-49 (x*lo rounded) + 2^-48 (pl + x*lo rounded, |t| < 2^5) +
2^-49 (table) = 2^-47.  Here ph >= 2^53 is an integer, so the integer part
of q is ph + floor(t) in int64 and its remainder is r = t - floor(t).  The
17 digits round up when r > 1/2, and a carry to 10^17 becomes 10^16 with
k + 1.

Fallback.  Python's own ``"%.17g" % v`` formats, one value at a time, only
the values whose digits are not certain: those with r within 2^-30 of 1/2
(this covers the exact ties, which dtoa rounds half to even) and those
with a magnitude outside [1e-280, 1e280] (subnormals, NaN and infinities
among them).  Exact zeros are formatted in bulk as ``0`` and ``-0``.

Text.  The layout is that of ``%g``: fixed notation for exponents
-4 <= X < 17 (``0.000ddd`` for negative X), otherwise ``d.ddde±XX`` with
at least two exponent digits, and the 17 digits stripped of trailing
zeros.  Each value fills a 48-byte slot of six native-order uint64 words:

    word 0      sign, "0.000", the first digit, its point   bytes 0-7
    words 1-4   16 digits, each followed by its point slot  bytes 8-39
    word 5      "e", exponent sign, three digits, separator bytes 40-45

A value's class is its (sign, layout, digit count).  One ``np.take`` of a
per-class template writes the constant characters, 0xFF where a digit or
exponent character goes and NUL in every byte the value does not use;
six word-wise ANDs with the first-digit words, the 10^4 four-digit words
(digits at even bytes, 0xFF at odd ones) and the exponent words then fill
in the variable characters; a line's last separator becomes a newline.
``bytes.translate(None, b"\\0")`` then deletes the NULs of a whole block
at once, which is sound because the text never holds a NUL: the text of a
finite value is made of ``0123456789.-+e`` alone (the fallback adds the
letters of ``nan`` and ``inf``).

The tables are built on first use, so importing this module computes
nothing.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import numerics

_EXACT_MIN, _EXACT_MAX = 1e-280, 1e280
# k = floor(log10|x|) stays within +-281 on that range; the first guess
# may be one further off, and q = |x|*10^(16-k) needs p = 16 - k
_K_LIMIT = 282
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_WORDS = 6            # uint64 words per value slot (see the module docstring)
_SLOT = 8 * _WORDS
_SEP = 45             # the separator's byte in a slot
# layout classes of the exponent X: fixed X = -4..16, then e-notation
# with two and with three exponent digits
_N_LAYOUT = 23
_VALUE_BYTES = 2 * _SLOT + 25  # a block's bytes per value formatted (above)


class _Tables(NamedTuple):
    pow_hi: np.ndarray      # 10^p correctly rounded, p = 16 - k
    pow_hi_head: np.ndarray  # Veltkamp halves of pow_hi
    pow_hi_tail: np.ndarray
    pow_lo: np.ndarray      # correctly rounded 10^p - pow_hi
    firsts: np.ndarray      # word 0 of each first digit 0..9
    quads: np.ndarray       # a word of four digits: "0000".."9999"
    quad_ends: np.ndarray   # per quad position 1..4 of the 17 digits: the
    #                         count of digits through its last nonzero one
    exponents: np.ndarray   # word 5 of "+XXX"/"-XXX", X from -_K_LIMIT
    layouts: np.ndarray     # 17 * layout class, X from -_K_LIMIT
    templates: np.ndarray   # slot per (sign, layout, digit count)


def _powers_of_ten():
    """hi, lo with hi + lo = 10^p to double-double accuracy, p = 16 - k
    for k = _K_LIMIT down to -_K_LIMIT, from exact integer arithmetic
    (int / int and int -> float round correctly)."""
    hi, lo = [], []
    for p in range(16 - _K_LIMIT, 17 + _K_LIMIT):
        if p >= 0:
            power = 10 ** p
            head = float(power)
            tail = float(power - int(head))
        else:
            power = 10 ** -p
            head = 1 / power
            num, den = head.as_integer_ratio()
            tail = (den - num * power) / (power * den)
        hi.append(head)
        lo.append(tail)
    return np.array(hi), np.array(lo)


def _templates() -> np.ndarray:
    """One slot per class: the constant characters and 0xFF in the bytes
    the value uses, NUL in the others.  class = (sign * _N_LAYOUT +
    layout) * 17 + digit count - 1, with one exponent standing for each
    layout."""
    cls = np.arange(2 * _N_LAYOUT * 17)
    negative = cls >= _N_LAYOUT * 17
    exponent = np.r_[-4:17, 17, 100][cls // 17 % _N_LAYOUT]
    n_digits = cls % 17 + 1
    sci = (exponent < -4) | (exponent >= 17)
    fixed_int = ~sci & (exponent >= 0)
    # digits written, and how many of them precede the decimal point
    shown = np.where(fixed_int, np.maximum(n_digits, exponent + 1), n_digits)
    before = np.where(fixed_int, exponent + 1, np.where(sci, 1, 0))
    prefix = np.where(~sci & (exponent < 0), 1 - exponent, 0)
    every = np.uint8(0xFF)
    slot = np.zeros((len(cls), _SLOT), dtype=np.uint8)
    slot[:, 0] = negative * np.uint8(ord("-"))
    slot[:, 1:6] = ((np.arange(5) < prefix[:, None])
                    * np.frombuffer(b"0.000", dtype=np.uint8))
    slot[:, 6:40:2] = (np.arange(17) < shown[:, None]) * every
    slot[:, 7:38:2] = (((np.arange(1, 17) == before[:, None])
                        & (shown > before)[:, None]) * np.uint8(ord(".")))
    slot[:, 40] = sci * np.uint8(ord("e"))
    slot[:, 41:45] = sci[:, None] * every
    slot[:, 42] &= (np.abs(exponent) >= 100) * every
    slot[:, _SEP] = ord(",")
    return slot.view(np.uint64)


@functools.cache
def _tables() -> _Tables:
    # the templates first: their transients then meet no other table
    templates = _templates()
    hi, lo = _powers_of_ten()
    c = _SPLIT * hi
    head = c - (c - hi)
    # the words are filled as bytes: the 10^4 quads never pass through int64
    firsts = np.full((10, 8), 0xFF, dtype=np.uint8)
    firsts[:, 6] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    q = np.arange(10000, dtype=np.int16)
    quads = np.full((10000, 8), 0xFF, dtype=np.uint8)
    for i, scale in enumerate((1000, 100, 10, 1)):
        quads[:, 2 * i] = q // scale % 10 + ord("0")
    trailing = (q % 10 == 0).astype(np.int16) + (q % 100 == 0) + (q % 1000 == 0)
    end = np.where(q == 0, 0, 5 - trailing)
    # the leading digit is never zero, so at least one digit is shown
    quad_ends = np.stack([np.maximum(end, 1)]
                         + [np.where(q == 0, 0, end + 4 * i) for i in (1, 2, 3)]
                         ).astype(np.int8)
    x = np.arange(-_K_LIMIT, _K_LIMIT + 1)
    layouts = 17 * np.where((x >= -4) & (x < 17), x + 4,
                            np.where(abs(x) < 100, 21, 22))
    exponents = np.full((len(x), 8), 0xFF, dtype=np.uint8)
    exponents[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    exponents[:, 2:5] = abs(x)[:, None] // [100, 10, 1] % 10 + ord("0")
    return _Tables(hi, head, hi - head, lo, firsts.view(np.uint64)[:, 0],
                   quads.view(np.uint64)[:, 0], quad_ends,
                   exponents.view(np.uint64)[:, 0], layouts, templates)


def _scaled(ax, k, tab):
    """Integer part and remainder of ax*10^(16-k) (see the module
    docstring for the error bound)."""
    p = _K_LIMIT - k
    ph = ax * tab.pow_hi[p]
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    hh = tab.pow_hi_head[p]
    hl = tab.pow_hi_tail[p]
    pl = ((ah * hh - ph) + ah * hl + al * hh) + al * hl
    t = pl + ax * tab.pow_lo[p]
    whole = np.floor(t)
    return ph.astype(np.int64) + whole.astype(np.int64), t - whole


def _decimal(ax, tab):
    """17 correctly rounded significant digits of each ax in the exact
    range as an int64 in [1e16, 1e17), the decimal exponent, and a mask of
    the values too near a rounding tie to decide."""
    k = np.floor(np.log10(ax)).astype(np.int64)
    whole, rem = _scaled(ax, k, tab)
    off = (whole < 10 ** 16) | (whole >= 10 ** 17)
    uncertain = np.abs(rem - 0.5) < 2.0 ** -30
    if off.any():
        idx = np.flatnonzero(off)
        k[idx] += np.where(whole[idx] < 10 ** 16, -1, 1)
        w, r = _scaled(ax[idx], k[idx], tab)
        whole[idx], rem[idx] = w, r
        uncertain[idx] = ((np.abs(r - 0.5) < 2.0 ** -30)
                          | (w < 10 ** 16) | (w >= 10 ** 17))
    digits = whole + (rem > 0.5)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    return digits, k + carry, uncertain


def _format(values, slots) -> None:
    """Fill slots (uint64, of shape values.shape + (_WORDS,)) with the
    ``%.17g`` text of the float64 values, NUL-padded, each followed by a
    ',' separator."""
    tab = _tables()
    shape = values.shape
    values = values.reshape(-1)
    ax = np.abs(values)
    exact = (ax >= _EXACT_MIN) & (ax <= _EXACT_MAX)
    digits, exponent, fallback = _decimal(np.where(exact, ax, 1.0), tab)
    # zeros and the fallback values print from digits 0, exponent 0
    digits[~exact] = 0
    exponent[~exact] = 0
    exponent += _K_LIMIT
    fallback |= ~exact & (ax != 0)
    # floor division by a scalar takes numpy's fast path, np.divmod does not
    high = digits // 10 ** 8
    low = digits - high * 10 ** 8
    top = high // 10 ** 4
    q2 = high - top * 10 ** 4
    d0 = top // 10 ** 4
    q1 = top - d0 * 10 ** 4
    q3 = low // 10 ** 4
    q4 = low - q3 * 10 ** 4
    ends = tab.quad_ends
    n_digits = np.maximum(np.maximum(ends[0][q1], ends[1][q2]),
                          np.maximum(ends[2][q3], ends[3][q4]))
    cls = (tab.layouts[exponent] + (n_digits - 1)
           + np.signbit(values) * (17 * _N_LAYOUT))
    np.take(tab.templates, cls.reshape(shape), axis=0, out=slots, mode="clip")
    # digits and exponent over the template's 0xFF bytes; each table word
    # holds 0xFF in the bytes it leaves to the template
    for word, (table, index) in enumerate((
            (tab.firsts, d0), (tab.quads, q1), (tab.quads, q2),
            (tab.quads, q3), (tab.quads, q4), (tab.exponents, exponent))):
        slots[..., word] &= table.take(index).reshape(shape)
    for i in np.flatnonzero(fallback):
        text = np.frombuffer(b"%.17g" % values[i], dtype=np.uint8)
        slot = slots[np.unravel_index(i, shape)].view(np.uint8)
        slot[:_SEP] = 0
        slot[:len(text)] = text


def _write_text(fh, slots) -> None:
    """Write the bytes of the filled slots to fh with every NUL deleted."""
    fh.write(slots.tobytes().translate(None, b"\0"))


def _packed(values) -> np.ndarray:
    """Python's own ``"%.17g,"`` of each value, NUL-padded to as few whole
    words as the longest needs: (len(values), words)."""
    text = np.array([b"%.17g," % v for v in values.tolist()])
    width = -(-text.itemsize // 8)
    return text.astype("S%d" % (8 * width)).view(np.uint64).reshape(-1, width)


def write_rows(fh, values) -> None:
    """Write one line per row of the 2-D float block to the binary file
    fh: ``",".join("%.17g" % v for v in row) + "\\n"``."""
    values = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    step = numerics._tile_lines(n_cols * _VALUE_BYTES)
    slots = np.empty((min(step, n_rows), n_cols, _WORDS), dtype=np.uint64)
    raw = slots.view(np.uint8)
    for start in range(0, n_rows, step):
        block = values[start:start + step]
        m = len(block)
        _format(block, slots[:m])
        raw[:m, -1, _SEP] = ord("\n")
        _write_text(fh, slots[:m])


def write_pair_rows(fh, axis, values) -> None:
    """Write one line per pair (i, j), i major, to the binary file fh:
    ``axis[i], axis[j], values[i, j, 0], ..., values[i, j, c - 1]``, all
    as ``%.17g``, for an (n, n, c) float block.  A block of whole rows i
    is formatted at a time, in a buffer of words laid out as (rows, n,
    line).  The axis text is Python's own, made once and padded to whole
    words, which are laid into the t_j field of every buffered row once;
    per block only the t_i words are broadcast along the row."""
    axis = np.asarray(axis, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n, _, c = values.shape
    fields = _packed(axis)
    width = fields.shape[1]
    step = numerics._tile_lines(n * c * _VALUE_BYTES)
    rows = min(step, n)
    lines = np.empty((rows, n, 2 * width + _WORDS * c), dtype=np.uint64)
    lines[:, :, width:2 * width] = fields
    raw = lines.view(np.uint8)
    # formatted in a slot block of their own, where every word pass is
    # contiguous, and copied into the lines whole
    slots = np.empty((rows, n, c, _WORDS), dtype=np.uint64)
    for start in range(0, n, step):
        block = values[start:start + step]
        m = len(block)
        lines[:m, :, :width] = fields[start:start + m, None]
        _format(block, slots[:m])
        lines[:m, :, 2 * width:] = slots[:m].reshape(m, n, c * _WORDS)
        raw[:m, :, _SEP - _SLOT] = ord("\n")
        _write_text(fh, lines[:m])
