"""Exact ``%.17g`` CSV text in bulk.

Every CSV artifact of the command line is a block of float64 values in
which each line reads ``",".join("%.17g" % v for v in line) + "\\n"``.
The writers here produce exactly those bytes with numpy and stream them
to the file one block at a time, so the whole text is never held in
memory.  A block of ``write_rows`` holds the whole rows that fit in
4096 values, and at least one row; one of ``write_pair_rows`` holds whole
rows i of the pair block, as many as fit in 4096 values, and at least
one.  A block of 4096 values needs about 1 MiB of buffers; fewer values
per block cost more per-block overhead, and more raise the writers'
peak memory in step.

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

Text.  The 17 digits come from a table of all 4-digit strings and are
stripped of trailing zeros.  The layout is that of ``%g``: fixed notation
for exponents -4 <= X < 17 (``0.000ddd`` for negative X), otherwise
``d.ddde±XX`` with at least two exponent digits.  Each value fills one
row of a fixed-width uint8 buffer whose slots hold every character it
could need, and a boolean keep-mask per layout class selects the ones it
uses; compacting the buffer row-major under the mask gives the bytes.

The tables are built on first use, so importing this module computes
nothing.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_EXACT_MIN, _EXACT_MAX = 1e-280, 1e280
# k = floor(log10|x|) stays within +-281 on that range; the first guess
# may be one further off, and q = |x|*10^(16-k) needs p = 16 - k
_K_LIMIT = 282
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# field slots: 0 sign, 1-5 "0.000", 6-38 the 17 digits at even offsets
# with a '.' after each of the first 16, 39-43 "e+XXX", 44 separator
_TEXT = b"-0.000" + b"0." * 16 + b"0" + b"e+000"
_WIDTH = len(_TEXT) + 1
# layout classes of the exponent X: fixed X = -4..16, then e-notation
# with two and with three exponent digits
_N_LAYOUT = 23
_CHUNK = 4096  # fields per block; a pair block is at least one whole row


class _Tables(NamedTuple):
    pow_hi: np.ndarray      # 10^p correctly rounded, p = 16 - k
    pow_hi_head: np.ndarray  # Veltkamp halves of pow_hi
    pow_hi_tail: np.ndarray
    pow_lo: np.ndarray      # correctly rounded 10^p - pow_hi
    quads: np.ndarray       # uint32 view of "0000".."9999"
    quad_ends: np.ndarray   # per quad position 1..4 of the 17 digits: the
    #                         count of digits through its last nonzero one
    exponents: np.ndarray   # uint32 view of "+XXX"/"-XXX", X from -_K_LIMIT
    layouts: np.ndarray     # 17 * layout class, X from -_K_LIMIT
    masks: np.ndarray       # keep-mask per (sign, layout, digit count)


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


def _keep_masks(negative, exponent, n_digits):
    """Slots a value uses, from its sign, decimal exponent and count of
    digits after stripping trailing zeros."""
    sci = (exponent < -4) | (exponent >= 17)
    fixed_int = ~sci & (exponent >= 0)
    # digits written, and how many of them precede the decimal point
    shown = np.where(fixed_int, np.maximum(n_digits, exponent + 1), n_digits)
    before = np.where(fixed_int, exponent + 1, np.where(sci, 1, 0))
    prefix = np.where(~sci & (exponent < 0), 1 - exponent, 0)
    keep = np.zeros((len(negative), _WIDTH), dtype=bool)
    keep[:, 0] = negative
    keep[:, 1:6] = np.arange(5) < prefix[:, None]
    keep[:, 6:39:2] = np.arange(17) < shown[:, None]
    keep[:, 7:38:2] = ((np.arange(1, 17) == before[:, None])
                       & (shown > before)[:, None])
    keep[:, 39:41] = sci[:, None]
    keep[:, 41] = sci & (np.abs(exponent) >= 100)
    keep[:, 42:44] = sci[:, None]
    keep[:, 44] = True
    return keep


@functools.cache
def _tables() -> _Tables:
    hi, lo = _powers_of_ten()
    c = _SPLIT * hi
    head = c - (c - hi)
    q = np.arange(10000, dtype=np.int16)
    quads = (q[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
             + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
    trailing = (q % 10 == 0).astype(np.int16) + (q % 100 == 0) + (q % 1000 == 0)
    end = np.where(q == 0, 0, 5 - trailing)
    # the leading digit is never zero, so at least one digit is shown
    quad_ends = np.stack([np.maximum(end, 1)]
                         + [np.where(q == 0, 0, end + 4 * i) for i in (1, 2, 3)]
                         ).astype(np.int8)
    x = np.arange(-_K_LIMIT, _K_LIMIT + 1)
    layouts = 17 * np.where((x >= -4) & (x < 17), x + 4,
                            np.where(abs(x) < 100, 21, 22))
    exp_text = np.column_stack((np.where(x < 0, ord("-"), ord("+")),
                                abs(x)[:, None] // [100, 10, 1] % 10 + ord("0")))
    exponents = exp_text.astype(np.uint8).view(np.uint32)[:, 0]
    # class = (sign * _N_LAYOUT + layout) * 17 + digit count - 1, with one
    # exponent standing for each layout
    cls = np.arange(2 * _N_LAYOUT * 17)
    masks = _keep_masks(cls >= _N_LAYOUT * 17,
                        np.r_[-4:17, 17, 100][cls // 17 % _N_LAYOUT],
                        cls % 17 + 1)
    return _Tables(hi, head, hi - head, lo, quads, quad_ends, exponents,
                   layouts, masks)


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


def _format(values, buf, keep) -> None:
    """Fill buf (uint8) and keep (bool), each of shape values.shape +
    (_WIDTH,), with the ``%.17g`` text of the float64 values; the
    separator slots are left as they are."""
    tab = _tables()
    shape = values.shape
    values = values.reshape(-1)
    ax = np.abs(values)
    exact = (ax >= _EXACT_MIN) & (ax <= _EXACT_MAX)
    digits, exponent, fallback = _decimal(np.where(exact, ax, 1.0), tab)
    # zeros and the fallback values print from digits 0, exponent 0
    digits[~exact] = 0
    exponent[~exact] = 0
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
    words = np.empty((len(values), 5), dtype=np.uint32)
    for col, quad in enumerate((d0, q1, q2, q3, q4)):
        words[:, col] = tab.quads[quad]
    buf[..., :_WIDTH - 1] = np.frombuffer(_TEXT, dtype=np.uint8)
    buf[..., 6:39:2] = words.view(np.uint8)[:, 3:].reshape(shape + (17,))
    buf[..., 40:44] = tab.exponents[exponent + _K_LIMIT].view(
        np.uint8).reshape(shape + (4,))
    ends = tab.quad_ends
    n_digits = np.maximum(np.maximum(ends[0, q1], ends[1, q2]),
                          np.maximum(ends[2, q3], ends[3, q4]))
    cls = (tab.layouts[exponent + _K_LIMIT] + (n_digits - 1)
           + np.signbit(values) * (17 * _N_LAYOUT))
    np.take(tab.masks, cls.reshape(shape), axis=0, out=keep, mode="clip")
    for i in np.flatnonzero(fallback):
        text = _fallback_text(values[i])
        at = np.unravel_index(i, shape)
        buf[at][:len(text)] = text
        keep[at][:_WIDTH - 1] = False
        keep[at][:len(text)] = True


def _fallback_text(value) -> np.ndarray:
    """Python's own ``%.17g`` of one value whose digits are not certain."""
    return np.frombuffer(b"%.17g" % value, dtype=np.uint8)


def _lines(*shape):
    """Reusable text and keep buffers for lines of shape[-1] fields, laid
    out over shape, with the separators in place."""
    buf = np.empty(shape + (_WIDTH,), dtype=np.uint8)
    buf[..., -1] = ord(",")
    buf[..., -1, -1] = ord("\n")
    return buf, np.empty(buf.shape, dtype=bool)


def _emit(fh, buf, keep) -> None:
    fh.write(np.compress(keep.reshape(-1), buf.reshape(-1)).tobytes())


def write_rows(fh, values) -> None:
    """Write one line per row of the 2-D float block to the binary file
    fh: ``",".join("%.17g" % v for v in row) + "\\n"``."""
    values = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    step = max(1, _CHUNK // n_cols)
    buf, keep = _lines(min(step, n_rows), n_cols)
    for start in range(0, n_rows, step):
        block = values[start:start + step]
        m = len(block)
        _format(block, buf[:m], keep[:m])
        _emit(fh, buf[:m], keep[:m])


def write_pair_rows(fh, axis, values) -> None:
    """Write one line per pair (i, j), i major, to the binary file fh:
    ``axis[i], axis[j], values[i, j, 0], ..., values[i, j, c - 1]``, all
    as ``%.17g``, for an (n, n, c) float block.  A block of whole rows i
    is formatted at a time, in a buffer laid out as (rows, n, 2 + c,
    _WIDTH).  The axis is formatted once, its text laid into the t_j field
    of every buffered row once, and per block only the t_i field is
    broadcast along the row."""
    axis = np.asarray(axis, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n, _, c = values.shape
    axis_buf = np.empty((n, _WIDTH), dtype=np.uint8)
    axis_keep = np.empty((n, _WIDTH), dtype=bool)
    _format(axis, axis_buf, axis_keep)
    step = max(1, _CHUNK // (n * (2 + c)))
    buf, keep = _lines(min(step, n), n, 2 + c)
    buf[:, :, 1, :-1] = axis_buf[:, :-1]
    keep[:, :, 1] = axis_keep
    for start in range(0, n, step):
        rows = values[start:start + step]
        m = len(rows)
        buf[:m, :, 0, :-1] = axis_buf[start:start + m, None, :-1]
        keep[:m, :, 0] = axis_keep[start:start + m, None]
        _format(rows, buf[:m, :, 2:], keep[:m, :, 2:])
        _emit(fh, buf[:m], keep[:m])
