"""Whole-array ``%.17g`` CSV text: the bytes that ``"%.17g" % v`` gives for
each value of a float64 block, from numpy passes instead of one Python
format call per value.

Each value ``v`` is printed from ``N``, its 17 significant digits, and
``k``, the decimal exponent of the first of them: ``N = round(|v| 10**s)``
with ``s = 16 - k`` lies in ``[1e16, 1e17)``.  The product ``|v| 10**s`` is
formed in double-double arithmetic: ``10**s`` is stored as a correctly
rounded pair ``hi + lo`` and ``|v| hi`` is split exactly by Dekker's
product (Numer. Math. 18, 1971), since numpy has no fused multiply-add.
For ``0 <= s <= 22`` the pair is exact, so the product is exact and a
value halfway between two 17-digit numbers rounds to even, as ``%`` does.
Elsewhere the product is off by about 1e-14 units of the last digit, so a
scaled fraction within ``TIE_GUARD`` of 1/2, and a finite non-zero ``|v|``
outside ``[FAST_MIN, FAST_MAX]``, go to ``%`` one by one.

Every value becomes one row of ``ROW_BYTES`` bytes, NUL where nothing is
printed: the sign; a leading ``"0"``, a slot for ``'.'`` and three more
zeros; then the 17 digits, each followed by a slot for ``'.'``; the
exponent suffix; and the separator.  A mask indexed by the form (fixed
notation for ``-4 <= k <= 16``, scientific otherwise) and by the position
of the last non-zero digit keeps the printed digits, and a text row of the
same index sets the one ``'.'``.  Zero, the infinities and nan have rows of
their own.  ``bytes.translate`` then drops the NULs.  No step calls BLAS.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: range of |v| whose scaled product the kernel forms without overflow or
#: underflow; other finite non-zero values are formatted by ``%``
FAST_MIN, FAST_MAX = 1e-280, 1e280
#: a scaled fraction within this of 1/2, from an inexact product, is
#: formatted by ``%``
TIE_GUARD = 1e-6
#: bytes of one value's row
ROW_BYTES = 48

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
#: decimal exponents a value in the fast range can be given, one either
#: side of floor(log10(|v|))
_K_MIN, _K_MAX = -282, 281
#: the fixed-notation exponents, and the number of forms
_FIXED_MIN, _FIXED_MAX = -4, 16
_SCIENTIFIC = _FIXED_MAX - _FIXED_MIN + 1
#: row indices of the mask and text tables: (form, last non-zero digit),
#: then zero, the infinities and nan
_ZERO, _INF, _NAN = (_SCIENTIFIC + 1) * 18 + np.arange(3)
#: byte offsets in a row: the sign, the leading zero, its '.' slot, digit
#: j (1..17) at 2 j + 4 with its '.' slot after it, the exponent suffix and
#: the separator
_SIGN, _ZERO0, _DOT0, _EXP, _SEP = 0, 1, 2, 40, 45


@cache
def _pow10():
    """``10**s`` for ``s = 16 - k`` over every ``k`` of the fast range, one
    row ``(hi, hi_big, hi_small, lo)`` per ``s``: ``hi`` is ``10**s``
    correctly rounded, ``hi_big + hi_small`` its Dekker split, and ``lo``
    the correctly rounded remainder ``10**s - hi``."""
    table = np.empty((_K_MAX - _K_MIN + 1, 4))
    for row, s in enumerate(range(16 - _K_MAX, 17 - _K_MIN)):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den  # int true division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        table[row, [0, 3]] = hi, (num * hi_den - hi_num * den) / (den * hi_den)
    c = _SPLIT * table[:, 0]
    table[:, 1] = c - (c - table[:, 0])
    table[:, 2] = table[:, 0] - table[:, 1]
    return table


@cache
def _digit_words():
    """``uint64`` words whose bytes read as ASCII: the 4 digits of each chunk
    ``0..9999`` with a NUL slot after each digit; and the sign, the leading
    zeros and the first digit ``d1``, indexed by ``10 * negative + d1``.
    Last, per chunk place ``j`` (0..3) and chunk, the position of the
    chunk's last non-zero digit among the 17 digits, 1 for chunk 0."""
    c = np.arange(10 ** 4)
    digits = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    chunk = np.zeros((10 ** 4, 8), np.uint8)
    chunk[:, 0::2] = ord("0") + digits
    lead = np.zeros((2, 10, 8), np.uint8)
    lead[1, :, _SIGN] = ord("-")
    lead[:, :, [_ZERO0, 3, 4, 5]] = ord("0")
    lead[:, :, 6] = ord("0") + np.arange(10)
    within = 4 - np.argmax(digits[:, ::-1] != 0, axis=1)
    last = np.where(c == 0, 1, 1 + 4 * np.arange(4)[:, None] + within).astype(np.int8)
    return chunk.view(np.uint64).ravel(), lead.reshape(20, 8).view(np.uint64).ravel(), last


@cache
def _layout():
    """The keep mask and the text of a row, as ``(rows, 6)`` ``uint64``
    tables indexed by ``18 * form + t`` (``t`` the position of the last
    non-zero digit) and by ``_ZERO``, ``_INF`` and ``_NAN``, whose last word
    is left to the suffix; ``18 * form`` of each ``k``; and the last word of
    a row of each ``k``: its exponent suffix and the separator ``','``
    (first half) or ``'\\n'`` (second half)."""
    rows = _NAN + 1
    keep = np.zeros((rows, ROW_BYTES), bool)
    text = np.zeros((rows, ROW_BYTES), np.uint8)
    form, t = np.divmod(np.arange(_ZERO), 18)
    k = form + _FIXED_MIN
    j = np.arange(1, 18)
    fixed = form < _SCIENTIFIC
    # fixed notation prints at least the integer digits, scientific only D1
    shown = np.where(fixed, np.maximum(t, k + 1), t)
    keep[:_ZERO, 2 * j + 4] = j <= shown[:, None]
    # '.' after D_(k+1), after D1 in scientific notation, or after the
    # leading zero, which with -k - 1 more zeros precedes D1 when k < 0
    point = np.where(fixed, k + 1, 1)
    has_point = (t > point) & (point > 0)
    text[np.flatnonzero(has_point), 2 * point[has_point] + 5] = ord(".")
    small = np.flatnonzero(fixed & (k < 0) & (t > 0))
    keep[small, _ZERO0] = True
    text[small, _DOT0] = ord(".")
    zeros = np.arange(3, 6)
    keep[small[:, None], zeros] = zeros < 2 - k[small, None]
    keep[:_NAN, _SIGN] = True
    for row, word in ((_ZERO, b"0"), (_INF, b"inf"), (_NAN, b"nan")):
        text[row, _ZERO0:_ZERO0 + len(word)] = np.frombuffer(word, np.uint8)
    mask = np.where(keep, np.uint8(0xFF), np.uint8(0))

    ks = np.arange(_K_MIN, _K_MAX + 1)
    suffix = np.zeros((2, len(ks), 8), np.uint8)
    e = np.abs(ks)
    sci = (ks < _FIXED_MIN) | (ks > _FIXED_MAX)
    wide = e >= 100
    suffix[:, sci, 0] = ord("e")
    suffix[:, sci, 1] = np.where(ks[sci] < 0, ord("-"), ord("+"))
    for pos, place in ((2, 100), (3, 10), (4, 1)):
        # a two-digit exponent shifts left by one byte
        at = np.where(wide, pos, pos - 1)
        show = sci & (wide | (pos > 2))
        suffix[:, np.flatnonzero(show), at[show]] = ord("0") + e[show] // place % 10
    suffix[0, :, _SEP - _EXP] = ord(",")
    suffix[1, :, _SEP - _EXP] = ord("\n")
    form_row = 18 * np.where(sci, _SCIENTIFIC, ks - _FIXED_MIN)
    return (mask.view(np.uint64), text.view(np.uint64), form_row,
            suffix.view(np.uint64).reshape(2 * len(ks)))


def _scaled(a, s):
    """``a 10**s`` as the double-double ``hi + lo`` with ``|lo| <=
    ulp(hi) / 2``, to about 1e-30 relative; exact for ``0 <= s <= 22``."""
    p = np.take(_pow10(), s - (16 - _K_MAX), axis=0)
    c = _SPLIT * a
    a_big = c - (c - a)
    a_small = a - a_big
    hi = a * p[:, 0]
    lo = ((a_big * p[:, 1] - hi) + a_big * p[:, 2] + a_small * p[:, 1]) + a_small * p[:, 2]
    lo += a * p[:, 3]
    top = hi + lo
    lo -= top - hi
    return top, lo


def format_rows(block):
    """The ``%.17g`` CSV text of a 2-D float64 ``block``: its values joined
    by ``','`` within a row, each row ended by ``'\\n'``, as bytes; and the
    number of values formatted by ``%``."""
    rows, cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= FAST_MIN) & (a <= FAST_MAX)
    a = np.where(fast, a, 1.0)  # others print from rows of their own or by %
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - k)
    # floor(log10) is off by one next to a power of ten; an N of 1e16 or
    # 1e17 from hi alone has the side of lo
    off = (np.where((hi < 1e16) | ((hi == 1e16) & (lo < 0)), -1, 0)
           + ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))))
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] += off[redo]
        hi[redo], lo[redo] = _scaled(a[redo], 16 - k[redo])
    down = np.floor(lo)
    frac = lo - down
    n = hi.astype(np.int64) + down.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & (n & 1 == 1))
    # after the redo N lies in [1e16, 1e17]; should it not, % prints it
    slow = ~fast | (n < 10 ** 16) | (n > 10 ** 17)
    # a fraction near 1/2 is rounded here only from an exact product
    slow |= (np.abs(frac - 0.5) < TIE_GUARD) & ((k > 16) | (k < -6))
    carry = n == 10 ** 17
    k += carry
    n[carry | slow] = 10 ** 16  # the digits of a slow value are not printed

    chunk_word, lead_word, last = _digit_words()
    mask, text, form_row, suffix = _layout()
    d1, rest = np.divmod(n, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    chunks = np.divmod(upper, 10 ** 4) + np.divmod(lower, 10 ** 4)
    t = np.maximum(np.maximum(np.take(last[0], chunks[0]), np.take(last[1], chunks[1])),
                   np.maximum(np.take(last[2], chunks[2]), np.take(last[3], chunks[3])))
    index = np.take(form_row, k - _K_MIN) + t
    special = np.flatnonzero(~fast)
    if special.size:
        sv = v[special]
        index[special] = np.where(sv == 0, _ZERO, np.where(np.isnan(sv), _NAN, _INF))
        slow[special] = np.isfinite(sv) & (sv != 0)

    out = np.empty((len(v), ROW_BYTES // 8), np.uint64)
    out[:, 0] = np.take(lead_word, 10 * np.signbit(v) + d1)
    for j, c in enumerate(chunks, 1):
        out[:, j] = np.take(chunk_word, c)
    out &= np.take(mask, index, axis=0)
    out |= np.take(text, index, axis=0)
    newline = np.zeros(cols, np.int64)
    newline[-1] = _K_MAX - _K_MIN + 1
    out[:, 5] = np.take(suffix, ((k - _K_MIN).reshape(rows, cols) + newline).ravel())
    slow = np.flatnonzero(slow)
    if slow.size:
        row8 = out.view(np.uint8)
        for i in slow.tolist():
            word = b"%.17g" % v[i]
            row8[i] = 0
            row8[i, :len(word)] = np.frombuffer(word, np.uint8)
            row8[i, _SEP] = ord("\n") if i % cols == cols - 1 else ord(",")
    return out.tobytes().translate(None, b"\0"), slow.size
