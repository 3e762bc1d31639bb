"""Table cells as byte matrices: ``'%.17g'`` floats and decimal integers from
array code, text from Python strings.

Every builder returns a matrix with one row per value, holding the value's
UTF-8 text in some of its bytes and ``PAD`` (0xFF, a byte UTF-8 never uses)
in the rest, so rows and whole tables are compacted by dropping ``PAD``.
The text of a row need not be left-aligned.  Floats come as little-endian
64-bit words, eight bytes at a time; the rest as bytes.

A finite nonzero float x is N * 10**(E - 16), where E = floor(log10 |x|)
and N is |x| * 10**(16 - E) rounded to the nearest integer, 17 digits long.
That product is formed in double-double arithmetic, as in Ryu printf
(Adams, PLDI 2018) with a double-double power of ten in place of a 128-bit
integer: Dekker's exact TwoProduct (Numer. Math. 18, 224, 1971) of |x| and
the head of 10**k, plus |x| times its tail.  The result is within 1e-14 of
the exact product, so N is correctly rounded unless the product lies within
1e-9 of a rounding tie; those values, zeros, infinities and nans are
formatted by Python's ``%``.  The layout then follows ``%g``: fixed notation
for -4 <= E < 17, otherwise ``d.ddde+XX``, trailing zeros dropped.
"""

from __future__ import annotations

import functools

import numpy as np

PAD = 0xFF

#: bytes that make csv.QUOTE_MINIMAL quote a field
QUOTED = b',"\r\n'

#: exponents k of the 10**k table; a value's k = 16 - E lies in [-293, 341]
_K_MIN, _K_MAX = -300, 350

_SPLIT = 134217729.0  # 2**27 + 1
#: a product this close to a rounding tie is left to Python's %
_TIE = 1e-9
#: floats per pass of the array code, so that its temporaries stay in cache
_CHUNK = 4096
_PADS = int.from_bytes(bytes([PAD]) * 8, "little")


@functools.cache
def _ten() -> np.ndarray:
    """Per k: 2**s, then the head, the head's Veltkamp halves and the tail of
    10**k * 2**-s, where s keeps |x| * 2**s and the head clear of overflow
    in a split.  Rows are nan until ``_tens`` builds them."""
    return np.full((_K_MAX - _K_MIN + 1, 5), np.nan)


@functools.cache
def _quads() -> np.ndarray:
    """(10000, 4) ASCII digits of 0000 ... 9999."""
    d = np.arange(48, 58, dtype=np.uint8)
    q = np.empty((10, 10, 10, 10, 4), np.uint8)
    q[..., 0], q[..., 1], q[..., 2], q[..., 3] = (
        d[:, None, None, None], d[:, None, None], d[:, None], d)
    return q.reshape(10000, 4)


@functools.cache
def _trailing_zeros() -> np.ndarray:
    """Trailing decimal zeros of 0 ... 9999 as four-digit groups."""
    zeros = np.zeros(10000, np.intp)
    for step in (10, 100, 1000, 10000):
        zeros[::step] += 1
    return zeros


def _first(mask: np.ndarray) -> np.ndarray:
    """Column of each row's first True, or the number of columns if none."""
    at = np.argmax(mask, axis=1)
    return np.where(mask[np.arange(len(at)), at], at, mask.shape[1])


def _groups(n: np.ndarray, count: int) -> np.ndarray:
    """(count, m) four-digit groups of non-negative integers, most
    significant first."""
    out = np.empty((count, n.size), np.intp)
    for g in range(count - 1, -1, -1):
        rest = n // 10000  # fast for a constant divisor, unlike divmod
        out[g] = n - rest * 10000
        n = rest
    return out


def _quad_words(groups: np.ndarray) -> np.ndarray:
    """The four ASCII digits of each group as a little-endian 32-bit word."""
    return _quads().view("<u4").ravel()[groups]


def _gather(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of a C-contiguous 2-D table, each copied as one record,
    which is faster than gathering a row element by element."""
    record = table.view(f"V{table.shape[1] * table.itemsize}").ravel()
    return record[idx].view(table.dtype).reshape(idx.size, table.shape[1])


def _tens(k: np.ndarray) -> np.ndarray:
    """Columns of ``_ten()`` for the exponents ``k``, each built exactly
    from integers the first time it is asked for."""
    table = _ten()
    rows = _gather(table, k - _K_MIN)
    missing = np.isnan(rows[:, 0])
    if missing.any():
        new = sorted(set(k[missing].tolist()))
        built = []
        for e in new:
            s = 600 if e >= 250 else -400 if e <= -250 else 0
            num = 10 ** max(e, 0) << max(-s, 0)
            den = 10 ** max(-e, 0) << max(s, 0)
            hi = num / den                        # correctly rounded
            p, q = hi.as_integer_ratio()
            lo = (num * q - p * den) / (den * q)  # correctly rounded remainder
            t = _SPLIT * hi
            head = t - (t - hi)
            built.append((2.0 ** s, hi, head, hi - head, lo))
        table[np.array(new) - _K_MIN] = built
        rows = _gather(table, k - _K_MIN)
    return rows.T


def _product(ax: np.ndarray, e: np.ndarray):
    """|x| * 10**(16 - e) as a normalised double-double (hi, lo)."""
    scale, hi, hh, ht, lo = _tens(16 - e)
    x = ax * scale
    p = x * hi
    t = _SPLIT * x
    xh = t - (t - x)
    xt = x - xh
    err = ((xh * hh - p) + xh * ht + xt * hh) + xt * ht
    q = err + x * lo
    s = p + q
    return s, q - (s - p)


def _digits17(ax: np.ndarray):
    """(N, E) with N the 17 significant digits of each finite positive |x|
    and E its decimal exponent, and a mask of the values whose N is sure:
    not from a product near a rounding tie or an E that did not settle."""
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _product(ax, e)
    # log10 can miss E by one next to a power of ten: move E until the
    # product lies in [1e16, 1e17)
    todo = np.arange(ax.size)
    for _ in range(3):
        h, l = hi[todo], lo[todo]
        below = (h < 1e16) | ((h == 1e16) & (l < 0))
        above = (h > 1e17) | ((h == 1e17) & (l >= 0))
        off = below | above
        todo = todo[off]
        if not todo.size:
            break
        e[todo] += above[off].astype(np.int64) - below[off]
        hi[todo], lo[todo] = _product(ax[todo], e[todo])
    near = np.rint(lo)
    sure = np.abs(np.abs(lo - near) - 0.5) >= _TIE
    sure[todo] = False
    n = hi.astype(np.int64) + near.astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    return n, e + carry, sure


@functools.cache
def _points() -> np.ndarray:
    """(18 * 18, 9) words: for b digits before the point and k digits kept
    (row 18 * b + k), the three words of a mask of the digits that stay in
    place, of a mask of those that move one byte up past the point, and of
    the point and the PAD bytes around them."""
    row = np.arange(18 * 18)[:, None]
    b, k = row // 18, row % 18
    at = np.arange(24)
    stay = at < b
    move = (at > b) & (at <= np.maximum(k, b))
    fill = np.where(stay | move, 0, PAD)
    fill[row[:, 0], b[:, 0]] = np.where((b[:, 0] > 0) & (b[:, 0] < k[:, 0]), ord("."), PAD)
    words = np.concatenate([stay * PAD, move * PAD, fill], axis=1).astype(np.uint8)
    return words.view("<u8")


@functools.cache
def _prefixes() -> np.ndarray:
    """Words of ``[-][0.[0..0]]``, zero-filled: index 5 * negative + z, for
    z < 4 zeros after ``0.`` or, with z = 4, no ``0.``."""
    return np.array([int.from_bytes(sign + (b"0." + b"0" * z if z < 4 else b""), "little")
                     for sign in (b"", b"-") for z in range(5)], "<u8")


def _layout(neg: np.ndarray, n: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(m, 3) words of ``'%.17g'`` text from the sign, the digits N and the
    exponent: a prefix, then the 17 digits with the point among them, and
    in d.ddde+XX notation the exponent in the last five bytes."""
    groups = _groups(n, 5)
    q = _quad_words(groups).astype(np.uint64)
    eight, forty, sft = np.uint64(8), np.uint64(40), np.uint64(24)
    # the 17 digits as 24 bytes: the first digit, then four groups of four
    d = np.empty((3, n.size), "<u8")
    d[0] = q[0] >> sft | q[1] << eight | q[2] << forty
    d[1] = q[2] >> sft | q[3] << eight | q[4] << forty
    d[2] = q[4] >> sft
    tz = _trailing_zeros()
    zeros = tz[groups[4]]
    for g in (3, 2, 1):
        more = zeros == 4 * (4 - g)
        zeros[more] += tz[groups[g, more]]
    kept = 17 - zeros
    fixed = (e >= -4) & (e < 17)
    lead = fixed & (e < 0)
    # digits before the point: E + 1 in fixed notation, one in d.ddde+XX,
    # none after a 0.000 prefix, which holds the point itself
    before = np.where(fixed, np.maximum(e + 1, 0), 1)
    masks = _gather(_points(), 18 * before + kept)
    up = d << eight
    up[1:] |= d[:-1] >> np.uint64(56)
    d = (d & masks[:, :3].T) | (up & masks[:, 3:6].T) | masks[:, 6:].T
    # move the digits up past the prefix, at most six bytes: 24 bytes hold
    # every '%.17g' text (numpy shifts a uint64 by 64 to 0)
    z = np.where(lead, -e - 1, 4)
    shift = (8 * (neg + np.where(lead, 2 + z, 0))).astype(np.uint64)
    out = np.empty((n.size, 3), "<u8")
    out[:, 0] = d[0] << shift | _prefixes()[5 * neg + z]
    out[:, 1] = d[1] << shift | d[0] >> (np.uint64(64) - shift)
    last = d[2] << shift | d[1] >> (np.uint64(64) - shift)
    # e, the sign, the exponent's hundreds (PAD below 100), tens and ones
    ae = np.abs(e)
    exp = (_quad_words(ae).astype(np.uint64) >> eight) << np.uint64(16)
    exp |= np.where(e < 0, ord("-"), ord("+")).astype(np.uint64) << eight
    exp |= np.where(ae < 100, PAD << 16, 0).astype(np.uint64)
    exp |= np.uint64(ord("e"))
    out[:, 2] = np.where(fixed, last, (last & np.uint64(0xFFFFFF)) | exp << sft)
    return out


def float_cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each float64 ``v`` in ``x``, as a PAD matrix of
    three little-endian words (view it as uint8 for the bytes).  Large
    arrays are formatted in pieces whose temporaries stay in the cache."""
    x = np.asarray(x, np.float64)
    if x.size <= _CHUNK:
        return _float_words(x)
    return np.concatenate([_float_words(x[i:i + _CHUNK]) for i in range(0, x.size, _CHUNK)])


def _float_words(x: np.ndarray) -> np.ndarray:
    """(m, 3) words of ``'%.17g' % v`` for each float64 ``v``."""
    fast = np.isfinite(x) & (x != 0)
    n, e, sure = _digits17(np.abs(x[fast]))
    if fast.all():
        words = _layout(x < 0, n, e)
    else:
        words = np.full((x.size, 3), _PADS, "<u8")
        words[fast] = _layout(x[fast] < 0, n, e)
    # zeros, infinities, nans and rounding ties from Python
    fast[fast] = sure
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = text_cells(["%.17g" % v for v in x[slow].tolist()])
        words[slow] = _PADS
        words.view(np.uint8)[slow, :cells.shape[1]] = cells
    return words


def int_cells(x: np.ndarray) -> np.ndarray:
    """Decimal text of each integer in ``x`` (kind ``i`` or ``u``)."""
    neg = x < 0
    # -(-2**63) wraps to -2**63, whose bits are 2**63 as a uint64
    mag = (np.where(neg, -x.astype(np.int64), x.astype(np.int64)).view(np.uint64)
           if x.dtype.kind == "i" else x.astype(np.uint64))
    digits = _quad_words(_groups(mag, 5).T.copy()).view(np.uint8).reshape(-1, 20)
    # leading zeros, all but the last digit
    shown = np.arange(20) >= _first(digits[:, :19] != 48)[:, None]
    return np.concatenate([np.where(neg, ord("-"), PAD).astype(np.uint8)[:, None],
                           np.where(shown, digits, PAD)], axis=1)


def text_cells(texts: list[str]) -> np.ndarray:
    """The UTF-8 bytes of each string, left-aligned."""
    raw = [t.encode("utf-8") for t in texts]
    lens = np.fromiter(map(len, raw), np.intp, len(raw))
    out = np.full((len(raw), int(lens.max(initial=0))), PAD, np.uint8)
    out[np.arange(out.shape[1]) < lens[:, None]] = np.frombuffer(b"".join(raw), np.uint8)
    return out


def ascii_cells(x: np.ndarray):
    """The text of a numpy unicode array straight from its code points, or
    None unless every string is ASCII, needs no quotes in a CSV field and
    holds no NUL (numpy pads a string with NULs, so only a NUL before
    another character belongs to it)."""
    x = np.ascontiguousarray(x, x.dtype.newbyteorder("="))
    codes = x.view(np.uint32).reshape(x.size, x.dtype.itemsize // 4)
    if codes.size and codes.max() >= 128:
        return None
    text = codes.astype(np.uint8)
    raw = text.tobytes()
    nul = text == 0
    if any(c in raw for c in QUOTED) or (nul[:, :-1] & ~nul[:, 1:]).any():
        return None
    text[nul] = PAD
    return text
