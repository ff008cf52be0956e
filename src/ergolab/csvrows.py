"""CSV rows: equal-length columns written as text, one block of rows at a
time.

Every column is a range, an integer array or a float array, and a block
becomes one uint8 matrix of characters, a row per line.  Each column is
a field of fixed width, then its separator; a cell fills what it needs
of its field and leaves 0 in the rest, and deleting the zeros is the
block's text.  Integer cells are str() of the value and float cells
repr(), byte for byte.  Both take one sign rule: a field with a
negative cell starts with a sign column, "-" or 0, and the zeros
between it and the digits close up.

Float cells come from _shortest, which finds the shortest decimal that
reads back to each float as repr does (Steele and White, "How to print
floating-point numbers accurately", PLDI 1990; Adams, "Ryu: fast
float-to-string conversion", PLDI 2018), in double-double and int64
arithmetic over a whole column at once.  A row with a value outside its
exact range is written by str.format.
"""

from __future__ import annotations

import numpy as np

from .cli import _output

# Rows per CSV block: the writer holds one block's text, never the file's.
_CSV_BLOCK_ROWS = 1 << 14


def _write_csv(path: str | None, header: str, columns) -> None:
    """The header, then the rows of the columns (see _write_rows)."""
    with _output(path) as out:
        out.write(header + "\n")
        _write_rows(out, columns)


def _write_rows(out, columns) -> None:
    """One line per row of the equal-length columns, _CSV_BLOCK_ROWS at a
    time, each block written by _numeric_rows; a cell prints as str() of
    its Python value.  A column that is not numeric (see _is_numeric)
    raises TypeError."""
    if not all(map(_is_numeric, columns)):
        raise TypeError("CSV columns are ranges or integer or float arrays of at most 64 bits")
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        out.write(_numeric_rows([column[start : start + _CSV_BLOCK_ROWS] for column in columns]))


def _is_numeric(column) -> bool:
    """True for a range, an integer numpy array and a float numpy array of at
    most 64 bits, whose tolist() gives Python ints and floats."""
    dtype = getattr(column, "dtype", None)
    if dtype is None:
        return isinstance(column, range)
    return dtype.kind in "iu" or dtype.kind == "f" and dtype.itemsize <= 8


def _re_im_abs(values) -> list:
    # abs(complex) is hypot(re, im); numpy's complex abs can differ in the last digit
    return [values.real, values.imag, np.hypot(values.real, values.imag)]


def _numeric_rows(cells) -> str:
    """The CSV lines of one block of numeric columns (see _is_numeric), each
    cell as str() of its Python value writes it.

    The block is a uint8 matrix of characters, stored a character column
    per row, so that each write runs along the block's rows; a 0 marks a
    position a cell leaves unused, and deleting the zeros of the matrix
    read row by row gives the text.  Each column is laid out by
    _integer_field or, all float columns in one _shortest call, by
    _float_fields.  A row that holds a float _shortest left to repr is
    formatted by str.format and replaces that row of the matrix, which is
    made wide enough for it.
    """
    rows = len(cells[0])
    if not rows:
        return ""
    cells = [np.arange(c.start, c.stop, c.step, dtype=np.int64) if isinstance(c, range) else c
             for c in cells]
    floats = [cell for cell in cells if cell.dtype.kind == "f"]
    float_fields, odd = _float_fields(floats) if floats else ((), np.zeros(rows, dtype=bool))
    float_fields = iter(float_fields)
    fields = [next(float_fields) if cell.dtype.kind == "f" else _integer_field(cell) for cell in cells]
    width = sum(w for w, _ in fields) + len(fields)
    odd_rows = np.flatnonzero(odd)
    if odd_rows.size:
        line = ",".join(["{}"] * len(cells)) + "\n"
        lines = [line.format(*row).encode("ascii")
                 for row in zip(*(cell[odd_rows].tolist() for cell in cells))]
        odd_text = np.array(lines).view(np.uint8).reshape(len(lines), -1).T  # zero padded
    else:
        odd_text = np.empty((0, 0), dtype=np.uint8)
    text = np.empty((max(width, len(odd_text)), rows), dtype=np.uint8)
    end = -1  # the separator column of the field before
    for (w, fill), separator in zip(fields, [","] * (len(fields) - 1) + ["\n"]):
        start, end = end + 1, end + 1 + w
        fill(text[start:end])
        text[end] = ord(separator)
    text[width:] = 0
    if odd_rows.size:
        text[:, odd_rows] = 0
        text[: len(odd_text), odd_rows] = odd_text
    return text.T.tobytes().translate(None, b"\0").decode("ascii")


def _integer_field(cell):
    """(width, fill) of an integer column: fill(text) writes str() of each
    cell into a field of that many character columns.

    As in a float field, a column with a negative cell starts with a sign
    column, "-" or 0.  Digits fill the rest from the right, one floor
    division by 10 each (in uint32 when every magnitude fits), a 0 where
    a cell has no more digits.
    """
    if cell.dtype.kind == "i":
        magnitude = np.abs(cell.astype(np.int64)).view(np.uint64)  # -2^63 reads as 2^63
        negative = cell < 0
        signed = bool(negative.any())
    else:
        magnitude, signed = cell.astype(np.uint64), False
    top = int(magnitude.max())
    if top < 1 << 32:
        magnitude = magnitude.astype(np.uint32)
    digits = len(str(top))

    def fill(text):
        if signed:
            text[0] = negative * np.uint8(ord("-"))
        q = magnitude
        for k in range(digits):  # units first; q holds magnitude // 10^k
            quotient = q // 10
            character = q - quotient * 10 + ord("0")
            if k:  # none where q is 0
                character *= q != 0
            text[signed + digits - 1 - k] = character
            q = quotient

    return signed + digits, fill


def _float_fields(columns):
    """([(width, fill)] of the float columns, odd rows):
    fill(text) writes repr() of each cell into a field of that many
    character columns.  The columns are laid out together, through
    _shortest in pieces of _CSV_BLOCK_ROWS values, whose temporaries stay
    in cache; odd marks each row where a cell of one of them is left to
    repr, and its cells are laid out as zeros.

    A cell is the digits of c between two bounds, with a "." before
    position p: of the 24 characters "0000" + c in 20 digits, the integer
    part is positions a..p-1 and the fraction p..e, then "e+XX" or "e-XX"
    in scientific form.  repr writes |x| < 1e-4 and |x| >= 1e16 in that
    form, with one digit before the point and no point after a lone
    digit, and a zero as "0.0".  A field spans what its rows need of
    those positions, and a 0 marks each position a row leaves unused.
    """
    shape = len(columns), len(columns[0])
    x = np.concatenate(columns, dtype=np.float64)
    pieces = [_shortest(x[i : i + _CSV_BLOCK_ROWS]) for i in range(0, len(x), _CSV_BLOCK_ROWS)]
    c, s, k, odd = pieces[0] if len(pieces) == 1 else map(np.concatenate, zip(*pieces))
    nonzero = c != 0  # else at least 10^15
    size = (18 - (c < 10**17) - (c < 10**16)) * nonzero  # digits of c
    exponent = size - s - 1  # of the first digit
    scientific = ((exponent < -4) | (exponent >= 16)) & nonzero
    first, last = 24 - size, 23 - k  # positions of the first and last nonzero digit
    point = np.where(scientific, first + 1, 24 - s)  # at most 23: s >= 1 where positional
    low = np.minimum(first, point - 1)
    high = np.where(scientific, last, np.maximum(last, point))
    dotted = high >= point  # all but a lone digit in scientific form
    negative = np.signbit(x)
    # each field's span: [i0, i1) of the integer part, [j0, j1) of the fraction
    spans = zip(
        *(v.reshape(shape).min(axis=1).tolist() for v in (low, point)),
        *(v.reshape(shape).max(axis=1).tolist() for v in (point, high)),
        *(v.reshape(shape).any(axis=1).tolist() for v in (negative, dotted, scientific)),
    )
    magnitude = np.abs(exponent)
    sign = np.where(exponent < 0, ord("-"), ord("+"))
    tail = np.stack([np.full_like(sign, ord("e")), sign, magnitude // 10 + ord("0"),
                     magnitude % 10 + ord("0")]).astype(np.uint8) * scientific
    low8, point8 = low.astype(np.uint8), point.astype(np.uint8)
    parts = [_digits(c), low8, point8 - low8, point8, (high + 1 - point).clip(0).astype(np.uint8),
             negative * np.uint8(ord("-")), dotted * np.uint8(ord(".")), tail]
    parts = [v.reshape(*v.shape[:-1], *shape) for v in parts]
    fields = [_float_field(span, *(v[..., i, :] for v in parts)) for i, span in enumerate(spans)]
    return fields, odd.reshape(shape).any(axis=0)


_POSITIONS = np.arange(24, dtype=np.uint8)[:, None]


def _float_field(span, digits, low, length, point, count, sign, dot, tail):
    """(width, fill) of one float column laid out by _float_fields: its
    span, then for each cell the positions of the integer part (from low,
    length of them) and of the fraction (from point, count of them), and
    its "-", "." and exponent characters, 0 where it has none."""
    i0, j0, i1, j1, signed, has_point, sci = span
    j1 = max(j0, j1 + 1)
    width = signed + (i1 - i0) + has_point + (j1 - j0) + 4 * sci

    def fill(text):
        at = 0
        if signed:
            text[0] = sign
            at = 1
        at = _place(text, at, digits, i0, i1, low, length)
        if has_point:
            text[at] = dot
            at += 1
        at = _place(text, at, digits, j0, j1, point, count)
        if sci:
            text[at : at + 4] = tail

    return width, fill


def _place(text, at, digits, begin, stop, start, length) -> int:
    """Write digits[begin:stop] from row at of text, 0 outside start <=
    position < start + length in each cell; return the row after."""
    # position - start as uint8 wraps below start: one comparison
    used = _POSITIONS[begin:stop] - start < length
    np.multiply(digits[begin:stop], used, out=text[at : at + stop - begin])
    return at + stop - begin


# 10^s, s = 0..22, the powers of ten that are doubles, and each split into
# two halves of at most 26 bits (Veltkamp), so that a product with one is
# exact as a sum of two doubles (Dekker).
_TEN = np.array([float(10**s) for s in range(23)])
_SPLITTER = 134217729.0  # 2^27 + 1
_TEN_HIGH = _TEN * _SPLITTER - (_TEN * _SPLITTER - _TEN)
_TEN_LOW = _TEN - _TEN_HIGH
_EXPONENT = np.int64(0x7FF << 52)  # the exponent bits of a float64
_MANTISSA = np.int64((1 << 52) - 1)


def _shortest(x):
    """(c, s, k, odd) for a float64 array x: c * 10^-s, with c an int64 in
    [10^15, 10^18), is the decimal repr writes for x, and the last k digits
    of c are zeros; a zero gives c = 0 with s = 16 and k = 20, and so does
    each value odd marks, which is left to repr: an infinity, a nan and
    |x| outside about [1e-6, 1e17), where 10^s is no double.

    Then X = |x| * 10^s lies in [10^16, 10^17) and is hi + lo exactly, by
    Dekker's product, and so are the bounds X - down and X + up of the
    numbers that read back to x: half the gap to each neighbour, times
    10^s.  repr's digits are the multiple of 10^k nearest to X, for the
    largest k that has one between the bounds (Steele and White; Ryu),
    and of two at the same distance the one whose last digit is even, as
    Python's dtoa.c (Gay) chooses.
    """
    ax = np.abs(x)
    zero = ax == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 16 - np.floor(np.log10(ax))
        odd = ~((s >= 0) & (s <= 22))  # also a nan, an infinity and a zero
    s[odd], ax[odd] = 16, 1.0
    s = s.astype(np.intp)
    hi = ax * _TEN[s]
    moved = np.flatnonzero((hi < 1e16) | (hi >= 1e17))
    if moved.size:  # log10 rounded across a power of ten: move s by one
        s[moved] += np.where(hi[moved] < 1e16, 1, -1)
        out = moved[(s[moved] < 0) | (s[moved] > 22)]
        odd[out], s[out], ax[out] = True, 16, 1.0
        hi[moved] = ax[moved] * _TEN[s[moved]]
    a = ax * _SPLITTER
    a_high = a - (a - ax)
    a_low = ax - a_high
    b_high, b_low = _TEN_HIGH[s], _TEN_LOW[s]
    lo = ((a_high * b_high - hi) + a_high * b_low + a_low * b_high) + a_low * b_low
    # X = whole + frac, 0 <= frac < 1, and each bound's distance likewise
    fall = np.floor(lo)
    frac = lo - fall
    whole = hi.astype(np.int64) + fall.astype(np.int64)
    bits = ax.view(np.int64)
    up = ((bits & _EXPONENT) - (53 << 52)).view(np.float64) * _TEN[s]  # half an ulp
    down = up.copy()
    down[(bits & _MANTISSA) == 0] *= 0.5  # a power of two: the gap below is half
    up_int, down_int = np.floor(up), np.floor(down)
    up_frac, down_frac = up - up_int, down - down_int
    rest = 1 - up_frac  # exact: up's lowest bit is at least 2^-52
    top = whole + up_int.astype(np.int64) + (frac >= rest)  # floor(X + up)
    bottom = whole - down_int.astype(np.int64) + (frac > down_frac)  # ceil(X - down)
    # A decimal on a bound reads back, rounded half to even, to x when x's
    # last mantissa bit is 0 and to its neighbour when it is 1.
    last_bit = (bits & 1).astype(bool)
    top -= last_bit & ((frac == rest) | (frac == 0) & (up_frac == 0))
    bottom += last_bit & (frac == down_frac)
    # k: the largest with a multiple of 10^k in [bottom, top], which holds
    # count >= 1 integers and, as count < 100, at most one multiple of 100
    count = top - bottom + 1
    tens = top // 10
    hundreds = tens // 10
    k = (top - tens * 10 < count).astype(np.intp)
    # the multiple of 10^k nearest to X
    step = 1 + 9 * k
    below = whole - (whole - whole // 10 * 10) * k
    more = np.flatnonzero(top - hundreds * 100 < count)
    if more.size:
        k[more] += 1 + _trailing_zeros(hundreds[more])
        step[more] = 10 ** k[more]
        below[more] = whole[more] // step[more] * step[more]
    twice = 2 * (whole - below) - step + 2 * frac  # 2 (X - below) - step, its sign exact
    c = below + step * (twice > 0)
    tie = np.flatnonzero(twice == 0)
    if tie.size:  # X halfway: the one whose last digit is even
        c[tie] += step[tie] * (below[tie] // step[tie] % 2)
    # It lies between the bounds, which only a power of two could break,
    # as its gap below is half the gap above (no double does; the tests
    # try them all); a value where it did would be left to repr.
    odd |= (c < bottom) | (c > top)
    odd &= ~zero
    zero |= odd
    c[zero], s[zero], k[zero] = 0, 16, 20
    return c, s, k, odd


def _trailing_zeros(y):
    """The count of trailing decimal zeros of each positive int64 of y."""
    count = np.zeros(len(y), dtype=np.intp)
    while True:
        quotient = y // 10
        zero = quotient * 10 == y
        if not zero.any():
            return count
        count += zero
        y = np.where(zero, quotient, 1)  # 1 has none


# "0000" to "9999", the four characters of each as one uint32: the j-th
# character of n runs along axis j of a 10 x 10 x 10 x 10 grid
_QUADS = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _j in range(4):
    _QUADS[..., _j] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - _j))
_QUADS = _QUADS.reshape(10000, 4).view(np.uint32).ravel()


def _digits(c):
    """(24, len(c)) uint8: row j holds character j of "0000" + c in 20
    digits, for each c, an int64 in [0, 10^18)."""
    high = c // 10**8
    top = high // 10**8  # below 100
    quads = [top, *divmod((high - top * 10**8).astype(np.uint32), 10000),
             *divmod((c - high * 10**8).astype(np.uint32), 10000)]
    words = np.empty((len(c), 6), dtype=np.uint32)
    words[:, 0] = _QUADS[0]
    for column, quad in enumerate(quads, 1):
        words[:, column] = _QUADS[quad]
    return np.ascontiguousarray(words.view(np.uint8).T)
