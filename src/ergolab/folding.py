"""Residue-class folding of weighted orbit sums.

Every integer polynomial satisfies P(n + J) = P(n) (mod J), so an orbit sum

    sum_{lo <= n <= hi} nu(n) F(P_1(n) mod J, ..., P_k(n) mod J)

depends on the weights only through the class masses

    m_r = sum_{lo <= n <= hi, n = r (mod J)} nu(n),

and costs O(N + classes * (work per class)) instead of O(N * work per n).
This module owns the pieces every folded route needs: the table range
check, the exact int64 class masses, the class residues P(r) mod J, and
orbit_sums, the one gather loop for cyclic-shift orbit sums.  Every
route that reads nu (direct averages, mass kernels, ladder and global
maximal statistics, dynamics averages, exponential-sum scans and
short-interval sums) reads it through class_masses, once per command:
one segmented pass over all the lengths a caller needs, from n = 1 or
from the first n of a window.  A segment is folded only when it spans
the period and holds two or more nonzero terms; otherwise each nonzero n
is its own class, so folding never costs more than the unfolded sum.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import polynomials
from .polynomials import IntPolynomial
from .weights import WeightTable

# Elements per block: of the running sums orbit_sums yields, of its term
# gathers, of the table _nonzero_counts reads and of the rows of
# spectral.OffDiagonalKernel.total_degree.  At 2^15 a block's temporaries
# stay near 1 MB; 2^14 costs more per-block interpreter time than it saves.
_BLOCK_ELEMENTS = 1 << 15


def check_length(table: WeightTable, n_max: int) -> None:
    """Raise ValueError unless 1 <= n_max <= table.limit."""
    if not 1 <= n_max <= table.limit:
        raise ValueError(f"N={n_max} outside table range [1, {table.limit}]")


def residues(poly: IntPolynomial, period: int, n_end: int) -> np.ndarray:
    """P(r) mod period for every class r an n <= n_end can fall in.

    Those are r = 0..min(period, n_end + 1) - 1; index the result with the
    classes that class_masses returns.
    """
    count = min(period, n_end + 1)
    return polynomials.eval_mod_range(poly, np.arange(count, dtype=np.int64), period)


def class_masses(
    table: WeightTable, period: int, lengths, start: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class masses of each segment lengths[k-1] < n <= lengths[k].

    The first segment is start <= n <= lengths[0].  Returns (offsets,
    classes, masses): entries offsets[k]:offsets[k+1] are the classes r = n
    mod period with a nonzero mass in segment k, and their exact int64
    masses.  A segment spanning at least the period and holding two or
    more nonzero terms is folded, its classes in increasing order; any
    other lists its nonzero n in order, each its own class.  So a segment
    of L terms has at most min(L, period) entries, and the table is read
    from start on only.
    """
    if period < 1:
        raise ValueError("period must be at least 1")
    bounds = np.concatenate(([start - 1], np.asarray(lengths, dtype=np.int64)))
    spans = np.diff(bounds)
    if start < 1 or spans.size == 0 or np.any(spans < 1):
        raise ValueError("lengths must be nonempty and strictly increasing from start >= 1")
    check_length(table, int(bounds[-1]))
    # Past the last n every n is its own class; this keeps periods in int64.
    period = min(period, int(bounds[-1]) + 1)
    values = table.values
    # A segment of one n holds at most one term, so it is never folded.
    # wide[k]: bound k opens a wide segment; each distinct end of a wide
    # segment is counted once, and a wide segment's terms are the count
    # at its end minus the count at its start, the next distinct end.
    # Only the folded segments' indices outlive this step.
    wide = np.append(spans >= max(period, 2), False)
    ends = wide | np.roll(wide, 1)
    terms = np.diff(_nonzero_counts(values, bounds[ends]))[wide[ends][:-1]]
    folded = np.flatnonzero(wide)[terms >= 2]
    del wide, ends, terms
    sizes, classes, masses = [], [], []
    first = 0
    for k in np.append(folded, spans.size):
        # Unfolded segments first..k-1 at once: every nonzero n in order.
        lo = int(bounds[first]) + 1
        n = np.flatnonzero(values[lo : bounds[k] + 1]) + lo
        sizes.append(np.diff(np.searchsorted(n, bounds[first : k + 1], side="right")))
        masses.append(values[n].astype(np.int64))
        classes.append(n % period)
        if k < spans.size:
            # Folded segment k: lay its n out row by row in a (rows, period)
            # grid whose column is n mod period, then sum columns.
            lo, size = int(bounds[k]) + 1, int(spans[k])
            head = lo % period
            grid = np.zeros(-(-(head + size) // period) * period, dtype=values.dtype)
            grid[head : head + size] = values[lo : lo + size]
            column = grid.reshape(-1, period).sum(axis=0, dtype=np.int64)
            classes.append(np.flatnonzero(column))
            masses.append(column[classes[-1]])
            sizes.append([classes[-1].size])
        first = k + 1
    offsets = np.zeros(spans.size + 1, dtype=np.int64)
    np.concatenate(sizes, out=offsets[1:])
    np.cumsum(offsets, out=offsets)
    if len(classes) == 1:  # nothing folded: one run, returned without a copy
        return offsets, classes[0], masses[0]
    return offsets, np.concatenate(classes), np.concatenate(masses)


def _nonzero_counts(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """#{ends[0] < n <= x : values[n] != 0} for every x in ends, which must
    not decrease, as int32 (every table stays below the 2e8 sieve cap).

    The table is counted from ends[0] + 1 in blocks of _BLOCK_ELEMENTS n,
    with a running count only in blocks that hold some x, so the scratch
    is O(block), never a per-n array of the table, and a window reads
    only its own n.
    """
    counts = np.zeros(ends.size, dtype=np.int32)
    if ends.size == 0:
        return counts
    total, i = 0, np.searchsorted(ends, ends[0], side="right")  # x = ends[0] counts nothing
    for lo in range(int(ends[0]) + 1, int(ends[-1]) + 1, _BLOCK_ELEMENTS):
        block = values[lo : lo + _BLOCK_ELEMENTS]
        j = np.searchsorted(ends, lo + block.size)
        if j > i:
            running = np.cumsum(block != 0, dtype=np.int32)
            counts[i:j] = total + running[ends[i:j] - lo]
        total, i = total + np.count_nonzero(block), j
    return counts


def orbit_sums(
    table: WeightTable,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    f: np.ndarray,
    g: np.ndarray,
    lengths,
) -> Iterator[np.ndarray]:
    """Yield the running sums S_N(j) = sum_{n<=N} nu(n) f(j + P(n)) g(j + Q(n))
    on Z/JZ for each N in lengths, which must increase strictly, as 2-d
    blocks of consecutive rows: row i of a block is the sum at the next
    length in order.

    f and g are the J values of two J-periodic signals.  From one
    class_masses pass, each class r of mass m_r adds m_r f(. + P(r))
    g(. + Q(r)), one J-long gather.  A block holds about _BLOCK_ELEMENTS
    elements (at least one row), is read-only and is never written again,
    so a caller may keep it or read the sums block by block in
    O(_BLOCK_ELEMENTS + J) memory.

    When f and g are real, integer-valued and max|f| max|g| lengths[-1]
    < 2^31, no running sum can leave int32: the blocks are int32 and every
    sum is exact by type.  Otherwise they are complex128.  Either way f, g
    and the masses are cast to that dtype once, and each row is the
    previous plus its segment's terms, summed in a fixed order without
    BLAS, so results do not depend on thread counts.
    """
    period = f.size
    if g.size != period:
        raise ValueError("signal periods differ")
    offsets, classes, weights = class_masses(table, period, lengths)
    a = residues(p_poly, period, lengths[-1])[classes]
    b = residues(q_poly, period, lengths[-1])[classes]
    dtype = np.complex128
    if _int32_signals(f, g, int(lengths[-1])):
        dtype, f, g = np.int32, np.real(f), np.real(g)
    f, g, weights = (x.astype(dtype, copy=False) for x in (f, g, weights))
    f_windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([f, f]), period)
    g_windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([g, g]), period)
    prev = np.zeros(period, dtype=dtype)
    rows = max(1, _BLOCK_ELEMENTS // period)
    for first in range(0, offsets.size - 1, rows):
        block = _add_rows(f_windows, g_windows, a, b, weights, offsets[first : first + rows + 1], prev)
        block.setflags(write=False)
        prev = block[-1]
        yield block


def _int32_signals(f: np.ndarray, g: np.ndarray, n_end: int) -> bool:
    """Whether f and g are real and integer-valued with
    max|f| max|g| n_end < 2^31.

    The masses of the classes of n <= n_end add up to at most n_end in
    absolute value, so under that bound every product, segment sum and
    running sum fits in int32.
    """
    bound = n_end
    for x in (f, g):
        if np.iscomplexobj(x):
            if np.any(x.imag):
                return False
            x = x.real
        if not np.all(np.isfinite(x)) or np.any(x != np.trunc(x)):
            return False
        bound *= int(np.max(np.abs(x)))
    return bound < 1 << 31


def _add_rows(f_windows, g_windows, a, b, weights, offsets, prev):
    """Running sums at the segments of offsets, after prev, in prev's
    dtype: the segment sums of the gathered terms, then one in-place add
    per row."""
    count = offsets.size - 1
    lo, hi = int(offsets[0]), int(offsets[-1])
    sizes = np.diff(offsets)
    if np.all(sizes == 1):  # one term per row
        block = f_windows[a[lo:hi]]
        block *= g_windows[b[lo:hi]]
        block *= weights[lo:hi, None]
    else:
        block = np.zeros((count, prev.size), dtype=prev.dtype)
        row_of = np.repeat(np.arange(count), sizes)
        step = max(1, _BLOCK_ELEMENTS // prev.size)
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            terms = f_windows[a[start:stop]]
            terms *= g_windows[b[start:stop]]
            terms *= weights[start:stop, None]
            owner = row_of[start - lo : stop - lo]
            heads = np.flatnonzero(np.diff(owner, prepend=-1))
            runs = np.diff(heads, append=stop - start)
            block[owner[heads[runs == 1]]] += terms[heads[runs == 1]]
            for first, size in zip(heads[runs > 1], runs[runs > 1]):
                block[owner[first]] += terms[first : first + size].sum(axis=0, dtype=prev.dtype)
    for row in block:
        np.add(row, prev, out=row)
        prev = row
    return block
