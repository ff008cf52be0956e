"""Residue-class folding of weighted orbit sums.

Every integer polynomial satisfies P(n + J) = P(n) (mod J), so an orbit sum

    sum_{lo <= n <= hi} nu(n) F(P_1(n) mod J, ..., P_k(n) mod J)

depends on the weights only through the class masses

    m_r = sum_{lo <= n <= hi, n = r (mod J)} nu(n),

and costs O(N + classes * (work per class)) instead of O(N * work per n).
This module owns the three pieces every folded route needs: the table
range check, the exact int64 class masses, and the class residues
P(r) mod J.  The class of n is n mod J; when J exceeds N every n <= N is
its own class, so a period larger than the sum length never costs more
than the unfolded sum.
"""

from __future__ import annotations

import numpy as np

from . import polynomials
from .polynomials import IntPolynomial
from .weights import WeightTable

# Elements per gather block in orbit_sums (bounds its temporaries to a few MB).
_BLOCK_ELEMENTS = 1 << 18


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
    table: WeightTable, period: int, lengths
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class masses of each segment lengths[k-1] < n <= lengths[k].

    The first segment starts at n = 1.  Returns (offsets, classes,
    masses): entries offsets[k]:offsets[k+1] are the classes r = n mod
    period with a nonzero mass in segment k, and their exact int64
    masses.  A segment shorter than the period is not folded, since each
    of its n is its own class; either way a segment of L terms has at
    most min(L, period) entries, so work spent per entry is never more
    than work spent per term.
    """
    if period < 1:
        raise ValueError("period must be at least 1")
    bounds = np.array([0, *lengths], dtype=np.int64)
    spans = np.diff(bounds)
    if spans.size == 0 or np.any(spans < 1):
        raise ValueError("lengths must be nonempty and strictly increasing")
    check_length(table, int(bounds[-1]))
    values = table.values
    segment_ids, classes, masses = [], [], []

    # Short segments all at once, one entry per n: entry i of the
    # concatenated ranges is n = i + (segment start - entries before it).
    short = np.flatnonzero(spans < period)
    sizes = spans[short]
    shift = bounds[short] + 1 - (np.cumsum(sizes) - sizes)
    n = np.repeat(shift, sizes) + np.arange(sizes.sum())
    segment_ids.append(np.repeat(short, sizes))
    classes.append(n % period)
    masses.append(values[n].astype(np.int64))

    # Long segments one at a time: lay n = lo..hi out row by row in a
    # (rows, period) grid whose column is n mod period, then sum columns.
    for k in np.flatnonzero(spans >= period):
        lo, size = int(bounds[k]) + 1, int(spans[k])
        head = lo % period
        grid = np.zeros(-(-(head + size) // period) * period, dtype=values.dtype)
        grid[head : head + size] = values[lo : lo + size]
        segment_ids.append(np.full(period, k))
        classes.append(np.arange(period, dtype=np.int64))
        masses.append(grid.reshape(-1, period).sum(axis=0, dtype=np.int64))

    segment_ids, classes, masses = map(np.concatenate, (segment_ids, classes, masses))
    keep = masses != 0
    order = np.argsort(segment_ids[keep], kind="stable")
    segment_ids = segment_ids[keep][order]
    offsets = np.searchsorted(segment_ids, np.arange(spans.size + 1))
    return offsets, classes[keep][order], masses[keep][order]


def orbit_sums(
    f: np.ndarray,
    g: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    masses: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Running sums S_k(j) = sum_r M_k(r) f(j + a_r) g(j + b_r) on Z/JZ.

    f and g are the J values of two J-periodic signals, a and b the class
    residues of P and Q mod J (from ``residues``), and M_k the masses of
    segments 0..k (``masses`` as ``class_masses`` returns them).  Row k of
    the result belongs to segment k.  Each class costs one J-long gather
    of the cyclic shifts f(. + a_r) g(. + b_r), done in blocks of classes
    to bound memory.
    Accumulation is in a fixed order without BLAS, so results do not depend
    on thread counts; with integer-valued signals every sum is exact.
    """
    period = f.size
    f_windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([f, f]), period)
    g_windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([g, g]), period)
    block = max(1, _BLOCK_ELEMENTS // period)
    offsets, classes, weights = masses
    sums = np.empty((offsets.size - 1, period), dtype=np.complex128)
    running = np.zeros(period, dtype=np.complex128)
    for row in range(offsets.size - 1):
        for start in range(offsets[row], offsets[row + 1], block):
            stop = min(start + block, offsets[row + 1])
            sel = classes[start:stop]
            prod = f_windows[a[sel]] * g_windows[b[sel]]
            running += np.einsum("n,nj->j", weights[start:stop], prod)
        sums[row] = running
    return sums
