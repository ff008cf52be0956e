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
maximal statistics, dynamics averages, exponential-sum scans) reads it
through class_masses, once per command: one segmented pass over all the
lengths a caller needs.  A segment is folded only when it spans the
period and holds two or more nonzero terms; otherwise each nonzero n is
its own class, so folding never costs more than the unfolded sum.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

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
    masses.  A segment spanning at least the period and holding two or
    more nonzero terms is folded, its classes in increasing order; any
    other lists its nonzero n in order, each its own class.  So a segment
    of L terms has at most min(L, period) entries.
    """
    if period < 1:
        raise ValueError("period must be at least 1")
    bounds = np.concatenate(([0], np.asarray(lengths, dtype=np.int64)))
    spans = np.diff(bounds)
    if spans.size == 0 or np.any(spans < 1):
        raise ValueError("lengths must be nonempty and strictly increasing")
    check_length(table, int(bounds[-1]))
    # Past the last n every n is its own class; this keeps periods in int64.
    period = min(period, int(bounds[-1]) + 1)
    values = table.values
    sizes, classes, masses = [], [], []
    first = 0
    # A segment of one n holds at most one term, so it is never folded.
    for k in np.append(np.flatnonzero(spans >= max(period, 2)), spans.size):
        if k < spans.size and np.count_nonzero(values[bounds[k] + 1 : bounds[k + 1] + 1]) < 2:
            continue
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
    offsets = np.cumsum(np.concatenate([[0], *sizes]))
    return offsets, np.concatenate(classes), np.concatenate(masses)


def orbit_sums(
    table: WeightTable,
    p_poly: IntPolynomial,
    q_poly: IntPolynomial,
    f: np.ndarray,
    g: np.ndarray,
    lengths,
) -> Iterator[np.ndarray]:
    """Yield the running sums S_N(j) = sum_{n<=N} nu(n) f(j + P(n)) g(j + Q(n))
    on Z/JZ for each N in lengths, which must increase strictly.

    f and g are the J values of two J-periodic signals.  From one
    class_masses pass, each class r of mass m_r adds m_r f(. + P(r))
    g(. + Q(r)), one J-long gather (einsum over blocks of classes where a
    segment has several).  Each yield is read-only and never written
    again, so a caller may keep it or read the sums one at a time in O(J)
    memory; lengths with no new term between them may yield the same
    array.  The order is fixed and BLAS-free, so results do not depend on
    thread counts; with integer-valued signals every sum is exact.
    """
    period = f.size
    if g.size != period:
        raise ValueError("signal periods differ")
    offsets, classes, weights = class_masses(table, period, lengths)
    a = residues(p_poly, period, lengths[-1])[classes]
    b = residues(q_poly, period, lengths[-1])[classes]
    f_windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([f, f]), period)
    g_windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([g, g]), period)
    block = max(1, _BLOCK_ELEMENTS // period)
    running = np.zeros(period, dtype=np.complex128)
    for start, stop in itertools.pairwise(offsets):
        if stop == start + 1:  # one class, without einsum's per-call cost
            step = f_windows[a[start]].copy()
            step *= g_windows[b[start]]  # in place like prod: out of place, J = 1 rounds apart
            m = weights[start]
            if abs(m) != 1:
                step *= abs(m)
            # running +/- |m| step: einsum's bits of running + m step for finite signals
            running = (np.add if m > 0 else np.subtract)(running, step, out=step)
        else:
            for lo in range(start, stop, block):
                hi = min(lo + block, stop)
                prod = f_windows[a[lo:hi]]
                prod *= g_windows[b[lo:hi]]
                running = running + np.einsum("n,nj->j", weights[lo:hi], prod)
        running.setflags(write=False)
        yield running
