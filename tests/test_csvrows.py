"""The CSV writer's float cells: every float64 as repr() writes it."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import csvrows, expsums
from ergolab.polynomials import IntPolynomial
from ergolab.weights import WeightKind, sieve


def _written(*columns) -> str:
    out = io.StringIO()
    csvrows._write_rows(out, list(columns))
    return out.getvalue()


def _per_cell(*columns) -> str:
    cells = [list(c) if isinstance(c, range) else c.tolist() for c in columns]
    return "".join(",".join(map(str, row)) + "\n" for row in zip(*cells))


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
def test_float_cells_are_their_repr(values):
    column = _column(values)
    assert _written(column) == "".join(repr(v) + "\n" for v in values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_float_cells_of_any_bit_pattern_are_their_repr(bits):
    column = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _written(column) == "".join(repr(v) + "\n" for v in column.tolist())


def _neighbours(values, ulps=2) -> list:
    """Each value and its ulps nearest floats on each side, both signs."""
    out = []
    for value in values:
        below = above = value
        out.append(value)
        for _ in range(ulps):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
    return out + [-v for v in out]


EDGE_FAMILIES = {
    # the gap below a power of two is half the gap above it: every one
    "powers of two": _neighbours([2.0**e for e in range(-1074, 1024)], ulps=1),
    "powers of ten": _neighbours([float(f"1e{k}") for k in range(-8, 23)]),
    # repr switches to scientific form below 1e-4 and from 1e16 on
    "form switches": _neighbours([1e-5, 1e-4, 9.99999e-5, 1.00001e-4, 1e16, 1e17,
                                  9999999999999998.0, 1.0000000000000002e16, 123456789012345680.0]),
    # X exactly halfway between two shortest candidates: repr rounds to even
    "halfway ties": [1.00000762939453125, 1.0000076293945312, 1.0000152587890625,
                     0.5 + 2.0**-30, 1 + 2.0**-20, 3 + 2.0**-18, 1.5 + 2.0**-19,
                     2.0**-10 + 2.0**-40, 1024 + 2.0**-8, 9007199254740993 / 2.0**40],
    # 10^s is a double for s <= 22: |x| from about 1e-6 to 1e17 stays exact
    "exact range ends": _neighbours([1e-6, 9.999999e-7, 1.0000001e-6, 1e-7, 5e-7, 1e17 - 16,
                                     99999999999999984.0, 1.2e17, 0.5e-6], ulps=3),
    "zeros and specials": [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                           2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308],
    "short decimals": [0.1, 0.2, 0.3, 1.1, 2.5, 100.0, 1e3, 123.456, 0.001, 0.0001, 1234567.0,
                       4.35, 0.07, 1e15, 999999999999999.9, 123456789012345.6],
}


@pytest.mark.parametrize("family", sorted(EDGE_FAMILIES))
def test_float_edge_families_are_their_repr(family):
    values = EDGE_FAMILIES[family]
    column = _column(values)
    assert _written(column) == "".join(repr(v) + "\n" for v in values)


def test_a_row_left_to_repr_may_be_wider_than_the_block():
    # the fields fit "1.0"; the row of 5e-324 is written by str.format
    column = _column([1.0, 2.0, 5e-324, 3.0])
    assert csvrows._shortest(column)[3].tolist() == [False, False, True, False]
    assert _written(range(4), column) == "0,1.0\n1,2.0\n2,5e-324\n3,3.0\n"


@st.composite
def mixed_blocks(draw):
    """Equal-length integer and float columns, a few cells left to repr."""
    rows = draw(st.integers(1, 16))
    floats = st.one_of(st.floats(), st.sampled_from(EDGE_FAMILIES["halfway ties"]))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            cells = draw(st.lists(floats, min_size=rows, max_size=rows))
            columns.append(np.array(cells, dtype=np.float64))
        else:
            cells = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows))
            columns.append(np.array(cells, dtype=np.int64))
    return columns


@settings(max_examples=150, deadline=None)
@given(mixed_blocks(), st.integers(1, 5))
def test_mixed_blocks_at_the_block_edges(columns, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csvrows, "_CSV_BLOCK_ROWS", block)
        assert _written(range(len(columns[0])), *columns) == _per_cell(range(len(columns[0])), *columns)


@pytest.mark.parametrize("rows", [1, csvrows._CSV_BLOCK_ROWS - 1, csvrows._CSV_BLOCK_ROWS,
                                  csvrows._CSV_BLOCK_ROWS + 1, 2 * csvrows._CSV_BLOCK_ROWS + 1])
def test_mixed_blocks_at_the_block_size(rows):
    # every edge family and random floats cycled down the columns, with
    # integers of both signs; rows left to repr fall in every block
    rng = np.random.default_rng(rows)
    edges = np.array([v for family in EDGE_FAMILIES.values() for v in family])
    floats = np.resize(np.concatenate([edges, rng.normal(size=997)]), rows)
    with np.errstate(over="ignore"):  # the largest doubles are float32 infinities
        single = floats.astype(np.float32)
    columns = [range(rows), rng.integers(-(10**12), 10**12, rows), floats,
               rng.random(rows) * 10.0 ** rng.integers(-7, 18, rows), single]
    assert _written(*columns) == _per_cell(*columns)


def test_benchmark_scan_columns_leave_few_cells_to_repr():
    # expsum scan --poly 0,0,1 --n-max 1048576 --grid-den 65536 writes
    # 65536 x 4 floats; the kernel settles all but those below about 1e-6
    q, n_max = 65536, 1048576
    values = expsums.grid_scan(sieve(WeightKind.MOBIUS, n_max), IntPolynomial((0, 0, 1)), q, n_max)
    columns = [2.0 * np.pi * np.arange(q) / q, *csvrows._re_im_abs(values)]
    x = np.concatenate(columns)
    odd = csvrows._shortest(x)[3]
    assert odd.sum() <= 200, odd.sum()
    assert _written(*columns) == _per_cell(*columns)
