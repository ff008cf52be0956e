import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import rng
from ergolab.polynomials import (
    MAX_DEGREE,
    IntPolynomial,
    eval_mod,
    eval_mod_range,
    parse_poly,
)

SQUARE = IntPolynomial((0, 0, 1))
LINEAR = IntPolynomial((0, 1))


def test_eval_mod_small_cases():
    assert eval_mod(SQUARE, 5, 7) == 4
    j = 1024
    assert eval_mod(LINEAR, j + 3, j) == 3


def test_eval_mod_big_modulus_matches_big_integer_oracle():
    poly = IntPolynomial((0, 2, 0, 1))  # n^3 + 2n
    n, m = 10**9, 2**32 - 5
    assert eval_mod(poly, n, m) == (n**3 + 2 * n) % m


def test_eval_mod_random_triples_against_big_integers():
    coeff_pool = rng.integers_mod(71, 400, 2_000_001)
    ns = rng.integers_mod(72, 100, 10**12)
    ms = rng.integers_mod(73, 100, 2**40) + 1
    for i in range(100):
        coeffs = tuple(int(c) - 1_000_000 for c in coeff_pool[4 * i : 4 * i + 4])
        if all(c == 0 for c in coeffs[1:]):
            coeffs = coeffs[:1] + (1,)
        poly = IntPolynomial(coeffs)
        n, m = int(ns[i]), int(ms[i])
        assert eval_mod(poly, n, m) == poly(n) % m


def test_eval_mod_range_matches_scalar():
    poly = IntPolynomial((3, -2, 0, 5))
    ns = np.arange(0, 5000, dtype=np.int64) * 997
    for m in (1, 2, 97, 4096, 3_000_000_000):
        vec = eval_mod_range(poly, ns, m)
        scalars = [eval_mod(poly, int(n), m) for n in ns[::311]]
        assert np.array_equal(vec[::311], np.array(scalars))


def test_eval_mod_range_fallback_for_huge_modulus():
    poly = IntPolynomial((1, 1, 1))
    ns = np.array([10**9, 10**9 + 1], dtype=np.int64)
    m = 2**61 - 1
    vec = eval_mod_range(poly, ns, m)
    assert vec[0] == poly(10**9) % m
    assert vec[1] == poly(10**9 + 1) % m


# Largest modulus whose Horner steps fit in int64 for every argument.
INT64_HORNER_MAX = 3_037_000_499
INT64 = st.integers(-(2**63), 2**63 - 1)
moduli = st.one_of(
    st.integers(1, 1000),
    st.integers(INT64_HORNER_MAX - 1000, INT64_HORNER_MAX + 1000),
    st.integers(2**63 - 1000, 2**63 + 1000),
    st.just(2**80 + 1),
)


@st.composite
def wide_polys(draw):
    degree = draw(st.integers(1, MAX_DEGREE))
    coeffs = draw(st.lists(INT64, min_size=degree, max_size=degree))
    lead = draw(INT64.filter(bool))
    return IntPolynomial((*coeffs, lead))


# arguments whose residues stay small, as the classes of a short window do
SMALL_OR_ANY = st.one_of(st.integers(0, 3 * 10**6), INT64)


@settings(max_examples=200, deadline=None)
@given(wide_polys(), st.lists(SMALL_OR_ANY, min_size=1, max_size=40), moduli, INT64)
def test_eval_mod_range_is_exact_for_every_modulus(poly, ns, m, scale):
    # int64 exactly when each Horner step, at most
    # (m - 1) * max(n mod m) + (m - 1), fits; always for m <= INT64_HORNER_MAX
    vec = eval_mod_range(poly, np.array(ns, dtype=np.int64), m)
    fits = m < 2**63 and (m - 1) * max(n % m for n in ns) + (m - 1) < 2**63
    assert vec.dtype == (np.int64 if fits else object)
    assert fits or m > INT64_HORNER_MAX
    assert [int(v) for v in vec] == [eval_mod(poly, n, m) for n in ns]
    scaled = eval_mod_range(poly, np.array(ns, dtype=np.int64), m, scale)
    assert scaled.dtype == vec.dtype
    assert [int(v) for v in scaled] == [scale * eval_mod(poly, n, m) % m for n in ns]


def test_eval_mod_is_periodic_in_n():
    # P(n + m) == P(n) mod m for integer-coefficient polynomials.
    for poly in (LINEAR, SQUARE, IntPolynomial((7, -3, 2, 1))):
        for m in (5, 64, 997):
            for n in (0, 3, 123):
                assert eval_mod(poly, n + m, m) == eval_mod(poly, n, m)


def test_eval_mod_rejects_zero_modulus():
    with pytest.raises(ValueError):
        eval_mod(LINEAR, 3, 0)


def test_constructor_trims_and_validates():
    assert IntPolynomial((0, 1, 0)).degree == 1
    with pytest.raises(ValueError):
        IntPolynomial((5,))
    with pytest.raises(ValueError):
        IntPolynomial((0, 0))
    with pytest.raises(ValueError):
        IntPolynomial(tuple([0] + [1] * 9))
    with pytest.raises(ValueError):
        IntPolynomial((0, 2**63))


def test_parse_poly():
    poly = parse_poly("0,0,1")
    assert poly == SQUARE
    assert parse_poly("0, -1").coeffs == (0, -1)
    assert parse_poly(",".join(map(str, poly.coeffs))) == poly
    with pytest.raises(ValueError):
        parse_poly("0,x,1")
