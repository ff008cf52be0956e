import numpy as np
import pytest
from hypothesis import strategies as st

from ergolab.polynomials import MAX_DEGREE, IntPolynomial
from ergolab.weights import WeightKind, sieve


@pytest.fixture(scope="session")
def mobius_100k():
    return sieve(WeightKind.MOBIUS, 100_000)


@pytest.fixture(scope="session")
def liouville_100k():
    return sieve(WeightKind.LIOUVILLE, 100_000)


@pytest.fixture(scope="session")
def mobius_1m():
    # 2^20 > 10^6 so the same table serves dyadic scan lengths too.
    return sieve(WeightKind.MOBIUS, 1 << 20)


def max_rel_error(actual: np.ndarray, reference: np.ndarray) -> float:
    """Max abs difference scaled by max(1, largest reference magnitude)."""
    scale = max(1.0, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(reference)))) / scale


@st.composite
def polys(draw, max_degree=MAX_DEGREE):
    """Integer polynomials of degree 1..max_degree, negative coefficients included."""
    degree = draw(st.integers(1, max_degree))
    coeffs = draw(st.lists(st.integers(-50, 50), min_size=degree, max_size=degree))
    lead = draw(st.integers(-50, 50).filter(bool))
    return IntPolynomial((*coeffs, lead))
