"""Numerical laboratory for weighted arithmetic averages.

Subpackages cover: multiplicative weight sieves (Mobius, Liouville),
exact integer polynomials, weighted polynomial exponential sums with
grid maximization, a finitary Fourier engine on Z/JZ with dual-path
cross-validation, weighted bilinear ergodic averages on cyclic and
rotation systems, and lacunary maximal/oscillation statistics.
"""

__version__ = "0.1.0"

# Re-exports, each imported from its module on first access (PEP 562), so
# that importing the package, as the command line does, loads no numpy.
_EXPORTS = {
    "WeightKind": "weights",
    "WeightTable": "weights",
    "sieve": "weights",
    "partial_sum": "weights",
    "IntPolynomial": "polynomials",
    "parse_poly": "polynomials",
    "PeriodicSignal": "spectral",
    "Spectrum": "spectral",
    "dft": "spectral",
    "idft": "spectral",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
