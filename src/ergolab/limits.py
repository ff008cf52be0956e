"""The tolerances, caps and capacity check that the command line reads
before it runs a command.

This module imports nothing, so a command loads numpy and the numerical
layers only when it runs them; `report` and a usage error load neither.
The numerical modules import these names from here, so
spectral.TOLERANCES, weights.CapacityError and the rest are these objects.
"""

# Tolerances in force for the dual-path identities (relative to
# max(1, reference magnitude)).
ROUNDTRIP_RTOL = 1e-12
PARSEVAL_RTOL = 1e-12
CONV_RTOL = 1e-9
SQUARE_IDENTITY_RTOL = 1e-9
KERNEL_CONSISTENCY_RTOL = 1e-9

TOLERANCES = {
    "roundtrip_rtol": ROUNDTRIP_RTOL,
    "parseval_rtol": PARSEVAL_RTOL,
    "conv_rtol": CONV_RTOL,
    "square_identity_rtol": SQUARE_IDENTITY_RTOL,
    "kernel_consistency_rtol": KERNEL_CONSISTENCY_RTOL,
}

# Largest spectral-check period.  It bounds time, not memory: a trial costs
# O(J^2 log J) in the blocked total-degree route and O(J min(J, N)) in the
# direct route, in a few MB of work arrays; at N = 1e5 that is about 6 s at
# J = 16384 and 23 s at J = 32768 (2-core machine, numpy 2.4).
MAX_CHECK_PERIOD = 16384

# Largest grid denominator the command line accepts: grid_scan allocates
# a q-long histogram and FFT, and a scan writes one row per grid point.
MAX_GRID_DENOMINATOR = 1 << 22

MAX_CYCLIC_PERIOD = 1 << 20  # maximal at J = 2^22 peaked at about 800 MB

#: Hard cap on one-block sieve size (1 B of values and 4 B of cofactor per n
#: while sieving, 8 B of cumsum after); the uint32 cofactor needs it < 2**32.
DEFAULT_LIMIT_CAP = 200_000_000


class CapacityError(RuntimeError):
    """Requested table exceeds the configured memory budget."""


def check_capacity(limit: int) -> None:
    """Raise CapacityError when limit is above DEFAULT_LIMIT_CAP."""
    if limit > DEFAULT_LIMIT_CAP:
        raise CapacityError(f"limit {limit} exceeds capacity cap {DEFAULT_LIMIT_CAP}")
