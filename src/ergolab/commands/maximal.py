"""maximal: maximal and oscillation statistics on Z/JZ, JSON report."""

from __future__ import annotations

import numpy as np

from .. import maximal, rng
from ..cli import UsageError, _poly, _table, _write_report
from ..limits import check_capacity
from ..spectral import PeriodicSignal

# Most element updates a maximal run may ask for, max(J, 512) times the
# sum of min(N_k - N_{k-1}, J) over its orbit_sums lengths: 12 to 15 s of
# global mode with +-1 signals (int32 sums) on a 2-core machine.
MAX_WORK = 1 << 32


def run(config: dict) -> int:
    period = config["j"]
    phi = PeriodicSignal.seeded_pm1(period, rng.derive_seed(config["seed"], 0))
    psi = PeriodicSignal.seeded_pm1(period, rng.derive_seed(config["seed"], 1))
    p_poly = _poly(config, "poly_p")
    q_poly = _poly(config, "poly_q")
    mode, n_top = config["mode"], config["n_max"]
    if mode in ("band", "oscillation") or not n_top:  # the modes that read the ladder
        try:
            ladder = maximal.LacunaryLadder.build(config["rho"], 1 << 24, band_count=config["bands"])
        except ValueError as exc:
            raise UsageError(f"--rho/--bands: {exc}") from None
        n_top = n_top or ladder.bands[-1]
    if mode in ("band", "oscillation"):  # one orbit_sums pass over the members
        n_read = ladder.bands[-1]
        spans = np.diff(ladder.members_between(ladder.bands[0], n_read), prepend=0)
        terms = int(np.minimum(spans, period).sum())
    else:  # one orbit_sums row per nonzero weight
        n_read = terms = n_top
    check_capacity(n_read)  # a table past the sieve cap reports that first
    # Below J = 512 a J-long update costs about as much as a 512-long one.
    work = max(period, 512) * terms
    if work > MAX_WORK:
        raise UsageError(f"--j {period} over {terms} terms is {work} element updates, "
                         f"at most {MAX_WORK}")
    table = _table(config, n_read)
    if mode == "band":
        peaks = maximal.band_peaks(phi, psi, p_poly, q_poly, table, ladder, ladder.band_count)
        signals = (PeriodicSignal(period, peak) for peak in peaks)
        results = {"bands": [
            {"band": k, "endpoints": list(ladder.band(k)),
             "l2_norm": m.norm(2), "max": m.norm(np.inf)}
            for k, m in enumerate(signals, 1)
        ]}
    elif mode == "oscillation":
        report = maximal.oscillation_sum(
            phi, psi, p_poly, q_poly, table, ladder, config["bands"]
        )
        results = {
            "band_l2_norms": list(report.band_l2_norms),
            "cumulative": list(report.cumulative),
            "ratios": list(report.ratios),
            "norm4_product": report.norm4_product,
        }
    elif mode == "global":
        signal = maximal.global_maximal(phi, psi, p_poly, q_poly, table, n_top)
        results = {
            "n_max": n_top,
            "l2_norm": signal.norm(2),
            "l4_norm": signal.norm(4),
            "max": signal.norm(np.inf),
        }
    else:
        grid = maximal.default_lambda_grid(phi, psi)
        report = maximal.weak_type_statistic(
            phi, psi, p_poly, q_poly, table, n_top, grid
        )
        results = {
            "n_max": n_top,
            "statistic": report.statistic,
            "lambda_at_max": report.lambda_at_max,
            "norm_product": report.norm_product,
            "ratio": report.ratio,
        }
    _write_report(config, results)
    return 0
