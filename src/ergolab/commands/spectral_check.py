"""spectral-check: the dual-path Fourier identity check, JSON report."""

from __future__ import annotations

import numpy as np

from .. import rng, spectral
from ..cli import _poly, _table, _write_report
from ..limits import TOLERANCES
from ..spectral import PeriodicSignal


def _pooled_map(fn, items, threads: int):
    """Order-preserving map; the pool size never affects the output."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # loads logging; only pools need it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def run(config: dict) -> int:
    period, n_max = config["j"], config["n"]
    p_poly = _poly(config, "poly_p")
    q_poly = _poly(config, "poly_q")
    table = _table(config, n_max)
    l_kernel = spectral.build_kernels(table, p_poly, q_poly, n_max, period)

    def one_trial(index: int) -> dict:
        f = PeriodicSignal.seeded_complex(period, rng.derive_seed(config["seed"], 2 * index))
        g = PeriodicSignal.seeded_complex(period, rng.derive_seed(config["seed"], 2 * index + 1))
        f_spec, g_spec = spectral.dft(f), spectral.dft(g)
        back = spectral.idft(f_spec)
        roundtrip = float(np.max(np.abs(back.values - f.values)))
        parseval = abs(
            float(np.mean(np.abs(f.values) ** 2)) - float(np.sum(np.abs(f_spec.coeffs) ** 2))
        )
        total = l_kernel.total_degree(f.values, g.values)
        if config["inject_fault"]:  # what adding 1e-3 to D[1][1] adds to c
            i = 1 % period
            total[2 * i % period] += 1e-3 * f_spec.coeffs[i] * g_spec.coeffs[i]
        a_spec = spectral.idft(spectral.Spectrum(period, total))
        a_dir = spectral.direct_average_all(table, p_poly, q_poly, f, g, n_max)
        scale = max(1.0, float(np.max(np.abs(a_dir.values))))
        conv = float(np.max(np.abs(a_spec.values - a_dir.values))) / scale
        sq_spec = float(np.sum(np.abs(total) ** 2))
        sq_dir = float(np.mean(np.abs(a_dir.values) ** 2))
        square = abs(sq_spec - sq_dir) / max(1.0, sq_dir)
        return {
            "trial": index,
            "roundtrip_error": roundtrip,
            "parseval_error": parseval,
            "conv_error": conv,
            "square_identity_error": square,
        }

    trials = _pooled_map(one_trial, list(range(config["trials"])), config["threads"])
    results = {
        "max_conv_error": max(t["conv_error"] for t in trials),
        "max_square5_error": max(t["square_identity_error"] for t in trials),
        "parseval_error": max(t["parseval_error"] for t in trials),
        "roundtrip_error": max(t["roundtrip_error"] for t in trials),
        "per_trial": trials,
    }
    violated = (
        results["max_conv_error"] > TOLERANCES["conv_rtol"]
        or results["max_square5_error"] > TOLERANCES["square_identity_rtol"]
        or results["parseval_error"] > TOLERANCES["parseval_rtol"]
        or results["roundtrip_error"] > TOLERANCES["roundtrip_rtol"]
    )
    status = "invariant_violation" if violated else "ok"
    _write_report(config, results, status=status)
    return 2 if violated else 0
