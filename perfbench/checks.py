"""Output checks for the benchmark commands.

Every check reads one output file and raises ``CheckFailure`` if the
output is wrong.  The references never call ergolab: weights come from
the trial-division and Mertens oracles in ``tests/oracles.py``, seeded
signals from a plain-integer SplitMix64 written here from the README's
definition, and sums from plain loops or from numpy on those inputs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np


class CheckFailure(Exception):
    """An output disagrees with its reference."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


class Context:
    """What the checks of one run share: oracles, seed and measured notes."""

    def __init__(self, root: Path, seed: int, oracle_limit: int):
        spec = importlib.util.spec_from_file_location("bench_oracles", root / "tests" / "oracles.py")
        self.oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.oracles)
        self.seed = seed
        self.oracle_limit = oracle_limit
        self._tables = None
        self.conv_headroom: list[float] = []

    def weights(self, weight: str, limit: int) -> np.ndarray:
        """Oracle mobius or liouville values for n = 0..limit (index = n)."""
        if self._tables is None or self._tables[0].size <= limit:
            self.oracle_limit = max(self.oracle_limit, limit)
            self._tables = self.oracles.trial_division_tables(self.oracle_limit)
        mobius, liouville = self._tables
        return (mobius if weight == "mobius" else liouville)[: limit + 1]


# ---------------------------------------------------- independent inputs --

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _derive_seed(seed: int, index: int) -> int:
    return _mix64((seed & _MASK) ^ _mix64(index + 1))


def _pm1(seed: int, count: int) -> np.ndarray:
    """Sign of the top bit of each SplitMix64 output, as +1 / -1 integers."""
    return np.array(
        [1 - 2 * (_mix64(seed + (i + 1) * _GAMMA) >> 63) for i in range(count)], dtype=np.int64
    )


def _poly(spec: str):
    coeffs = [int(c) for c in spec.split(",")]
    return lambda n: sum(c * n**i for i, c in enumerate(coeffs))


def _grid_values(weights: np.ndarray, n_max: int, denominator: int) -> np.ndarray:
    """(1/N) sum nu(n) e^{2 pi i a n^2 / q} for every a, by histogram + FFT."""
    n = np.arange(1, n_max + 1, dtype=np.int64) % denominator
    hist = np.bincount(n * n % denominator, weights=weights[1 : n_max + 1], minlength=denominator)
    return np.fft.ifft(hist) * (denominator / n_max)


# ------------------------------------------------------------- file forms --

def _csv(path: Path, header: str, dtype=np.float64) -> np.ndarray:
    text = path.read_text(encoding="utf-8")
    first, _, body = text.partition("\n")
    _require(first == header, f"{path.name}: header {first!r}, expected {header!r}")
    columns = header.count(",") + 1
    values = np.fromstring(body.replace("\n", ","), dtype=dtype, sep=",")
    _require(values.size % columns == 0, f"{path.name}: ragged rows")
    return values.reshape(-1, columns)


def _options(args: list[str]) -> dict:
    """Flag name (without --) -> value; a flag with no value maps to True."""
    options = {}
    for i, token in enumerate(args):
        if token.startswith("--"):
            value = args[i + 1] if i + 1 < len(args) else "--"
            options[token[2:]] = True if value.startswith("--") else value
    return options


def _report(path: Path, args: list[str]) -> dict:
    """Parsed JSON report with status ok whose configuration echoes args."""
    report = json.loads(path.read_text(encoding="utf-8"))
    _require(report.get("status") == "ok", f"{path.name}: status {report.get('status')!r}")
    for key, value in _options(args).items():
        got = report["config"].get(key.replace("-", "_"))
        same = str(got) == str(value) or (isinstance(got, float) and got == float(value))
        _require(key == "inputs" or same, f"{path.name}: config {key}={got!r}, asked {value!r}")
    return report


# ----------------------------------------------------------------- checks --

def sieve(path: Path, args: list[str], ctx: Context) -> None:
    """Every value and partial sum against trial division; the last partial
    sum also against the Mertens recurrence (liouville = sum over d^2 | n
    of mobius(n / d^2), so L(x) = sum_d M(x // d^2))."""
    opt = _options(args)
    limit, weight = int(opt["limit"]), opt["weight"]
    rows = _csv(path, "n,value,partial_sum", np.int64)
    oracle = ctx.weights(weight, limit).astype(np.int64)
    _require(rows.shape[0] == limit, f"{path.name}: {rows.shape[0]} rows, expected {limit}")
    _require(np.array_equal(rows[:, 0], np.arange(1, limit + 1)), f"{path.name}: n column")
    bad = np.nonzero(rows[:, 1] != oracle[1:])[0]
    _require(bad.size == 0, f"{path.name}: value wrong at n={bad[:1] + 1}")
    bad = np.nonzero(rows[:, 2] != np.cumsum(oracle[1:]))[0]
    _require(bad.size == 0, f"{path.name}: partial sum wrong at n={bad[:1] + 1}")
    mobius_sums = np.cumsum(ctx.weights("mobius", limit).astype(np.int64))
    small = 10_000  # below this, M(y) comes from the trial-division table
    x = random.Random(ctx.seed).randint(small, limit)
    for n in (x, limit):
        if weight == "mobius":
            expected = ctx.oracles.mertens_recurrence(n)
        else:
            parts = (n // d**2 for d in range(1, math.isqrt(n) + 1))
            expected = sum(ctx.oracles.mertens_recurrence(y) if y > small else mobius_sums[y] for y in parts)
        _require(rows[n - 1, 2] == expected, f"{path.name}: partial sum at {n} is not {expected}")


def spectral(path: Path, args: list[str], ctx: Context) -> None:
    """Status ok and every identity error within the tolerance the report embeds."""
    report = _report(path, args)
    tol, results = report["tolerances"], report["results"]
    for error, bound in (
        ("max_conv_error", "conv_rtol"),
        ("max_square5_error", "square_identity_rtol"),
        ("parseval_error", "parseval_rtol"),
        ("roundtrip_error", "roundtrip_rtol"),
    ):
        _require(0.0 <= results[error] <= tol[bound], f"{path.name}: {error} {results[error]!r}")
    _require(len(results["per_trial"]) == int(_options(args)["trials"]), f"{path.name}: trial count")
    ctx.conv_headroom.append(
        math.log10(tol["conv_rtol"] / max(results["max_conv_error"], 2.0**-52))
    )


def _ladder(rho: float, limit: int) -> list[int]:
    members, n = [], 0
    while math.floor(rho**n) <= limit:
        value = math.floor(rho**n)
        if not members or value > members[-1]:
            members.append(value)
        n += 1
    return members


def _observable(spec: str, system: str) -> tuple[np.ndarray, int]:
    """Observable values on the states of the system, and the state count."""
    kind, _, rest = spec.partition(":")
    if system.startswith("cyclic:"):
        period = int(system.partition(":")[2])
        _require(kind == "pm1", f"no reference for observable {spec!r}")
        return _pm1(int(rest), period).astype(np.complex128), period
    q = int(system.partition("/")[2])
    values = np.zeros(q, dtype=np.complex128)
    for part in rest.split(";"):
        mode, _, coeff = part.partition("=")
        k = np.arange(q, dtype=np.int64)
        values += complex(coeff) * np.exp(2j * np.pi * ((int(mode) % q) * k % q) / q)
    return values, q


def average(path: Path, args: list[str], ctx: Context, max_checked: int = 1 << 16) -> None:
    """Row layout, then three seeded (start, N) rows with N <= max_checked
    against the plain-loop oracle to 1e-9."""
    opt = _options(args)
    rows = _csv(path, "start,n,re,im,abs")
    members = _ladder(float(opt["rho"]), int(opt["limit"]))
    starts = int(opt["starts"])
    _require(rows.shape[0] == starts * len(members), f"{path.name}: {rows.shape[0]} rows")
    _require(np.array_equal(rows[:, 1], np.tile(members, starts)), f"{path.name}: ladder column")
    _require(np.allclose(rows[:, 4], np.hypot(rows[:, 2], rows[:, 3]), rtol=1e-12, atol=0),
             f"{path.name}: abs column")
    system = opt["system"]
    f, period = _observable(opt["f"], system)
    g, _ = _observable(opt["g"], system)
    step = 1 if system.startswith("cyclic:") else int(system.partition(":")[2].partition("/")[0])
    p, q = _poly(opt["poly-p"]), _poly(opt["poly-q"])
    weights = ctx.weights(opt.get("weight", "mobius"), max_checked)
    eligible = [i for i in range(rows.shape[0]) if rows[i, 1] <= max_checked]
    for i in random.Random(ctx.seed).sample(eligible, 3):
        start, n_max = int(rows[i, 0]), int(rows[i, 1])
        expected = ctx.oracles.naive_bilinear_average(
            weights, lambda n: step * p(n), lambda n: step * q(n), f, g, period, n_max, start
        )
        got = complex(rows[i, 2], rows[i, 3])
        _require(abs(got - expected) <= 1e-9, f"{path.name}: A_{n_max}({start}) = {got}, oracle {expected}")


def oscillation(path: Path, args: list[str], ctx: Context, max_checked: int = 256) -> None:
    """Band l2 norms, running sums and ratios of the first bands, exactly."""
    results = _report(path, args)["results"]
    opt = _options(args)
    period, bands = int(opt["j"]), int(opt["bands"])
    _require(len(results["band_l2_norms"]) == bands, f"{path.name}: band count")
    _require(results["norm4_product"] == 1.0, f"{path.name}: norm4_product of +-1 signals")
    phi = _pm1(_derive_seed(ctx.seed, 0), period)
    psi = _pm1(_derive_seed(ctx.seed, 1), period)
    members = _ladder(float(opt["rho"]), 1 << 24)[: bands + 1]
    members = [m for m in members if m <= max_checked]
    weights = ctx.weights("mobius", members[-1]).astype(np.int64)
    j = np.arange(period)
    sums, running = {}, np.zeros(period, dtype=np.int64)
    for n in range(1, members[-1] + 1):  # P(n) = n, Q(n) = -n
        running += weights[n] * phi[(j + n) % period] * psi[(j - n) % period]
        sums[n] = running.copy()
    norms = []
    for lo, hi in zip(members, members[1:]):
        base = sums[lo] / lo
        peak = np.zeros(period)
        for n in (m for m in members if lo <= m <= hi):
            np.maximum(peak, np.abs(sums[n] / n - base), out=peak)
        norms.append(float(np.sqrt(np.mean(peak**2))))
    k = len(norms)
    cumulative = np.cumsum(norms)
    ratios = cumulative / np.sqrt(np.arange(1, k + 1, dtype=np.float64))
    _require(results["band_l2_norms"][:k] == norms, f"{path.name}: band norms")
    _require(results["cumulative"][:k] == cumulative.tolist(), f"{path.name}: cumulative")
    _require(results["ratios"][:k] == ratios.tolist(), f"{path.name}: ratios")


def global_maximal(path: Path, args: list[str], ctx: Context) -> None:
    """For +-1 signals |A_1(j)| = 1 and |A_N(j)| <= 1, so the maximal
    function is identically 1 and every norm of it is exactly 1."""
    results = _report(path, args)["results"]
    for key in ("l2_norm", "l4_norm", "max"):
        _require(results[key] == 1.0, f"{path.name}: {key} = {results[key]!r}")


def scan(path: Path, args: list[str], ctx: Context) -> None:
    """Every grid value against oracle weights; theta = 0 against Mertens."""
    opt = _options(args)
    n_max, denominator = int(opt["n-max"]), int(opt["grid-den"])
    rows = _csv(path, "theta,re,im,abs")
    _require(rows.shape[0] == denominator, f"{path.name}: row count")
    expected = _grid_values(ctx.weights("mobius", n_max), n_max, denominator)
    thetas = 2 * np.pi * np.arange(denominator) / denominator
    _require(np.allclose(rows[:, 0], thetas, rtol=1e-15, atol=0), f"{path.name}: theta")
    error = np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - expected))
    _require(error <= 1e-9, f"{path.name}: grid values off by {error:.3g}")
    mertens = ctx.oracles.mertens_recurrence(n_max)
    _require(abs(rows[0, 1] - mertens / n_max) <= 1e-12 and abs(rows[0, 2]) <= 1e-12,
             f"{path.name}: S(0) is not M(N)/N = {mertens}/{n_max}")


def profile(path: Path, args: list[str], ctx: Context) -> None:
    """Grid maximum at each N against an oracle-weight scan."""
    opt = _options(args)
    lengths = [int(n) for n in opt["n-list"].split(",")]
    denominator = int(opt["grid-den"])
    rows = _csv(path, "n,max_abs,theta_star")
    _require(rows[:, 0].tolist() == lengths, f"{path.name}: n column")
    weights = ctx.weights("mobius", lengths[-1])
    for n_max, max_abs, theta in rows:
        values = np.abs(_grid_values(weights, int(n_max), denominator))
        at_theta = values[round(theta * denominator / (2 * np.pi)) % denominator]
        _require(abs(max_abs - values.max()) <= 1e-9, f"{path.name}: max at N={int(n_max)}")
        _require(abs(at_theta - values.max()) <= 1e-9, f"{path.name}: theta_star at N={int(n_max)}")


def short(path: Path, args: list[str], ctx: Context) -> None:
    """Window sum against oracle weights with exact integer phases."""
    results = _report(path, args)["results"]
    opt = _options(args)
    start, span = int(opt["start"]), int(opt["span"])
    numer, denom = (int(part) for part in opt["theta"].split("/"))
    residues = np.array([numer * n % denom for n in range(start, start + span + 1)], dtype=np.float64)
    w = ctx.weights(opt["weight"], start + span)[start:]
    expected = complex(np.dot(w, np.exp(2j * np.pi * residues / denom)) / span)
    got = complex(results["re"], results["im"])
    _require(abs(got - expected) <= 1e-9, f"{path.name}: {got} != {expected}")
    _require(results["meets_exponent_threshold"] == (span**8 >= start**5), f"{path.name}: exponent flag")


def report(path: Path, args: list[str], ctx: Context) -> None:
    """Sizes, digests and contents of every input, from the files themselves."""
    entries = _report(path, args)["results"]["inputs"]
    inputs = args[args.index("--inputs") + 1 :]
    inputs = inputs[: next((i for i, a in enumerate(inputs) if a.startswith("--")), len(inputs))]
    _require([e["path"] for e in entries] == inputs, f"{path.name}: input list")
    for entry in entries:
        blob = (path.parent / entry["path"]).read_bytes()
        _require(entry["bytes"] == len(blob), f"{path.name}: size of {entry['path']}")
        _require(entry["sha256"] == hashlib.sha256(blob).hexdigest(),
                 f"{path.name}: digest of {entry['path']}")
        if entry["path"].endswith(".json"):
            _require(entry["content"] == json.loads(blob), f"{path.name}: content of {entry['path']}")
        else:
            lines = blob.decode("utf-8").splitlines()
            _require(entry["header"] == lines[0] and entry["rows"] == len(lines) - 1,
                     f"{path.name}: rows of {entry['path']}")
