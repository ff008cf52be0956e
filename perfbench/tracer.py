"""Run one ergolab command with every public function of the library traced.

    python3 perfbench/tracer.py TRACE.json <ergolab arguments>

Before the command runs, each public function, method and classmethod
defined in an ergolab module is replaced by a span recorder, in every
module namespace and class that refers to it (``cli.run_sieve`` is the
same object as ``weights.sieve`` and gets the same wrapper).  No library
file changes.  When the command returns, TRACE.json receives:

* ``spans``: [name, start, end, parent index] per call, parent -1 at the
  root (``cli.main``);
* ``self``: seconds per layer not covered by child calls into any
  wrapped function;
* ``inclusive`` and ``calls``: total seconds and call count per function;
* ``counts``: work counters derived from call arguments (see ``_HOOKS``);
* ``errors``: exceptions that left a layer through a wrapped call.

Functions in ``HOT`` are called once per element on some paths (the
scalar ``eval_mod`` fallback), so they get no span of their own; their
time and calls are still aggregated and subtracted from the caller's
self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

LAYERS = ("cli", "weights", "polynomials", "expsums", "spectral", "dynamics", "maximal", "rng")
HOT = frozenset({"polynomials.eval_mod"})

# Bytes of the J x J arrays d_coefficients allocates: float64 mass table
# plus complex128 coefficient matrix.
_DENSE_BYTES_PER_CELL = 8 + 16


class Recorder:
    """Spans, per-layer self time and work counters of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []  # [layer, child seconds, span index]
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.inclusive: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.counts: dict[str, float] = {}
        self.tables: dict[int, list] = {}  # id -> [table, largest n read]

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def read(self, table, n: int) -> None:
        entry = self.tables.get(id(table))
        if entry is not None and entry[0] is table:
            entry[1] = max(entry[1], int(n))

    def wrap(self, layer: str, name: str, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        hot = name in HOT
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder.stack
            parent = stack[-1] if stack else None
            frame = None
            if not hot:
                span = [name, 0.0, 0.0, parent[2] if parent else -1]
                frame = [layer, 0.0, len(recorder.spans)]
                recorder.spans.append(span)
                stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[0] != layer:
                    recorder.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                duration = end - start
                children = 0.0
                if frame is not None:
                    stack.pop()
                    span[1], span[2] = start, end
                    children = frame[1]
                recorder.self_time[layer] += duration - children
                if parent is not None:
                    parent[1] += duration
                recorder.inclusive[name] = recorder.inclusive.get(name, 0.0) + duration
                recorder.calls[name] = recorder.calls.get(name, 0) + 1
            if hook:
                hook(recorder, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "self": self.self_time,
                    "inclusive": self.inclusive,
                    "calls": self.calls,
                    "counts": self.counts,
                    "errors": self.errors,
                    "sieved": [[table.limit, largest] for table, largest in self.tables.values()],
                },
                handle,
            )


# ------------------------------------------------------------------ hooks --
# Each hook sees the bound call arguments and the result.  "read" records
# the largest n a caller takes from a sieved table (weights.used_ratio).

def _sieve(rec, a, table):
    rec.tables[id(table)] = [table, 0]


def _reads_n_max(rec, a, result):
    rec.read(a["table"], a["n_max"])


def _fold(rec, a, result):
    rec.read(a["table"], a["n_max"])
    rec.add("fold_terms", a["n_max"])
    rec.add("fold_classes", a["period"] if "period" in a else a["f"].period)


def _d_coefficients(rec, a, result):
    _fold(rec, a, result)
    dense = a["period"] ** 2 * _DENSE_BYTES_PER_CELL
    rec.counts["dense_bytes"] = max(rec.counts.get("dense_bytes", 0), dense)


def _expsum_terms(rec, a, result):
    rec.read(a["table"], a["n_max"])
    rec.add("expsum_terms", a["n_max"])


def _short(rec, a, result):
    rec.read(a["table"], a["start"] + a["span"])
    rec.add("expsum_terms", a["span"] + 1)


def _trace(rec, a, result):
    rec.read(a["table"], result.lengths[-1])
    rec.add("orbit_terms", result.lengths[-1])


def _bilinear(rec, a, result):
    rec.read(a["table"], a["n_max"])
    rec.add("orbit_terms", a["n_max"])


def _gather(rec, table, phi, n_end):
    rec.read(table, n_end)
    rec.add("gather_elements", n_end * phi.period)


def _oscillation(rec, a, result):
    _gather(rec, a["table"], a["phi"], a["ladder"].bands[a["band_count"]])


def _band(rec, a, result):
    _gather(rec, a["table"], a["phi"], a["ladder"].band(a["k"])[1])


def _ladder(rec, a, ladder):
    # build() evaluates floor(rho**n) for n = 0, 1, ... up to the first
    # value above the limit.
    powers = 1
    while math.floor(ladder.rho ** (powers - 1)) <= ladder.limit:
        powers += 1
    rec.add("ladder_members", len(ladder.members))
    rec.add("ladder_powers", powers)


def _residues(rec, a, result):
    rec.add("residues", len(result))


_HOOKS = {
    "weights.sieve": _sieve,
    "weights.partial_sum": lambda rec, a, r: rec.read(a["table"], a["n"]),
    "weights.WeightTable.cumulative": lambda rec, a, r: rec.read(a["self"], a["self"].limit),
    "polynomials.eval_mod_range": _residues,
    "expsums.grid_scan": _expsum_terms,
    "expsums.weighted_poly_sum": _expsum_terms,
    "expsums.short_interval_sum": _short,
    "spectral.d_coefficients": _d_coefficients,
    "spectral.direct_average_all": _fold,
    "spectral.direct_average": _reads_n_max,
    "spectral.build_kernels": _reads_n_max,
    "dynamics.convergence_trace": _trace,
    "dynamics.bilinear_average": _bilinear,
    "dynamics.multilinear_average": _bilinear,
    "maximal.LacunaryLadder.build": _ladder,
    "maximal.oscillation_sum": _oscillation,
    "maximal.band_maximal": _band,
    "maximal.global_maximal": _reads_n_max,
}


# --------------------------------------------------------------- install --

def _own_functions(module):
    """(qualified name, holder, attribute, function, kind) for public callables."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield attr, module, attr, obj, None
        elif inspect.isclass(obj):
            for member_name, member in list(vars(obj).items()):
                if member_name.startswith("_"):
                    continue
                qualified = f"{attr}.{member_name}"
                if isinstance(member, (classmethod, staticmethod)):
                    yield qualified, obj, member_name, member.__func__, type(member)
                elif inspect.isfunction(member):
                    yield qualified, obj, member_name, member, None


def install(recorder: Recorder) -> None:
    """Replace every public ergolab function by its wrapper, everywhere."""
    package = importlib.import_module("ergolab")
    modules = {layer: importlib.import_module(f"ergolab.{layer}") for layer in LAYERS}
    wrappers: dict[int, tuple] = {}
    for layer, module in modules.items():
        for qualified, holder, attr, fn, kind in _own_functions(module):
            wrapper = recorder.wrap(layer, f"{layer}.{qualified}", fn)
            setattr(holder, attr, kind(wrapper) if kind else wrapper)
            wrappers[id(fn)] = (fn, wrapper)
    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, attr, hit[1])


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE.json <ergolab arguments>", file=sys.stderr)
        return 64
    recorder = Recorder()
    install(recorder)
    cli = sys.modules["ergolab.cli"]
    try:
        return cli.main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
