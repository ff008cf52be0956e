"""ergolab benchmark: README commands run end to end as a user runs them.

    python3 perfbench/run.py --workload fourier --seed 1 --seconds 30 --trace 0

Each command runs in a fresh ``python -m ergolab ... --threads 1`` child
process, started one at a time from this process (a closed loop with one
client).  A pass runs every command of the workload once; passes repeat
until ``--seconds`` of pass time have been spent, at least three times.
The first pass's outputs are checked against references that do not use
ergolab (see checks.py); later passes must reproduce them byte for byte.

``--trace 0`` prints the end-to-end metrics (wall_s, peak_rss_mb,
setup_s).  ``--trace 1`` alternates untraced passes with passes run
through tracer.py and prints the per-layer metrics instead.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".perfbench"
MIN_PASSES = 3
# setup_s is sampled before every untraced pass, so that it spans the run
# the way the passes do: CPU speed on a shared host drifts over seconds.
SETUP_PER_PASS = 2
COMMAND_TIMEOUT_S = 150
# Set in every child.  One BLAS/OpenMP thread, so timings do not depend on
# the machine's defaults.  Fixed glibc malloc thresholds, because with the
# dynamic defaults whether the freed numpy temporaries of a loop such as
# direct_average_all are trimmed from the heap top and faulted back in on
# every iteration depends on incidental heap layout (path lengths, argv):
# the same spectral-check then ran 2x slower in some processes only.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}
MB = 1 << 20


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # ergolab arguments, without --out and --threads
    out: str
    check: Callable


# ------------------------------------------------------------- workloads --
# Each returns the commands of one pass and the largest n the oracle weight
# tables must cover.  Sizes are fixed; the seed only changes inputs that do
# not change the amount of work.

def fourier(seed: int):
    s = str(seed)
    return [
        Command(("spectral-check", "--j", "2048", "--n", "100000", "--poly-p", "0,0,1", "--poly-q", "0,1",
                 "--weight", "mobius", "--trials", "2", "--seed", s), "quadratic.json", checks.spectral),
        Command(("spectral-check", "--j", "1024", "--n", "100000", "--poly-p", "0,1,0,1", "--poly-q", "0,-1",
                 "--weight", "liouville", "--trials", "2", "--seed", s), "cubic.json", checks.spectral),
    ], 0


def orbits(seed: int):
    s = str(seed)
    return [
        Command(("maximal", "--mode", "oscillation", "--j", "1024", "--rho", "2", "--bands", "17", "--seed", s),
                "oscillation.json", checks.oscillation),
        Command(("average", "--system", "cyclic:97", "--f", f"pm1:{2 * seed + 1}", "--g", f"pm1:{2 * seed + 2}",
                 "--poly-p", "0,0,1", "--poly-q", "0,1", "--limit", "524288", "--rho", "2", "--starts", "8",
                 "--seed", s), "cyclic.csv", checks.average),
        Command(("average", "--system", "rotation:355/1131", "--f", "modes:1=1;3=0.5j", "--g", "modes:2=1",
                 "--poly-p", "0,0,1", "--poly-q", "0,1", "--weight", "liouville", "--rho", "1.5",
                 "--limit", "524288", "--starts", "8", "--seed", s), "rotation.csv", checks.average),
        Command(("maximal", "--mode", "global", "--j", "512", "--n-max", "100000", "--seed", s),
                "global.json", checks.global_maximal),
    ], 1 << 16


def arith(seed: int):
    # 4294967311 is the least prime above 2**32, past the int64 Horner
    # limit, so the short-interval sum takes the scalar path per n.
    theta = f"{1 + seed % 4294967310}/4294967311"
    return [
        Command(("sieve", "--weight", "liouville", "--limit", "1000000", "--sums"), "lambda.csv", checks.sieve),
        Command(("expsum", "scan", "--poly", "0,0,1", "--n-max", "1048576", "--grid-den", "65536"),
                "scan.csv", checks.scan),
        Command(("expsum", "profile", "--poly", "0,0,1", "--n-list", "65536,262144,1048576,4194304",
                 "--grid-den", "4096"), "profile.csv", checks.profile),
        Command(("expsum", "short", "--weight", "liouville", "--start", "2000000", "--span", "100000",
                 "--theta", theta), "short.json", checks.short),
        Command(("report", "--inputs", "lambda.csv", "scan.csv", "profile.csv", "short.json"),
                "report.json", checks.report),
    ], 4194304


WORKLOADS = {"fourier": fourier, "orbits": orbits, "arith": arith}

# A spectral-check with one corrupted coefficient: it must count as failed.
FAULT_PROBE = Command(("spectral-check", "--j", "64", "--n", "3000", "--trials", "1", "--seed", "1",
                       "--inject-fault"), "fault.json", checks.spectral)


# -------------------------------------------------------------- children --

@dataclass
class Outcome:
    wall_s: float
    code: int
    rss_mb: float
    digest: str | None
    size: int


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ERGO_LAB_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(CHILD_ENV)
    return env


def _spawn(argv: list[str], work: Path, env: dict, log: Path) -> tuple[float, int, float]:
    """(wall seconds, exit code, peak RSS in MB) of one child process."""
    with open(log, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def _run(command: Command, work: Path, env: dict, trace_file: str | None = None) -> Outcome:
    args = [*command.args, "--out", command.out, "--threads", "1"]
    if trace_file is None:
        argv = [sys.executable, "-m", "ergolab", *args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), trace_file, *args]
    out = work / command.out
    out.unlink(missing_ok=True)
    wall, code, rss = _spawn(argv, work, env, work / f"{command.out}.stderr")
    blob = out.read_bytes() if out.exists() else None
    digest = hashlib.sha256(blob).hexdigest() if blob is not None else None
    return Outcome(wall, code, rss, digest, len(blob or b""))


def _judge(command: Command, outcome: Outcome, work: Path, ctx: checks.Context) -> list[str]:
    """Why the command failed: a non-zero exit code, a failed output check, or both."""
    reasons = []
    if outcome.code != 0:
        lines = (work / f"{command.out}.stderr").read_text(errors="replace").strip().splitlines()
        reasons.append(f"exit code {outcome.code}: {lines[-1] if lines else ''}")
    try:
        command.check(work / command.out, list(command.args), ctx)
    except checks.CheckFailure as exc:
        reasons.append(str(exc))
    except Exception as exc:  # a missing or malformed output can break a check anywhere
        reasons.append(f"check raised {type(exc).__name__}: {exc}")
    return reasons


def _setup_time(work: Path, env: dict) -> float:
    """Seconds for one child to start python and import ergolab.cli."""
    wall, code, _ = _spawn([sys.executable, "-c", "import ergolab.cli"], work, env, work / "setup.stderr")
    if code != 0:
        raise RuntimeError((work / "setup.stderr").read_text(errors="replace"))
    return wall


def _read_trace(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"spans": [], "self": {}, "inclusive": {}, "calls": {}, "counts": {}, "errors": {}, "sieved": []}


# --------------------------------------------------------------- metrics --

def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _layer_metrics(traces: list[dict], outcomes: list[Outcome], conv_headroom: list[float]) -> dict:
    """Per-layer metrics of one traced pass from the tracer files of its commands."""
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    errors: dict[str, int] = {}
    sieved = []
    startup = dense_bytes = 0.0
    for trace, outcome in zip(traces, outcomes):
        for target, source in ((self_s, "self"), (inclusive, "inclusive"), (calls, "calls"),
                               (counts, "counts"), (errors, "errors")):
            for key, value in trace[source].items():
                target[key] = target.get(key, 0) + value
        dense_bytes = max(dense_bytes, trace["counts"].get("dense_bytes", 0))
        sieved += trace["sieved"]
        root = trace["spans"][0] if trace["spans"] else None
        startup += outcome.wall_s - (root[2] - root[1] if root else 0.0)

    def inc(*names):
        return sum(inclusive.get(name, 0.0) for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.startup_s": startup,
        "cli.bytes_out": sum(o.size for o in outcomes),
        "weights.self_s": self_s.get("weights", 0.0),
        "weights.sieve_s": inc("weights.sieve"),
        "weights.sieve_calls": calls.get("weights.sieve", 0),
        "weights.sieved_n": sum(limit for limit, _ in sieved),
        "weights.used_ratio": ratio(sum(used for _, used in sieved), sum(limit for limit, _ in sieved)),
        "polynomials.self_s": self_s.get("polynomials", 0.0),
        "polynomials.eval_s": inc("polynomials.eval_mod_range"),
        "polynomials.residues": counts.get("residues", 0),
        "polynomials.scalar_evals": calls.get("polynomials.eval_mod", 0),
        "expsums.self_s": self_s.get("expsums", 0.0),
        "expsums.terms": counts.get("expsum_terms", 0),
        "spectral.self_s": self_s.get("spectral", 0.0),
        "spectral.dcoeff_s": inc("spectral.d_coefficients"),
        "spectral.spectral_route_s": inc("spectral.spectral_average_all", "spectral.l2_norm_of_average"),
        "spectral.direct_route_s": inc("spectral.direct_average_all"),
        "spectral.transform_s": inc("spectral.dft", "spectral.idft"),
        "spectral.dense_mb": dense_bytes / MB,
        "spectral.fold_ratio": ratio(counts.get("fold_terms", 0), counts.get("fold_classes", 0)),
        "spectral.conv_headroom_decades": min(conv_headroom, default=0.0),
        "dynamics.self_s": self_s.get("dynamics", 0.0),
        "dynamics.trace_s": inc("dynamics.convergence_trace"),
        "dynamics.orbit_terms": counts.get("orbit_terms", 0),
        "maximal.self_s": self_s.get("maximal", 0.0),
        "maximal.oscillation_s": inc("maximal.oscillation_sum"),
        "maximal.global_s": inc("maximal.global_maximal"),
        "maximal.ladder_s": inc("maximal.LacunaryLadder.build"),
        "maximal.ladder_yield": ratio(counts.get("ladder_members", 0), counts.get("ladder_powers", 0)),
        "maximal.gather_elements": counts.get("gather_elements", 0),
        "rng.s": self_s.get("rng", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors.get(layer, 0)
    metrics["trace.wall_s"] = sum(o.wall_s for o in outcomes)
    return metrics


# ------------------------------------------------------------------ run --

def _details(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "child_env": CHILD_ENV,
        "commit": commit,
    }


def measure(args) -> dict:
    commands, oracle_limit = WORKLOADS[args.workload](args.seed)
    env = _child_env()
    print("details", json.dumps(_details(args), sort_keys=True), flush=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = checks.Context(ROOT, args.seed, oracle_limit)
    setup: list[float] = []
    try:
        _setup_time(work, env)  # warm-up: byte-compiles a fresh checkout

        probe = _run(FAULT_PROBE, work, env)
        probe_reasons = _judge(FAULT_PROBE, probe, work, checks.Context(ROOT, args.seed, 0))
        probe_caught = len(probe_reasons) == 2  # by its exit code and by its check
        print(f"fault probe: {'counted as failed' if probe_caught else 'NOT CAUGHT'}: {'; '.join(probe_reasons)}")

        verdicts: list[list[str]] = []
        first: list[Outcome] = []
        untraced: list[list[Outcome]] = []
        traced: list[dict] = []
        attempted = failed = 0
        spent = 0.0
        while len(untraced) < (1 if args.trace else MIN_PASSES) or spent < args.seconds:
            # Traced and untraced passes alternate which goes first, so a
            # drift in machine speed does not bias trace.overhead_s.
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for tracing in order if args.trace else (False,):
                if not args.trace:
                    setup += [_setup_time(work, env) for _ in range(SETUP_PER_PASS)]
                files = [f"trace-{i}.json" if tracing else None for i in range(len(commands))]
                outcomes = [_run(c, work, env, f) for c, f in zip(commands, files)]
                spent += sum(o.wall_s for o in outcomes)
                if not first:
                    first = outcomes
                    verdicts = [_judge(c, o, work, ctx) for c, o in zip(commands, outcomes)]
                for command, outcome, base, verdict in zip(commands, outcomes, first, verdicts):
                    attempted += 1
                    reason = "; ".join(verdict) or (
                        f"exit code {outcome.code}" if outcome.code != 0
                        else "output differs from the first pass" if outcome.digest != base.digest
                        else None)
                    if reason:
                        failed += 1
                        print(f"FAILED {' '.join(command.args)}: {reason}", file=sys.stderr)
                if not tracing:
                    untraced.append(outcomes)
                    continue
                traces = [_read_trace(work / f) for f in files]
                traced.append(_layer_metrics(traces, outcomes, ctx.conv_headroom))
                dump = {"workload": args.workload, "seed": args.seed,
                        "commands": [{"args": list(c.args), "wall_s": o.wall_s, "spans": t["spans"]}
                                     for c, o, t in zip(commands, outcomes, traces)]}
                (WORK_ROOT / f"trace-{args.workload}.json").write_text(json.dumps(dump))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [sum(o.wall_s for o in outcomes) for outcomes in untraced]
    wall = statistics.median(walls)
    q1, q3 = _quartiles(walls)
    print(f"wall_s                 {wall:10.4f} s        median of {len(walls)} passes, quartiles {q1:.4f} .. {q3:.4f};"
          f" passes {', '.join(f'{w:.3f}' for w in walls)}")
    values = _per_layer(traced, wall) if args.trace else _end_to_end(wall, untraced, setup)
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError("metrics differ from the names in BENCHMARK.json")
    print(f"fail_ratio             {failed / attempted:10.4f} 1        {failed} of {attempted} commands failed")
    if ctx.conv_headroom:
        print(f"conv_headroom_decades  {min(ctx.conv_headroom):10.4f} decades"
              f"  min over {len(ctx.conv_headroom)} spectral-check reports")
    return {
        "correct": failed == 0 and probe_caught,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


def _end_to_end(wall: float, untraced: list[list[Outcome]], setup: list[float]) -> dict:
    rss = max(o.rss_mb for outcomes in untraced for o in outcomes)
    setup_s = statistics.median(setup)
    q1, q3 = _quartiles(setup)
    print(f"peak_rss_mb            {rss:10.1f} MB       largest child ru_maxrss")
    print(f"setup_s                {setup_s:10.4f} s        median of {len(setup)} 'import ergolab.cli' children,"
          f" quartiles {q1:.4f} .. {q3:.4f}")
    return {"wall_s": wall, "peak_rss_mb": rss, "setup_s": setup_s}


def _per_layer(traced: list[dict], wall: float) -> dict:
    metrics = {key: statistics.median(m[key] for m in traced) for key in traced[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
    for key, value in metrics.items():
        print(f"{key:32s} {value:14.6g}")
    total = sum(metrics.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    total += metrics["rng.s"] + metrics["cli.startup_s"]
    print(f"layer self times + startup = {total:.4f} s of traced wall {metrics['trace.wall_s']:.4f} s;"
          f" tracing overhead {metrics['trace.overhead_s']:.4f} s over untraced wall {wall:.4f} s;"
          f" traced passes {', '.join(format(m['trace.wall_s'], '.3f') for m in traced)}")
    return metrics


def _units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (ROOT / "src" / "ergolab" / "cli.py", ROOT / "tests" / "oracles.py") if not p.is_file()]
    if missing:
        print(f"perfbench: cannot find {', '.join(map(str, missing))}; run from an ergolab checkout",
              file=sys.stderr)
        return 2
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
