import gc
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import cli, csvrows, dynamics, expsums, folding, maximal, rng, spectral
from ergolab.cli import USAGE_EXIT, UsageError, main, parse_args
from ergolab.commands import maximal as maximal_command
from ergolab.commands import report as report_command
from ergolab.polynomials import IntPolynomial
from ergolab.weights import WeightKind, sieve


def test_parse_sieve_defaults_and_flags():
    config = parse_args(["sieve", "--weight", "mobius", "--limit", "1000"])
    assert config["subcommand"] == "sieve"
    assert config["weight"] == "mobius"
    assert config["limit"] == 1000
    assert config["sums"] is False


def test_parse_poly_flag():
    config = parse_args(["expsum", "--poly", "0,0,1", "--n-max", "100"])
    assert config["poly"] == "0,0,1"
    assert config["mode"] == "scan"


def test_parse_rejects_rho_below_one():
    with pytest.raises(UsageError, match="rho must exceed 1"):
        parse_args(["maximal", "--rho", "0.5"])
    assert main(["maximal", "--rho", "0.5"]) == USAGE_EXIT


def test_parse_rejects_unknown_flag():
    assert main(["sieve", "--nope"]) == USAGE_EXIT


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("limit=500\nweight=liouville\n")
    config = parse_args(["sieve", "--config", str(cfg)])
    assert config["limit"] == 500 and config["weight"] == "liouville"
    config = parse_args(["sieve", "--config", str(cfg), "--limit", "50"])
    assert config["limit"] == 50 and config["weight"] == "liouville"
    cfg.write_text("no_such_key=1\n")
    with pytest.raises(UsageError, match="unknown config keys"):
        parse_args(["sieve", "--config", str(cfg)])


def test_threads_env_override(monkeypatch):
    monkeypatch.setenv("ERGO_LAB_THREADS", "4")
    assert parse_args(["sieve"])["threads"] == 4
    config = parse_args(["sieve", "--threads", "2"])
    assert config["threads"] == 2  # explicit flag wins
    monkeypatch.setenv("ERGO_LAB_THREADS", "zero")
    with pytest.raises(UsageError):
        parse_args(["sieve"])


@pytest.mark.parametrize("sub", ["average", "spectral-check"])
def test_threads_above_cap_is_a_usage_error(sub, monkeypatch):
    # only parsed: no thread is started
    monkeypatch.delenv("ERGO_LAB_THREADS", raising=False)
    with pytest.raises(UsageError, match="at most"):
        parse_args([sub, "--threads", "1000000"])
    monkeypatch.setenv("ERGO_LAB_THREADS", "1000000")
    with pytest.raises(UsageError, match="at most"):
        parse_args([sub])
    assert parse_args([sub, "--threads", str(cli.MAX_THREADS)])["threads"] == cli.MAX_THREADS


def test_sieve_csv_output(tmp_path):
    out = tmp_path / "mob.csv"
    assert main(["sieve", "--weight", "mobius", "--limit", "12", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "1,1"
    assert lines[4] == "4,0"
    assert lines[12] == "12,0"


def test_sieve_csv_with_sums(tmp_path):
    out = tmp_path / "mob.csv"
    assert main(["sieve", "--limit", "4", "--sums", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,value,partial_sum"
    assert lines[1] == "1,1,1"
    assert lines[2] == "2,-1,0"
    assert lines[3] == "3,-1,-1"
    assert lines[4] == "4,0,-1"


def test_expsum_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        ["expsum", "--weight", "mobius", "--poly", "0,1", "--n-max", "1000",
         "--grid-den", "16", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,re,im,abs"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # theta = 0 row carries the plain partial sum ratio M(1000)/1000.
    assert float(first[1]) == pytest.approx(2 / 1000, abs=1e-12)


def test_expsum_profile_csv(tmp_path):
    out = tmp_path / "profile.csv"
    code = main(
        ["expsum", "profile", "--n-list", "1024,4096,16384", "--grid-den", "256",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,max_abs,theta_star"
    assert len(lines) == 4
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] > values[-1]


# The writer's block size in the tests below: row counts B - 1, B, B + 1
# and 2B + 1 cover a short block, one full block, and a block boundary.
BLOCK = 7
ROW_COUNTS = (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)


def _per_cell_csv(header, rows):
    """The reference text: str() of each cell, one row per line."""
    return header + "\n" + "".join(",".join(str(cell) for cell in row) + "\n" for row in rows)


def _complex_cells(value):
    value = complex(value)
    return repr(value.real), repr(value.imag), repr(abs(value))


def _sieve_case(rows, sums):
    table = sieve(WeightKind.LIOUVILLE, rows)
    values = [int(v) for v in table.values]
    argv = ["sieve", "--weight", "liouville", "--limit", str(rows)]
    if not sums:
        return argv, _per_cell_csv("n,value", [(n, values[n]) for n in range(1, rows + 1)])
    cells = [(n, values[n], sum(values[1 : n + 1])) for n in range(1, rows + 1)]
    return argv + ["--sums"], _per_cell_csv("n,value,partial_sum", cells)


def _scan_case(rows):
    table = sieve(WeightKind.MOBIUS, 500)
    values = expsums.grid_scan(table, IntPolynomial((0, 0, 1)), rows, 500)
    cells = [
        (repr(2.0 * math.pi * a / rows), *_complex_cells(v)) for a, v in enumerate(values)
    ]
    argv = ["expsum", "scan", "--poly", "0,0,1", "--n-max", "500", "--grid-den", str(rows)]
    return argv, _per_cell_csv("theta,re,im,abs", cells)


def _profile_case(rows, unsorted=False):
    lengths = [40 * (k + 1) for k in range(rows)]
    if unsorted:  # descending, each length twice: rows come in the given order
        lengths = [40 * (k // 2 + 1) for k in reversed(range(rows))]
    table = sieve(WeightKind.MOBIUS, max(lengths))
    cells = []
    for n in lengths:
        theta, value = expsums.max_over_grid(table, IntPolynomial((0, 0, 1)), 16, n)
        cells.append((n, repr(value), repr(theta)))
    argv = ["expsum", "profile", "--poly", "0,0,1", "--grid-den", "16",
            "--n-list", ",".join(map(str, lengths))]
    return argv, _per_cell_csv("n,max_abs,theta_star", cells)


def _average_case(rows):
    # rho = 2 ladders to 2^m hold m + 1 members; 15 rows are 3 starts of 5
    starts, limit = (3, 16) if rows == 2 * BLOCK + 1 else (1, 1 << (rows - 1))
    system = dynamics.CyclicShift(97)
    f = spectral.PeriodicSignal.seeded_complex(97, 3)
    g = spectral.PeriodicSignal.seeded_complex(97, 4)
    table = sieve(WeightKind.MOBIUS, limit)
    ladder = maximal.LacunaryLadder.build(2.0, limit)
    cells = []
    for x in [0, *rng.integers_mod(5, starts - 1, 97).tolist()]:
        trace = dynamics.convergence_trace(
            system, f, g, IntPolynomial((0, 0, 1)), IntPolynomial((0, 1)), table, ladder, x
        )
        cells.extend((x, n, *_complex_cells(v)) for n, v in zip(trace.lengths, trace.values))
    assert len(cells) == rows
    argv = ["average", "--system", "cyclic:97", "--f", "complex:3", "--g", "complex:4",
            "--poly-p", "0,0,1", "--poly-q", "0,1", "--rho", "2", "--limit", str(limit),
            "--starts", str(starts), "--seed", "5"]
    return argv, _per_cell_csv("start,n,re,im,abs", cells)


WRITER_CASES = {
    "sieve": lambda rows: _sieve_case(rows, sums=False),
    "sieve-sums": lambda rows: _sieve_case(rows, sums=True),
    "scan": _scan_case,
    "profile": _profile_case,
    "profile-unsorted": lambda rows: _profile_case(rows, unsorted=True),
    "average": _average_case,
}


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_csv_blocks_match_the_per_cell_text(case, rows, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(csvrows, "_CSV_BLOCK_ROWS", BLOCK)
    argv, expected = WRITER_CASES[case](rows)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_csv_writer_memory_does_not_grow_with_rows(monkeypatch, tmp_path):
    monkeypatch.setattr(csvrows, "_CSV_BLOCK_ROWS", 1024)
    peaks = []
    for rows in (1 << 14, 1 << 16):
        columns = [range(1, rows + 1), np.arange(rows) % 3 - 1, np.linspace(0.0, 1.0, rows)]
        tracemalloc.start()
        try:
            csvrows._write_csv(str(tmp_path / "rows.csv"), "n,value,x", columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
# 0, +-1, +-(10^k - 1) and +-10^k: every digit count on both sides of each
# step, and both signs; each dtype adds its own min and max.
EDGE_INTEGERS = [0, 1, -1, *(s * (10**k + d) for k in range(1, 20) for d in (-1, 0) for s in (1, -1))]
# magnitudes on both sides of 2^32, where the digits switch from uint32 to uint64
WIDE_EDGES = [2**32 - 1, 1 - 2**32, 2**32, -(2**32)]


def _edges(dtype) -> list[int]:
    info = np.iinfo(dtype)
    edges = [int(info.min), int(info.max), *EDGE_INTEGERS, *WIDE_EDGES]
    return [v for v in edges if info.min <= v <= info.max]


def _per_cell_rows(columns) -> str:
    cells = [list(c) if isinstance(c, range) else c.tolist() for c in columns]
    return "".join(",".join(str(cell) for cell in row) + "\n" for row in zip(*cells))


@st.composite
def integer_columns(draw, rows):
    """An integer array of any width and signedness, or a range."""
    dtype = draw(st.sampled_from([*INTEGER_DTYPES, range]))
    if dtype is range:
        step = draw(st.sampled_from([1, -1, 7, -(10**17)]))
        start = draw(st.integers(-(2**62), 2**62))
        return range(start, start + rows * step, step)
    info = np.iinfo(dtype)
    values = st.one_of(st.sampled_from(_edges(dtype)), st.integers(int(info.min), int(info.max)))
    return np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=dtype)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 9), st.integers(1, 4))
def test_integer_rows_match_per_cell_str(data, rows, width):
    columns = [data.draw(integer_columns(rows)) for _ in range(width)]
    assert all(map(csvrows._is_numeric, columns))
    expected = _per_cell_rows(columns)
    assert csvrows._numeric_rows(columns) == expected
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:  # blocks of 4 rows and a rest of 1 to 3
        patch.setattr(csvrows, "_CSV_BLOCK_ROWS", 4)
        csvrows._write_rows(out, columns)
    assert out.getvalue() == expected


@pytest.mark.parametrize("rows", [0, 1, csvrows._CSV_BLOCK_ROWS + 1, 2 * csvrows._CSV_BLOCK_ROWS + 1])
def test_integer_blocks_at_the_block_size(rows):
    # every dtype's edges, cycled down a column as long as two blocks
    columns = [range(-(rows // 2), rows - rows // 2), np.resize(np.array(WIDE_EDGES), rows)]
    columns += [np.resize(np.array(_edges(dtype), dtype=dtype), rows) for dtype in INTEGER_DTYPES]
    # the benchmark's sieve --sums shapes: random +-1 int8 (lambda) and its
    # random-sign int64 running sums (L(n))
    signs = np.random.default_rng(rows).choice(np.array([-1, 1], dtype=np.int8), rows)
    columns += [signs, np.cumsum(signs, dtype=np.int64)]
    out = io.StringIO()
    csvrows._write_rows(out, columns)
    assert out.getvalue() == _per_cell_rows(columns)
    assert out.getvalue().count("\n") == rows


# a bool column would print as digits; longdouble is float64 on some platforms
NOT_NUMERIC = {"bool": np.array([True, False]), "list": [1, 2], "complex": np.array([1j, 2.0])}
if np.dtype(np.longdouble).itemsize > 8:
    NOT_NUMERIC["longdouble"] = np.array([0.5, 2.0], dtype=np.longdouble)


@pytest.mark.parametrize("kind", sorted(NOT_NUMERIC))
def test_columns_other_than_ranges_and_numeric_arrays_raise(kind):
    assert not csvrows._is_numeric(NOT_NUMERIC[kind])
    with pytest.raises(TypeError):
        csvrows._write_rows(io.StringIO(), [range(1, 3), np.array([0.1, 2.0]), NOT_NUMERIC[kind]])


def test_float_columns_join_the_character_matrix():
    assert csvrows._is_numeric(np.array([1.0, 2.5]))
    out = io.StringIO()
    csvrows._write_rows(out, [range(1, 3), np.array([0.1, 2.0])])
    assert out.getvalue() == "1,0.1\n2,2.0\n"


def test_average_memory_does_not_grow_with_starts(tmp_path):
    # each start's rows are written before the next start's are computed
    argv = ["average", "--system", "cyclic:97", "--rho", "1.005", "--limit", "8192",
            "--out", str(tmp_path / "avg.csv"), "--starts"]
    assert main(argv + ["2"]) == 0
    peaks = []
    for starts in ("1", "16"):
        tracemalloc.start()
        try:
            assert main(argv + [starts]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_expsum_short_json(tmp_path):
    out = tmp_path / "short.json"
    code = main(
        ["expsum", "short", "--weight", "liouville", "--start", "1000",
         "--span", "900", "--theta", "3/7", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "ok"
    assert payload["results"]["meets_exponent_threshold"] is True
    assert abs(payload["results"]["abs"]) <= 1.0 + 1e-12


def test_expsum_short_bytes_do_not_depend_on_blas_threads(tmp_path):
    # A BLAS dot product splits its sum by thread count once the vectors
    # pass 10^4 elements; span 10^4 (10001 terms) is the smallest window at
    # which an np.dot of the window gave different bytes under 1 and 2
    # OpenBLAS threads.  The result sums go through np.sum instead.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = [sys.executable, "-m", "ergolab", "expsum", "short", "--weight", "liouville",
            "--start", "2000000", "--span", "10000", "--theta", "2/4294967311"]
    written = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        work = tmp_path / threads  # the report embeds --out, so it stays the same
        work.mkdir()
        subprocess.run([*argv, "--out", "short.json"], env=env, cwd=work, capture_output=True, check=True)
        written.append((work / "short.json").read_bytes())
    assert written[0] == written[1]


def test_average_csv(tmp_path):
    out = tmp_path / "avg.csv"
    code = main(
        ["average", "--system", "cyclic:97", "--f", "pm1:11", "--g", "pm1:12",
         "--poly-p", "0,0,1", "--poly-q", "0,1", "--weight", "mobius",
         "--rho", "2", "--limit", "4096", "--starts", "3", "--seed", "5",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "start,n,re,im,abs"
    starts = {line.split(",")[0] for line in lines[1:]}
    assert len(starts) == 3 and "0" in starts


def test_average_builds_its_ladder_once(monkeypatch, tmp_path):
    build, calls = maximal.LacunaryLadder.build, []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(maximal.LacunaryLadder, "build", counted)
    argv = ["average", "--system", "cyclic:31", "--limit", "4096", "--starts", "3"]
    assert main(argv + ["--out", str(tmp_path / "avg.csv")]) == 0
    assert calls == [(2.0, 4096)]


def test_average_rotation_system(tmp_path):
    out = tmp_path / "rot.csv"
    code = main(
        ["average", "--system", "rotation:3/64", "--f", "modes:1=1;-1=0.5",
         "--g", "modes:2=1j", "--limit", "1024", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("start,n,re,im,abs")


def test_spectral_check_deterministic_across_threads(tmp_path):
    args = ["spectral-check", "--j", "64", "--n", "500", "--seed", "7", "--trials", "3"]
    out = tmp_path / "check.json"
    threaded = tmp_path / "threaded.json"
    assert main(args + ["--out", str(out)]) == 0
    blob = out.read_bytes()
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == blob
    # The worker count appears in the embedded config but must not change
    # any computed value.
    assert main(args + ["--threads", "4", "--out", str(threaded)]) == 0
    assert json.loads(blob)["results"] == json.loads(threaded.read_bytes())["results"]
    payload = json.loads(blob)
    assert payload["status"] == "ok"
    assert payload["results"]["max_conv_error"] <= payload["tolerances"]["conv_rtol"]
    assert payload["config"]["seed"] == 7


def test_spectral_check_loads_the_pool_only_with_threads(tmp_path):
    # Only report hashes (hashlib maps OpenSSL's libcrypto) and only
    # --threads > 1 starts a pool (concurrent.futures loads logging):
    # together about 4 MB of child RSS that no other run should pay.  At
    # --threads 1 neither import ergolab.cli nor the run loads any of them.
    code = (
        "import sys; from ergolab.cli import main; code = main(sys.argv[1:]); "
        "print(code, *sorted({'hashlib', '_hashlib', 'concurrent.futures'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = ["spectral-check", "--j", "64", "--n", "500", "--seed", "3", "--trials", "3"]
    out = tmp_path / "check.json"
    runs = {}
    for threads in ("1", "2"):
        argv = [sys.executable, "-c", code, *args, "--threads", threads, "--out", str(out)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        runs[threads] = (done.stdout.split(), out.read_bytes())
    assert runs["1"][0] == ["0"]
    assert runs["2"][0] == ["0", "concurrent.futures"]
    # The worker count sits in the embedded config and nowhere else.
    assert runs["2"][1] == runs["1"][1].replace(b'"threads": 1', b'"threads": 2')


def _child_env(**extra) -> dict:
    """The environment of a child that imports ergolab from this tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "ERGO_LAB_THREADS"}
    return {**env, "PYTHONPATH": path, **extra}


# One run of each subcommand, each command's own modes included.
COMMAND_RUNS = [
    ["sieve", "--limit", "100", "--sums", "--out", "mu.csv"],
    ["expsum", "scan", "--n-max", "300", "--grid-den", "8", "--out", "scan.csv"],
    ["expsum", "profile", "--n-list", "100,300", "--grid-den", "8", "--out", "profile.csv"],
    ["expsum", "short", "--start", "50", "--span", "20", "--theta", "1/3", "--out", "short.json"],
    ["average", "--system", "cyclic:31", "--limit", "2048", "--starts", "2", "--out", "a.csv"],
    ["average", "--system", "rotation:3/7", "--f", "modes:1=1", "--g", "modes:2=1",
     "--limit", "2048", "--out", "r.csv"],
    ["spectral-check", "--j", "32", "--n", "200", "--trials", "1", "--out", "check.json"],
    *(["maximal", "--mode", mode, "--j", "64", "--bands", "5", "--n-max", "500", "--out", f"{mode}.json"]
      for mode in ("oscillation", "band", "global", "weaktype")),
    ["report", "--inputs", "mu.csv", "--out", "summary.json"],
]


def test_children_load_only_their_own_layers(tmp_path):
    # import ergolab.cli adds none of typing, json, dataclasses, inspect and
    # numpy to what the interpreter starts with: report and a usage error
    # never pay for them.  Each command imports its own handler module and
    # no other command's, none loads dataclasses, fractions or numpy.ma,
    # and sieve loads weights alone.  The CSV writer, ergolab.csvrows, is
    # loaded by the commands that write CSV (sieve, average and expsum scan
    # and profile) and by no other: not by expsum short, which writes JSON.
    code = (
        "import sys; import ergolab; from ergolab.cli import main; "
        "code = main(sys.argv[1:]) if sys.argv[1:] else 0; "
        "heavy = {'numpy', 'numpy.ma', 'dataclasses', 'fractions', 'inspect'}; "
        "print(code, *sorted(m for m in sys.modules if m.startswith('ergolab.') or m in heavy))"
    )
    env = _child_env()
    csv_path = tmp_path / "mu.csv"
    csv_path.write_text("n,value\n1,1\n")

    def child(*args, code=code):
        argv = [sys.executable, "-c", code, *args]
        return subprocess.run(argv, env=env, capture_output=True, text=True, cwd=tmp_path).stdout.split()

    # what import ergolab.cli adds to the modules the interpreter started with
    added = child(code="import sys; before = set(sys.modules); import ergolab.cli; "
                       "print(*sorted(set(sys.modules) - before))")
    assert "ergolab.cli" in added
    assert not {"typing", "json", "dataclasses", "inspect", "numpy", "ergolab.csvrows"} & set(added)
    lean = ["ergolab.cli", "ergolab.limits"]
    report = ["ergolab.cli", "ergolab.commands", "ergolab.commands.report", "ergolab.limits"]
    assert child() == ["0", *lean]
    assert child("report", "--inputs", str(csv_path), "--out", "summary.json") == ["0", *report]
    assert child("sieve", "--nope") == [str(USAGE_EXIT), *lean]
    assert child("spectral-check", "--j", str(spectral.MAX_CHECK_PERIOD + 1)) == [str(USAGE_EXIT), *lean]
    for argv in COMMAND_RUNS:
        exit_code, *modules = child(*argv)
        assert exit_code == "0", argv
        # a command imports its own module and no other command's
        handlers = {m for m in modules if m.startswith("ergolab.commands.")}
        assert handlers == {"ergolab.commands." + argv[0].replace("-", "_")}, argv
        assert not {"dataclasses", "fractions", "numpy.ma"} & set(modules), argv
        writes_csv = argv[0] in ("sieve", "average") or argv[1] in ("scan", "profile")
        assert ("ergolab.csvrows" in modules) == writes_csv, argv
        if argv[0] == "sieve":
            assert {"numpy", "ergolab.weights"} <= set(modules)
            assert not {"ergolab.spectral", "ergolab.dynamics", "ergolab.maximal",
                        "ergolab.expsums"} & set(modules)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["sieve", "--limit", "1000", "--sums", "--out", "mu.csv"], 0),
        (["spectral-check", "--j", "32", "--n", "200", "--trials", "1", "--inject-fault",
          "--out", "bad.json"], 2),
        (["sieve", "--nope"], USAGE_EXIT),
        (["maximal", "--mode", "global", "--j", "64", "--n-max", "1000", "--out", "global.json"], 0),
        (["average", "--system", "cyclic:31", "--limit", "2048", "--starts", "2", "--out", "a.csv"], 0),
    ],
)
def test_process_entry_exit_codes_in_dev_mode(argv, expected, tmp_path):
    # python -m ergolab collects and freezes before exit, which skips the
    # shutdown collection; dev mode must still see no file left open.
    argv = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "ergolab", *argv]
    done = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode == expected, done.stderr
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr, done.stderr


def test_main_leaves_the_collector_as_it_was(tmp_path, capsys):
    # Only the process entry, console_main, switches the collector off and
    # freezes; main, which callers run in process, does neither.
    out = str(tmp_path / "mu.csv")
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            before = gc.isenabled(), gc.get_freeze_count()
            assert main(["sieve", "--limit", "100", "--out", out]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == before
            assert main(["sieve", "--nope"]) == USAGE_EXIT
            assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        gc.enable()


def test_process_entry_collects_nothing_before_the_freeze(tmp_path):
    # console_main keeps the collector off while the command's modules
    # (numpy and the layers) are imported, freezes what is then alive and
    # turns it back on: no collection starts before that freeze.
    code = (
        "import gc, sys\n"
        "from ergolab import cli\n"
        "early = []\n"
        "gc.callbacks.append(lambda phase, info: gc.get_freeze_count() or early.append(info))\n"
        "try:\n"
        "    cli.console_main()\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.isenabled(), 'numpy' in sys.modules, len(early))\n"
    )
    argv = [sys.executable, "-c", code, "maximal", "--mode", "global", "--j", "64",
            "--n-max", "1000", "--out", "global.json"]
    done = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, cwd=tmp_path)
    assert done.stdout.split() == ["0", "True", "True", "0"], done.stderr


SURFACE = json.loads((pathlib.Path(__file__).parent / "cli_surface.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", SURFACE, ids=lambda case: " ".join(case["argv"]) or "no-arguments")
def test_help_and_usage_errors_keep_their_bytes(case, tmp_path):
    # cli_surface.json holds what python -m ergolab wrote for each argv
    # when every subcommand's parser was built on every run: help text,
    # usage errors and exit codes, at a fixed 80-column width.
    argv = [sys.executable, "-m", "ergolab", *case["argv"]]
    done = subprocess.run(argv, env=_child_env(COLUMNS="80"), capture_output=True, text=True, cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (case["code"], case["stdout"], case["stderr"])


def test_reexports_and_limits_are_the_layers_objects():
    import ergolab
    from ergolab import limits, weights

    for name in ergolab.__all__:
        assert getattr(ergolab, name) is not None
    assert ergolab.sieve is weights.sieve and ergolab.dft is spectral.dft
    with pytest.raises(AttributeError):
        ergolab.no_such_name
    assert spectral.TOLERANCES is limits.TOLERANCES is cli.TOLERANCES
    assert weights.CapacityError is limits.CapacityError
    assert (spectral.MAX_CHECK_PERIOD, expsums.MAX_GRID_DENOMINATOR, dynamics.MAX_CYCLIC_PERIOD) == (
        limits.MAX_CHECK_PERIOD, limits.MAX_GRID_DENOMINATOR, limits.MAX_CYCLIC_PERIOD)
    assert cli._WEIGHT.choices == tuple(sorted(kind.value for kind in WeightKind))


def test_spectral_check_injected_fault_exits_2(tmp_path):
    out = tmp_path / "bad.json"
    code = main(
        ["spectral-check", "--j", "32", "--n", "200", "--seed", "1",
         "--trials", "2", "--inject-fault", "--out", str(out)]
    )
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["status"] == "invariant_violation"
    assert payload["results"]["max_conv_error"] > payload["tolerances"]["conv_rtol"]


def test_spectral_check_takes_the_blocked_route_once_per_trial(monkeypatch, tmp_path):
    def dense(*args):
        raise AssertionError("built a J x J array")

    for owner, name in (
        (spectral, "d_coefficients"),
        (spectral, "_total_degree_spectrum"),
        (spectral.OffDiagonalKernel, "transform"),
    ):
        monkeypatch.setattr(owner, name, dense)
    calls = []
    blocked = spectral.OffDiagonalKernel.total_degree

    def counted(kernel, f, g):
        calls.append(kernel.period)
        return blocked(kernel, f, g)

    monkeypatch.setattr(spectral.OffDiagonalKernel, "total_degree", counted)
    argv = ["spectral-check", "--j", "48", "--n", "700", "--trials", "3"]
    assert main(argv + ["--out", str(tmp_path / "check.json")]) == 0
    assert calls == [48, 48, 48]


def test_spectral_check_peak_memory_below_one_dense_array(tmp_path):
    # One float64 J x J array at J = 2048 is 32 MiB; the blocked route holds
    # O(block * J).
    argv = ["spectral-check", "--j", "2048", "--n", "20000", "--trials", "1"]
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(tmp_path / "check.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 2048 * 8, peak


def test_io_failure_exits_3(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["sieve", "--limit", "10", "--out", str(missing)]) == 3


def test_maximal_oscillation_json(tmp_path):
    out = tmp_path / "osc.json"
    code = main(
        ["maximal", "--mode", "oscillation", "--j", "128", "--rho", "2",
         "--bands", "8", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    ratios = payload["results"]["ratios"]
    assert len(ratios) == 8
    assert payload["results"]["cumulative"] == pytest.approx(
        [sum(payload["results"]["band_l2_norms"][: k + 1]) for k in range(8)]
    )


def test_maximal_other_modes(tmp_path):
    for mode, keys in [
        ("band", ("bands",)),
        ("global", ("l2_norm", "max")),
        ("weaktype", ("statistic", "ratio")),
    ]:
        out = tmp_path / f"{mode}.json"
        code = main(
            ["maximal", "--mode", mode, "--j", "64", "--rho", "2", "--bands", "6",
             "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        for key in keys:
            assert key in payload["results"]


def test_report_aggregation(tmp_path):
    csv_path = tmp_path / "vals.csv"
    json_path = tmp_path / "check.json"
    main(["sieve", "--limit", "20", "--out", str(csv_path)])
    main(["spectral-check", "--j", "16", "--n", "100", "--out", str(json_path)])
    out = tmp_path / "summary.json"
    code = main(["report", "--inputs", str(csv_path), str(json_path), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    kinds = {entry["kind"] for entry in payload["results"]["inputs"]}
    assert kinds == {"csv", "json"}
    csv_entry = next(e for e in payload["results"]["inputs"] if e["kind"] == "csv")
    assert csv_entry["rows"] == 20
    json_entry = next(e for e in payload["results"]["inputs"] if e["kind"] == "json")
    assert json_entry["content"]["tool"] == "ergolab"


LINE_EDGE_CASES = [
    b"",
    b"n,value",
    b"n,value\n1,1\n2,-1",
    b"n,value\r\n1,1\r\n",
    b"a\rb\r",
    b"x\r\r\n",
    b"\n\n",
    b"a\vb\fc",
    b"a\x1cb\x1dc\x1ed\n",
    "a\x85b\u2028c\u2029d".encode(),
    b"n,\xff\xfe\n1,\x80\n",
    b"n\xc2\n1\xe2\x80\n",
]


@pytest.mark.parametrize("blob", LINE_EDGE_CASES, ids=repr)
def test_report_csv_lines_match_splitlines(tmp_path, monkeypatch, blob):
    path = tmp_path / "edge.csv"
    path.write_bytes(blob)
    lines = blob.decode("utf-8", errors="replace").splitlines()
    # One-byte reads split every "\r\n" and every multi-byte sequence.
    for chunk in (1, report_command._READ_CHUNK):
        monkeypatch.setattr(report_command, "_READ_CHUNK", chunk)
        out = tmp_path / f"summary{chunk}.json"
        assert main(["report", "--inputs", str(path), "--out", str(out)]) == 0
        (entry,) = json.loads(out.read_text())["results"]["inputs"]
        assert entry["header"] == (lines[0] if lines else "")
        assert entry["rows"] == max(len(lines) - 1, 0)
        assert entry["bytes"] == len(blob)
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab\r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
def test_line_count_matches_splitlines(text):
    lines = text.splitlines()
    for chunk in (1, max(len(text), 1)):
        chunks = [text[i : i + chunk] for i in range(0, len(text), chunk)]
        assert report_command._first_line_and_count(chunks) == (lines[0] if lines else "", len(lines))


def test_report_memory_stays_near_input_size(tmp_path):
    # The input is read, hashed and decoded in fixed-size chunks, so the
    # peak is a few chunks, not the file; no list of its lines is built.
    csv_path = tmp_path / "sums.csv"
    assert main(["sieve", "--limit", "100000", "--sums", "--out", str(csv_path)]) == 0
    tracemalloc.start()
    try:
        assert main(["report", "--inputs", str(csv_path), "--out", str(tmp_path / "s.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= csv_path.stat().st_size // 2, (peak, csv_path.stat().st_size)


def test_repeated_runs_byte_identical(tmp_path):
    # The out path is part of the embedded config, so reruns must reuse it.
    for args, name in [
        (["sieve", "--limit", "300", "--sums"], "s.csv"),
        (["maximal", "--mode", "oscillation", "--j", "64", "--bands", "6", "--seed", "2"], "m.json"),
        (["average", "--system", "cyclic:31", "--limit", "2048", "--starts", "2"], "a.csv"),
    ]:
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == first


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral-check", "--j", "0"],
        ["spectral-check", "--n", "0"],
        ["spectral-check", "--trials", "0"],
        ["maximal", "--j", "0"],
        ["maximal", "--mode", "global", "--n-max", "-5"],
        ["expsum", "scan", "--n-max", "0"],
        ["expsum", "scan", "--grid-den", "0"],
        ["average", "--starts", "0"],
        ["average", "--system", f"cyclic:{dynamics.MAX_CYCLIC_PERIOD + 1}"],
        # non-finite observables would write nan rows
        ["average", "--system", "cyclic:8", "--f", "const:nan", "--limit", "64"],
        ["average", "--system", "cyclic:8", "--g", "const:inf", "--limit", "64"],
        ["average", "--system", "rotation:1/8", "--f", "modes:1=1e400", "--g", "modes:2=1", "--limit", "64"],
        ["average", "--system", "rotation:1/8", "--f", "modes:1=1", "--g", "modes:1=1;2=nanj", "--limit", "64"],
        # finite observables whose sums sup|f| sup|g| N overflow a float
        ["average", "--system", "cyclic:4", "--f", "const:1e308", "--g", "const:1e308", "--limit", "4"],
        ["average", "--system", "rotation:1/3", "--f", "modes:1=1e200", "--g", "modes:1=1e200", "--limit", "4"],
    ],
)
def test_out_of_range_orbit_inputs_exit_64(argv, capsys):
    assert main(argv) == USAGE_EXIT
    err = capsys.readouterr().err
    assert err.startswith("ergolab: error:")
    assert "Traceback" not in err


def test_large_finite_observables_average(tmp_path, recwarn):
    out = tmp_path / "big.csv"
    argv = ["average", "--system", "cyclic:4", "--f", "const:1e150", "--g", "const:1e150",
            "--limit", "4", "--out", str(out)]
    assert main(argv) == 0
    assert not recwarn.list
    rows = out.read_text().splitlines()[1:]
    assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_oversized_ladder_exits_64(monkeypatch, capsys):
    monkeypatch.setattr(maximal, "MAX_LADDER_MEMBERS", 1000)
    argv = ["maximal", "--mode", "band", "--j", "8", "--rho", "1.0000001", "--bands", "1"]
    assert main(argv) == USAGE_EXIT
    err = capsys.readouterr().err
    assert "distinct members" in err and "Traceback" not in err


def test_global_mode_with_n_max_builds_no_ladder(tmp_path):
    # rho 1.000001 has more than MAX_LADDER_MEMBERS members below 2^24,
    # but global mode with --n-max reads no ladder.
    results = []
    for rho in ("1.000001", "2"):
        out = tmp_path / f"global-{rho}.json"
        argv = ["maximal", "--mode", "global", "--j", "16", "--n-max", "1000", "--rho", rho]
        assert main(argv + ["--out", str(out)]) == 0
        results.append(json.loads(out.read_text())["results"])
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["expsum", "scan", "--n-max", "300", "--grid-den", "8"], 300),
        (["expsum", "profile", "--n-list", "100,700,400", "--grid-den", "8"], 700),
        (["expsum", "short", "--start", "50", "--span", "20", "--theta", "1/3"], 70),
        # --bands 10 ends the ladder at 1024; band modes never read --n-max
        (["maximal", "--mode", "oscillation", "--j", "8", "--n-max", "5000"], 1024),
        (["maximal", "--mode", "band", "--j", "8", "--n-max", "5000"], 1024),
        (["maximal", "--mode", "global", "--j", "8", "--n-max", "300"], 300),
        (["maximal", "--mode", "weaktype", "--j", "8", "--n-max", "300"], 300),
        (["maximal", "--mode", "global", "--j", "8"], 1024),
        (["expsum", "profile", "--n-list", "700,100,400,400", "--grid-den", "8"], 700),
    ],
)
def test_sieves_once_to_what_the_mode_reads(argv, limit, monkeypatch, tmp_path):
    limits = []

    def counting_sieve(kind, n):
        limits.append(n)
        return sieve(kind, n)

    monkeypatch.setattr(cli, "run_sieve", counting_sieve)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert limits == [limit]


@pytest.mark.parametrize(
    "argv",
    [
        ["maximal", "--mode", "band", "--j", "16", "--rho", "2", "--bands", "6"],
        ["maximal", "--mode", "oscillation", "--j", "16", "--rho", "2", "--bands", "6"],
        ["average", "--system", "cyclic:97", "--limit", "4096", "--starts", "4"],
        ["average", "--system", "rotation:355/1131", "--f", "modes:1=1;3=0.5j",
         "--g", "modes:2=1", "--limit", "4096", "--starts", "4"],
        ["expsum", "profile", "--n-list", "100,700,400", "--grid-den", "8"],
        ["maximal", "--mode", "global", "--j", "16", "--n-max", "300"],
        ["maximal", "--mode", "weaktype", "--j", "16", "--n-max", "300"],
        ["expsum", "short", "--start", "100", "--span", "300", "--theta", "3/7"],
    ],
)
def test_folds_the_weights_once_per_command(argv, monkeypatch, tmp_path):
    fold, periods = folding.class_masses, []

    def counted(table, period, lengths, start=1):
        periods.append(period)
        return fold(table, period, lengths, start)

    monkeypatch.setattr(folding, "class_masses", counted)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(periods) == 1, periods


@pytest.mark.parametrize(
    "sub, line",
    [("maximal", "mode=bogus"), ("maximal", "weight=foo"), ("sieve", "limit=abc")],
)
def test_config_values_get_the_flag_checks(sub, line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == USAGE_EXIT
    assert capsys.readouterr().err.startswith("ergolab: error:")
    assert not (tmp_path / "out").exists()


# The built-in defaults of every subcommand, with ERGO_LAB_THREADS unset.
DEFAULTS = {
    "sieve": {"weight": "mobius", "limit": 1000, "out": None, "sums": False, "threads": 1},
    "expsum": {
        "mode": "scan", "weight": "mobius", "poly": "0,1", "n_max": 10000, "grid_den": 4096,
        "n_list": "1024,4096,16384", "start": 10000, "span": 1000, "theta": "0/1",
        "out": None, "threads": 1,
    },
    "average": {
        "system": "cyclic:128", "f": "pm1:1", "g": "pm1:2", "poly_p": "0,0,1", "poly_q": "0,1",
        "weight": "mobius", "rho": 2.0, "limit": 65536, "starts": 1, "seed": 0,
        "out": None, "threads": 1,
    },
    "spectral-check": {
        "j": 256, "n": 1000, "poly_p": "0,0,1", "poly_q": "0,1", "weight": "mobius",
        "seed": 0, "trials": 3, "inject_fault": False, "out": None, "threads": 1,
    },
    "maximal": {
        "mode": "oscillation", "j": 1024, "rho": 2.0, "bands": 10, "n_max": 0,
        "weight": "mobius", "poly_p": "0,1", "poly_q": "0,-1", "seed": 0,
        "out": None, "threads": 1,
    },
    "report": {"inputs": ["a.csv"], "out": None, "threads": 1},
}


@pytest.mark.parametrize("sub", sorted(DEFAULTS))
def test_default_config_of_every_subcommand(sub, monkeypatch):
    monkeypatch.delenv("ERGO_LAB_THREADS", raising=False)
    argv = [sub, "--inputs", "a.csv"] if sub == "report" else [sub]
    config = parse_args(argv)
    expected = dict(DEFAULTS[sub], subcommand=sub)
    assert config == expected
    assert {k: type(v) for k, v in config.items()} == {k: type(v) for k, v in expected.items()}


@pytest.mark.parametrize("sub", sorted(DEFAULTS))
def test_help_lists_every_flag(sub, capsys):
    with pytest.raises(SystemExit) as exit_info:
        parse_args([sub, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    listed = set(re.findall(r"--[\w-]+", out))
    for key in cli._OPTIONS[sub]:
        if (sub, key) != cli._POSITIONAL:
            assert "--" + key.replace("_", "-") in listed
    if sub == "expsum":
        assert "{scan,profile,short}" in out


@pytest.mark.parametrize("content, code", [(None, 3), (b"limit=\xff\n", USAGE_EXIT)])
def test_unreadable_config_file(content, code, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    assert main(["sieve", "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert "run.cfg" in err and "Traceback" not in err


def test_report_on_malformed_json_exits_64(tmp_path, capsys):
    bad = tmp_path / "x.json"
    bad.write_text("not json\n")
    assert main(["report", "--inputs", str(bad), "--out", str(tmp_path / "s.json")]) == USAGE_EXIT
    err = capsys.readouterr().err
    assert err.startswith("ergolab: error:") and str(bad) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "--limit", "300000000"],
        ["average", "--limit", "300000000"],
        ["spectral-check", "--n", "300000000"],
        ["maximal", "--mode", "global", "--n-max", "300000000"],
        ["expsum", "scan", "--n-max", "300000000"],
        ["expsum", "profile", "--n-list", "10,300000000"],
        ["expsum", "short", "--start", "199999999", "--span", "2"],
    ],
)
def test_past_the_sieve_capacity_exits_64(argv, capsys):
    assert main(argv) == USAGE_EXIT
    err = capsys.readouterr().err
    assert "capacity" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["maximal", "--rho", "inf"], ["average", "--rho", "inf"], ["average", "--rho", "nan"]],
)
def test_non_finite_rho_exits_64(argv, capsys):
    assert main(argv) == USAGE_EXIT
    assert "--rho must be finite" in capsys.readouterr().err


def test_average_oversized_ladder_exits_64(monkeypatch, capsys):
    monkeypatch.setattr(maximal, "MAX_LADDER_MEMBERS", 1000)
    argv = ["average", "--system", "cyclic:8", "--rho", "1.0000001", "--limit", "5000"]
    assert main(argv) == USAGE_EXIT
    err = capsys.readouterr().err
    assert "distinct members" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "sub, key, cap",
    [
        ("expsum", "grid-den", expsums.MAX_GRID_DENOMINATOR),
        ("spectral-check", "j", spectral.MAX_CHECK_PERIOD),
        ("spectral-check", "trials", cli.MAX_TRIALS),
        ("maximal", "j", dynamics.MAX_CYCLIC_PERIOD),
        ("average", "starts", cli.MAX_STARTS),
    ],
)
def test_memory_caps_exit_64_before_sieving(sub, key, cap, monkeypatch, tmp_path, capsys):
    def no_sieve(kind, n):
        raise AssertionError("sieved past a cap check")

    monkeypatch.setattr(cli, "run_sieve", no_sieve)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={cap + 1}\n")
    for argv in ([sub, f"--{key}", str(cap + 1)], [sub, "--config", str(cfg)]):
        assert main(argv) == USAGE_EXIT
        err = capsys.readouterr().err
        assert err.startswith("ergolab: error:") and f"at most {cap}" in err
    assert parse_args([sub, f"--{key}", str(cap)])[key.replace("-", "_")] == cap


@pytest.mark.parametrize(
    "argv, work",
    [
        # 641 * 6700417 = 2^32 + 1: one past the cap itself
        (["maximal", "--mode", "global", "--j", "641", "--n-max", "6700417"], (1 << 32) + 1),
        (["maximal", "--mode", "weaktype", "--j", "100", "--n-max", "1000"], 512 * 1000),
        # members 1, 2, 4, ..., 64: spans 1, 1, 2, 4, 8, 16, 32, each at most J = 16
        (["maximal", "--mode", "band", "--j", "16", "--rho", "2", "--bands", "6"], 512 * 48),
        (["maximal", "--mode", "oscillation", "--j", "1024", "--rho", "2", "--bands", "6"], 1024 * 64),
    ],
)
def test_work_bound_exits_64_before_sieving(argv, work, monkeypatch, capsys):
    class Sieved(Exception):
        pass

    def no_sieve(kind, n):
        raise Sieved

    monkeypatch.setattr(cli, "run_sieve", no_sieve)
    monkeypatch.setattr(maximal_command, "MAX_WORK", work - 1)
    assert main(argv) == USAGE_EXIT
    err = capsys.readouterr().err
    assert err.startswith("ergolab: error:") and f"is {work} element updates" in err
    monkeypatch.setattr(maximal_command, "MAX_WORK", work)
    with pytest.raises(Sieved):
        main(argv)
