import json
import os
import re

import pytest

from ergolab import cli, expsums, maximal, spectral
from ergolab.cli import USAGE_EXIT, UsageError, main, parse_args
from ergolab.weights import sieve


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
    ],
)
def test_out_of_range_orbit_inputs_exit_64(argv, capsys):
    assert main(argv) == USAGE_EXIT
    err = capsys.readouterr().err
    assert err.startswith("ergolab: error:")
    assert "Traceback" not in err


def test_oversized_ladder_exits_64(monkeypatch, capsys):
    monkeypatch.setattr(maximal, "MAX_LADDER_MEMBERS", 1000)
    argv = ["maximal", "--mode", "band", "--j", "8", "--rho", "1.0000001", "--bands", "1"]
    assert main(argv) == USAGE_EXIT
    err = capsys.readouterr().err
    assert "distinct members" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["expsum", "scan", "--n-max", "300", "--grid-den", "8"], 300),
        (["expsum", "profile", "--n-list", "100,700,400", "--grid-den", "8"], 700),
        (["expsum", "short", "--start", "50", "--span", "20", "--theta", "1/3"], 70),
    ],
)
def test_expsum_sieves_once_to_what_the_mode_reads(argv, limit, monkeypatch, tmp_path):
    limits = []

    def counting_sieve(kind, n):
        limits.append(n)
        return sieve(kind, n)

    monkeypatch.setattr(cli, "run_sieve", counting_sieve)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert limits == [limit]


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
        ["maximal", "--n-max", "300000000"],
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
        ("spectral-check", "j", spectral.MAX_DENSE_PERIOD),
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
