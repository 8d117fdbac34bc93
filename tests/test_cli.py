"""Command line interface: outputs, manifests, exit codes, config merging,
and byte-level determinism of every artifact."""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from conftest import cli_env
from hypothesis import given, seed, settings, strategies as st

from ocbsim.rates import CSV_COLUMNS


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "ocbsim", *args],
        cwd=cwd, capture_output=True, text=True, env=cli_env(),
    )


def read(path):
    return path.read_bytes()


# ---------------------------------------------------------------------------
# parser basics


def test_version_flag(tmp_path):
    out = run_cli("--version", cwd=tmp_path)
    assert out.returncode == 0
    assert "0.1.0" in out.stdout


def test_missing_subcommand_is_a_usage_error(tmp_path):
    assert run_cli(cwd=tmp_path).returncode == 2


def test_unknown_flag_is_a_usage_error(tmp_path):
    assert run_cli("curves", "--does-not-exist", cwd=tmp_path).returncode == 2


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_a_usage_error(tmp_path, threads):
    out = run_cli("curves", "--points", "2", "--threads", threads, cwd=tmp_path)
    assert out.returncode == 2
    assert "--threads" in out.stderr
    assert not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize("argv,flag,artifact", [
    (("simulate", "--trials", "0", "--code1", "ldpc1024"), "--trials", "sim.csv"),
    (("curves", "--points", "0"), "--points", "curves.csv"),
])
def test_counts_below_one_are_refused_at_parse_time(tmp_path, argv, flag, artifact):
    out = run_cli(*argv, cwd=tmp_path)
    assert out.returncode == 2
    assert flag in out.stderr
    assert not (tmp_path / artifact).exists()


def test_simulate_refuses_an_oversized_builtin_code(tmp_path):
    out = run_cli("simulate", "--code1", "identity100000", "--code2", "identity100000",
                  "--trials", "1", cwd=tmp_path)
    assert out.returncode == 2
    assert "limit" in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_refuses_quad_order(tmp_path):
    out = run_cli("simulate", "--trials", "5", "--quad-order", "64", cwd=tmp_path)
    assert out.returncode == 2
    assert "--quad-order" in out.stderr
    assert not (tmp_path / "sim.csv").exists()


def test_cli_import_loads_no_scipy(tmp_path):
    code = "import sys, ocbsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, env=cli_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_imports_load_no_submodule_and_no_process_pool(tmp_path):
    code = ("import sys, ocbsim\n"
            "print(sorted(m for m in sys.modules if m.startswith('ocbsim.')))\n"
            "import ocbsim.cli\n"
            "print([m for m in ('concurrent.futures.process', 'multiprocessing', 'numpy.random')\n"
            "       if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, env=cli_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "[]"]


@pytest.mark.parametrize("argv", [
    ("curves", "--points", "5", "--svg"),
    ("simulate", "--trials", "20"),
    ("verify", "--grid-points", "3", "--mc-samples", "20000", "--trials", "20"),
])
def test_commands_run_with_numpy_as_the_only_dependency(tmp_path, argv):
    code = "import sys; sys.modules['scipy'] = None; from ocbsim import cli; sys.exit(cli.main(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                         capture_output=True, text=True, env=cli_env())
    assert out.returncode == 0, out.stdout + out.stderr


# ---------------------------------------------------------------------------
# curves


def test_curves_default_grid(tmp_path):
    out = run_cli("curves", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 61
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == pytest.approx(0.01, rel=1e-9)
    assert float(last[0]) == pytest.approx(100.0, rel=1e-9)


def test_curves_single_point(tmp_path):
    out = run_cli("curves", "--gamma-min", "2", "--gamma-max", "2", "--points", "1",
                  cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert len(lines) == 2


def test_curves_refuses_many_points_on_a_zero_width_range(tmp_path):
    out = run_cli("curves", "--gamma-min", "2", "--gamma-max", "2", "--out", "out", cwd=tmp_path)
    assert out.returncode == 2, out.stdout + out.stderr
    assert "--points 1" in out.stderr and "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == []


def test_curves_at_the_smallest_subnormal_snr(tmp_path):
    from ocbsim import cli

    argv = ["curves", "--points", "2", "--gamma-min", "5e-324", "--gamma-max", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    rows = (tmp_path / "curves.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1] == "4.94065645841e-324" + ",0" * (len(CSV_COLUMNS) - 1)


def test_curves_outputs_are_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    r1 = run_cli("curves", "--points", "12", "--svg", "--out", str(a), "--threads", "1",
                 cwd=tmp_path)
    r2 = run_cli("curves", "--points", "12", "--svg", "--out", str(b), "--threads", "4",
                 cwd=tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0
    assert read(a / "curves.csv") == read(b / "curves.csv")
    assert read(a / "curves.svg") == read(b / "curves.svg")


@pytest.mark.parametrize("gamma_max", ["1e301", "inf", "nan"])
def test_curves_refuses_an_snr_past_the_ceiling(tmp_path, gamma_max):
    out = run_cli("curves", "--points", "2", "--gamma-max", gamma_max, cwd=tmp_path)
    assert out.returncode == 2, out.stderr
    assert "gamma_max must be at most 1e+300" in out.stderr
    assert not (tmp_path / "curves.csv").exists()


def test_curves_at_the_snr_ceiling_are_exact(tmp_path):
    out = run_cli("curves", "--gamma-min", "1e299", "--gamma-max", "1e300", "--points", "2",
                  cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    header, *rows = (tmp_path / "curves.csv").read_text().splitlines()
    assert len(rows) == 2
    for row in rows:
        rec = dict(zip(header.split(","), map(float, row.split(","))))
        for col, bits in (("i_bpsk", 1.0), ("i_v2_exact", 1.0), ("i_qpsk", 2.0),
                          ("sum_exact", 2.0)):
            assert abs(rec[col] - bits) < 1e-12, col


# typed edge pools for each curves flag: both ends of float range, tokens that
# are not ASCII numbers (non-ASCII digits, which float() takes, and a superscript
# two, which it refuses), values just inside and outside each range, and ordinary values
GAMMA_TOKENS = ["0", "-0.0", "-1", "nan", "inf", "-inf", "5e-324", "1e-320", "1e300", "1e301",
                "", "two", "\u0662", "\uff11\uff10", "\u00b2", "0.01", "2", "100"]
CURVES_POOLS = {
    "gamma-min": GAMMA_TOKENS,
    "gamma-max": GAMMA_TOKENS,
    "points": ["-1", "0", "1", "2", "3", "4", "5"],
    "spacing": ["log", "linear", "cubic"],
    "quad-order": ["15", "16", "128", "370", "371"],
}


@st.composite
def curves_flags(draw):
    """A ``curves`` argv (each flag left out or drawn from its pool) and the rows it asks for."""
    argv, points = ["curves"], 60
    for flag, pool in CURVES_POOLS.items():
        token = draw(st.sampled_from([None, *pool]))
        if token is not None:
            argv.append(f"--{flag}={token}")
            if flag == "points":
                points = int(token)
    if draw(st.booleans()):
        argv.append("--svg")
    return argv, points


@seed(20190423)
@settings(max_examples=500, deadline=None)
@given(curves_flags())
def test_every_curves_run_writes_its_rows_or_exits_2_writing_nothing(case):
    from ocbsim import cli

    argv, points = case
    with tempfile.TemporaryDirectory() as tmp:  # hypothesis refuses function-scoped fixtures
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        try:
            code = cli.main([*argv, "--out", str(out_dir)])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        # a RuntimeWarning never gets here: the pytest config makes it an error
        assert code in (0, 2), argv
        if code == 2:
            assert list(out_dir.iterdir()) == [], argv
            return
        lines = (out_dir / "curves.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS) and len(lines) == points + 1, argv
        svg = out_dir / "curves.svg"
        assert svg.exists() == ("--svg" in argv), argv
        if "--svg" in argv:
            root = ET.parse(svg).getroot()
            assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 5, argv


def test_curves_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# grid size\npoints = 5\ngamma-min = 0.5\n")
    only_cfg = tmp_path / "c1"
    only_cfg.mkdir()
    out = run_cli("curves", "--config", str(cfg), "--out", str(only_cfg), cwd=tmp_path)
    assert out.returncode == 0
    assert len((only_cfg / "curves.csv").read_text().splitlines()) == 6

    flagged = tmp_path / "c2"
    flagged.mkdir()
    out = run_cli("curves", "--config", str(cfg), "--points", "3", "--out", str(flagged),
                  cwd=tmp_path)
    assert out.returncode == 0
    assert len((flagged / "curves.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize(
    "command,line,message",
    [("curves", "metric = dB", "unknown config key 'metric'"),
     ("curves", "points = abc", "invalid int value: 'abc'"),
     ("curves", "spacing = cubic", "invalid choice: 'cubic'"),
     ("curves", "svg = maybe", "argument --svg: expected a boolean, got 'maybe'"),
     ("curves", "points", "expected 'key = value', got 'points'"),
     ("simulate", "sigma2 = 0.5, abc", "argument --sigma2: expected a comma-separated list of numbers, "
                                       "got '0.5, abc'"),
     ("verify", "mc_tol = -1", "must be in [0, inf), got -1.0"),
     ("verify", "gap_threshold = 0", "must be in (0, inf), got 0.0")],
    ids=["unknown-key", "bad-int", "bad-choice", "bad-bool", "malformed", "bad-list", "negative-mc-tol",
         "zero-gap"],
)
def test_bad_config_line_is_a_usage_error(tmp_path, command, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = run_cli(command, "--config", str(cfg), cwd=tmp_path)
    assert out.returncode == 2
    assert message in out.stderr
    assert "invalid _" not in out.stderr
    assert not any(tmp_path.glob("*.manifest.txt"))


def _value_options():
    """(command, flag) for every option that takes a parsed value: all but the paths --out and --config."""
    from ocbsim.cli import _COMMAND_DEFAULTS

    return [(command, "--" + key.replace("_", "-"))
            for command, keys in _COMMAND_DEFAULTS.items() for key in ("seed", "threads", *keys)]


@pytest.mark.parametrize("token", ["maybe", ","])
@pytest.mark.parametrize("command,flag", _value_options())
def test_no_parse_error_names_a_private_function(tmp_path, capsys, command, flag, token):
    from ocbsim import cli

    try:
        code = cli.main([command, f"{flag}={token}", "--out", str(tmp_path)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert flag in err or token in err
    assert "invalid _" not in err
    assert not any(tmp_path.iterdir())


# every option of each command, as config lines and as the same flags
EVERY_OPTION = {
    "curves": {"gamma-min": "0.05", "gamma_max": "40", "points": "7", "spacing": "linear",
               "quad_order": "48", "svg": "true"},
    "simulate": {"alpha": "0.8", "sigma2": "0.4, 0.9", "code1": "repetition3",
                 "code2": "identity3", "trials": "50", "stage2-input": "raw_hard"},
    "verify": {"quad_order": "64", "grid_points": "3", "mc_samples": "20000",
               "mc_tol": "0.02", "trials": "40", "gap_threshold": "0.02"},
}


def _artifacts(out_dir):
    """Every file the command wrote, with the manifest's wall clock left out."""
    return {
        path.name: b"".join(ln for ln in path.read_bytes().splitlines(keepends=True)
                            if not ln.startswith(b"wall_clock = "))
        for path in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("command", sorted(EVERY_OPTION))
def test_config_file_writes_the_bytes_of_the_same_flags(tmp_path, command):
    from ocbsim import cli

    assert set(k.replace("-", "_") for k in EVERY_OPTION[command]) == set(
        cli._COMMAND_DEFAULTS[command])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in EVERY_OPTION[command].items()))
    flags = []
    for key, value in EVERY_OPTION[command].items():
        flag = "--" + key.replace("_", "-")
        flags += [flag] if key == "svg" else [flag, value.replace(" ", "")]
    by_cfg, by_flags = tmp_path / "cfg", tmp_path / "flags"
    code = cli.main([command, "--config", str(cfg), "--out", str(by_cfg)])
    assert cli.main([command, *flags, "--out", str(by_flags)]) == code
    assert len(_artifacts(by_cfg)) >= 2
    assert _artifacts(by_cfg) == _artifacts(by_flags)


@pytest.mark.parametrize("command", ["curves", "simulate", "verify"])
def test_parsed_options_stay_none_until_given(command):
    # the benchmark replay refuses any option that is not None
    from ocbsim import cli

    args = cli.build_parser().parse_args([command])
    given = {k for k, v in vars(args).items() if v is not None}
    assert given == {"command", "func", "seed", "out", "threads"}
    assert set(cli._COMMAND_DEFAULTS[command]) <= set(vars(args))


def test_unreadable_config_is_an_io_error(tmp_path):
    assert run_cli("curves", "--config", str(tmp_path / "absent.cfg"),
                   cwd=tmp_path).returncode == 3


def test_config_that_is_not_utf8_is_a_usage_error_naming_the_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xfftrials = 4\n")
    out = run_cli("simulate", "--config", str(cfg), cwd=tmp_path)
    assert out.returncode == 2
    assert f"{cfg}: not UTF-8 text" in out.stderr and "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path):
    outs = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"{bom}points = 5\n", encoding="utf-8")
        out = run_cli("curves", "--config", str(cfg), "--out", name, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        outs.append(read(tmp_path / name / "curves.csv"))
    assert outs[0] == outs[1]


def test_unwritable_output_is_an_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = run_cli("curves", "--points", "3", "--out", str(blocker / "sub"), cwd=tmp_path)
    assert out.returncode == 3


# ---------------------------------------------------------------------------
# simulate


def test_simulate_default_row(tmp_path):
    out = run_cli("simulate", "--trials", "30", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    # default alpha = 1/sqrt(2), sigma2 = 0.5: symbol SNR gamma = 2
    assert float(row["gamma"]) == pytest.approx(2.0, rel=1e-9)
    assert row["code1"] == "hamming74" and row["k1"] == "4"
    assert row["trials"] == "30"


def test_simulate_one_row_per_noise_level(tmp_path):
    out = run_cli("simulate", "--trials", "20", "--sigma2", "0.4,0.8", cwd=tmp_path)
    assert out.returncode == 0
    lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert len(lines) == 3
    g = [float(l.split(",")[0]) for l in lines[1:]]
    assert g[0] > g[1]


def test_simulate_near_noiseless_run_is_clean(tmp_path):
    out = run_cli("simulate", "--trials", "50", "--sigma2", "1e-6", cwd=tmp_path)
    assert out.returncode == 0
    header, row = (tmp_path / "sim.csv").read_text().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert float(rec["ber1"]) == 0.0 and float(rec["ber2"]) == 0.0
    assert rec["cond_ber2_given_v1_err"] == "nan"


@pytest.mark.parametrize("code", ["hamming74", "ldpc96"])
def test_simulate_noiseless_limit_is_clean(tmp_path, code):
    out = run_cli("simulate", "--trials", "5", "--sigma2", "0", "--code1", code,
                  "--code2", code, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    header, row = (tmp_path / "sim.csv").read_text().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert rec["gamma"] == "inf"
    for col in ("ber1", "ber2", "fer1", "fer2", "cond_events"):
        assert float(rec[col]) == 0.0, col


@pytest.mark.parametrize("how", ["flag", "config"])
def test_simulate_negative_zero_noise_is_the_noiseless_limit(tmp_path, how):
    from ocbsim import cli

    argv = ["simulate", "--trials", "30", "--code1", "ldpc96", "--code2", "ldpc96"]
    assert cli.main(argv + ["--sigma2", "0", "--out", str(tmp_path / "zero")]) == 0
    if how == "flag":
        argv += ["--sigma2", "-0.0"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma2 = -0.0\n")
        argv += ["--config", str(cfg)]
    assert cli.main(argv + ["--out", str(tmp_path / "minus")]) == 0
    assert read(tmp_path / "minus" / "sim.csv") == read(tmp_path / "zero" / "sim.csv")
    # the manifest records the noise variance that ran, as sim.csv does
    assert b"\nsigma2 = 0\n" in read(tmp_path / "minus" / "sim.manifest.txt")


def test_sim_manifest_records_each_noise_level_as_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma2 = -0.0, 0.5\n")
    out = run_cli("simulate", "--trials", "10", "--config", str(cfg), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    header, *rows = (tmp_path / "sim.csv").read_text().splitlines()
    col = header.split(",").index("sigma2")
    assert [row.split(",")[col] for row in rows] == ["0", "0.5"]
    assert "\nsigma2 = 0,0.5\n" in (tmp_path / "sim.manifest.txt").read_text()


def test_simulate_writes_a_gamma_whose_alpha_squared_underflows(tmp_path):
    out = run_cli("simulate", "--alpha", "1e-200", "--sigma2", "1e-300", "--trials", "10",
                  cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    header, row = (tmp_path / "sim.csv").read_text().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert rec["gamma"] == "2e-100"


def test_simulate_defaults_are_the_links(tmp_path):
    from ocbsim import cli, codec, linksim, ocb

    out = run_cli("simulate", "--trials", "10", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    manifest = (tmp_path / "sim.manifest.txt").read_text()
    # unit symbol energy, and the receiver LinkConfig builds when not told otherwise
    assert ocb.Constellation(alpha=cli._ALPHA).symbol_energy == pytest.approx(1.0, rel=1e-15)
    assert f"\nalpha = {1.0 / 2.0 ** 0.5:.12g}\n" in manifest
    default = linksim.LinkConfig(codec.hamming74(), codec.hamming74(),
                                 alpha=1.0, sigma2=0.5, trials=1).stage2_input
    assert f"\nstage2_input = {default}\n" in manifest


@pytest.mark.parametrize("sigma2", ["nan", "inf", "-1"])
def test_simulate_refuses_a_noise_variance_outside_0_inf(tmp_path, sigma2):
    out = run_cli("simulate", "--trials", "5", "--sigma2", sigma2, cwd=tmp_path)
    assert out.returncode == 2
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_builds_a_shared_code_once(tmp_path, monkeypatch):
    from ocbsim import cli

    calls = []
    resolve = cli._resolve_code
    monkeypatch.setattr(cli, "_resolve_code", lambda token: calls.append(token) or resolve(token))
    argv = ["simulate", "--trials", "3", "--code1", "ldpc24", "--out", str(tmp_path)]
    assert cli.main(argv + ["--code2", "ldpc24"]) == 0
    assert calls == ["ldpc24"]
    calls.clear()
    assert cli.main(argv + ["--code2", "identity24"]) == 0
    assert calls == ["ldpc24", "identity24"]


def test_identity_generator_file_decodes_like_the_builtin(tmp_path):
    # the generator's structure picks per-bit decisions, whatever K is
    gen = tmp_path / "eye20.txt"
    gen.write_text("".join(" ".join("1" if j == i else "0" for j in range(20)) + "\n"
                           for i in range(20)))
    common = ("simulate", "--trials", "50", "--sigma2", "0.5,1.0")
    runs = {}
    for label, code in (("file", f"@{gen}"), ("builtin", "identity20")):
        out_dir = tmp_path / label
        out = run_cli(*common, "--code1", code, "--code2", code, "--out", str(out_dir),
                      cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        lines = (out_dir / "sim.csv").read_text().splitlines()
        runs[label] = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    for got, want in zip(runs["file"], runs["builtin"]):
        assert got["code1"] == got["code2"] == f"@{gen}"
        for row in (got, want):
            del row["code1"], row["code2"]
        assert got == want
    assert len(runs["file"]) == 2


@pytest.mark.parametrize("token", ["256", "-1", "\u0661"])
def test_generator_file_entry_other_than_zero_or_one_is_a_usage_error(tmp_path, token):
    gen = tmp_path / "bad.txt"
    gen.write_text(f"1 0 {token}\n")
    out = run_cli("simulate", "--code1", f"@{gen}", "--code2", f"@{gen}", "--trials", "4",
                  cwd=tmp_path)
    assert out.returncode == 2
    assert f"{gen}:1:" in out.stderr and "Traceback" not in out.stderr
    assert not list(tmp_path.glob("sim*"))


def test_generator_file_that_is_not_utf8_is_a_usage_error_naming_the_file(tmp_path):
    gen = tmp_path / "bad.gen"
    gen.write_bytes(b"\xff1 0\n0 1\n")
    out = run_cli("simulate", "--code1", f"@{gen}", "--code2", "identity2", "--trials", "4",
                  cwd=tmp_path)
    assert out.returncode == 2
    assert f"{gen}: not UTF-8 text" in out.stderr and "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == [gen]


def test_generator_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    outs = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "code.gen").write_text(f"{bom}1 0\n0 1\n", encoding="utf-8")
        out = run_cli("simulate", "--code1", "@code.gen", "--code2", "identity2", "--trials", "4",
                      cwd=tmp_path / name)
        assert out.returncode == 0, out.stderr
        outs.append(read(tmp_path / name / "sim.csv"))
    assert outs[0] == outs[1]


def test_simulate_refuses_a_non_ascii_code_number(tmp_path):
    out = run_cli("simulate", "--code1", "ldpc\u0669\u0666", "--trials", "4", cwd=tmp_path)
    assert out.returncode == 2
    assert "unknown code name" in out.stderr and "Traceback" not in out.stderr
    assert not list(tmp_path.iterdir())


def test_generator_file_too_large_for_ml_is_refused_before_any_frame(tmp_path):
    # K = 17 with one parity row: no parity matrix, not the identity, 2^17 codewords
    gen = tmp_path / "spc18.txt"
    rows = [["1" if j == i else "0" for j in range(17)] for i in range(17)] + [["1"] * 17]
    gen.write_text("".join(" ".join(row) + "\n" for row in rows))
    out = run_cli("simulate", "--code1", f"@{gen}", "--code2", f"@{gen}", "--trials", "4",
                  cwd=tmp_path)
    assert out.returncode == 2
    assert "K = 17" in out.stderr and "2^16" in out.stderr and "Traceback" not in out.stderr
    assert not list(tmp_path.glob("sim*"))


def test_simulate_error_propagation_columns(tmp_path):
    out = run_cli("simulate", "--code1", "identity64", "--code2", "identity64",
                  "--trials", "60", "--sigma2", "1.0", "--stage2-input", "raw_hard",
                  cwd=tmp_path)
    assert out.returncode == 0
    header, row = (tmp_path / "sim.csv").read_text().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert int(rec["cond_events"]) > 500
    assert float(rec["cond_ber2_given_v1_err"]) == pytest.approx(0.5, abs=0.1)


def test_simulate_is_thread_invariant(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    # 2400 hamming74 frames are two blocks, so --threads 3 runs two workers
    common = ("simulate", "--trials", "2400", "--sigma2", "0.5,1.0", "--seed", "7")
    r1 = run_cli(*common, "--out", str(a), cwd=tmp_path)
    r2 = run_cli(*common, "--threads", "3", "--out", str(b), cwd=tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0
    assert read(a / "sim.csv") == read(b / "sim.csv")


def test_simulate_has_no_shards_option(tmp_path):
    out = run_cli("simulate", "--trials", "5", "--shards", "2", cwd=tmp_path)
    assert out.returncode == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shards = 2\n")
    out = run_cli("simulate", "--trials", "5", "--config", str(cfg), cwd=tmp_path)
    assert out.returncode == 2
    assert "shards" in out.stderr
    assert not (tmp_path / "sim.csv").exists()


@pytest.mark.parametrize("argv", [
    ("--alpha", "1e154", "--sigma2", "0.5", "--trials", "50"),  # gamma overflows
    ("--sigma2", "1e-320", "--trials", "5"),  # subnormal noise variance
    ("--alpha", "1e200"),  # alpha ** 2 overflows
    ("--sigma2", "0.5,1e-320", "--trials", "5"),  # only the second level is bad
])
def test_simulate_refuses_an_snr_past_float_range(tmp_path, argv):
    out = run_cli("simulate", *argv, cwd=tmp_path)
    assert out.returncode == 2, out.stderr
    assert "--sigma2 0" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_at_the_snr_ceiling_is_clean(tmp_path):
    out = run_cli("simulate", "--alpha", "1", "--sigma2", "2e-300", "--trials", "50",
                  cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    header, row = (tmp_path / "sim.csv").read_text().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert float(rec["gamma"]) == pytest.approx(1e300, rel=1e-12)
    for col in ("ber1", "ber2", "fer1", "fer2", "cond_events"):
        assert float(rec[col]) == 0.0, col


def test_simulate_block_length_mismatch_is_a_usage_error(tmp_path):
    out = run_cli("simulate", "--code1", "hamming74", "--code2", "repetition5",
                  "--trials", "10", cwd=tmp_path)
    assert out.returncode == 2
    assert "block length" in out.stderr


# ---------------------------------------------------------------------------
# verify


VERIFY_FAST = ("verify", "--grid-points", "25", "--mc-samples", "40000",
               "--trials", "150")


def test_verify_passes_and_reports(tmp_path):
    out = run_cli(*VERIFY_FAST, cwd=tmp_path)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "[FAIL]" not in out.stdout
    for name in ("qpsk_decomposition", "chain_rule", "backend_agreement",
                 "subadditivity_strict", "constellation_geometry",
                 "genie_link_q_function", "claim_interval_nonempty"):
        assert re.search(rf"^\[PASS\] {name}: margin .* <= tol ", out.stdout, re.M), name
    assert "peak gap" in out.stdout
    assert "all checks passed" in out.stdout
    assert (tmp_path / "verify.txt").read_text() == out.stdout


def test_verify_report_is_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    r1 = run_cli(*VERIFY_FAST, "--out", str(a), cwd=tmp_path)
    r2 = run_cli(*VERIFY_FAST, "--out", str(b), "--threads", "2", cwd=tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0
    assert read(a / "verify.txt") == read(b / "verify.txt")


def test_verify_unattainable_tolerance_fails_loudly(tmp_path):
    out = run_cli(*VERIFY_FAST, "--mc-tol", "1e-12", cwd=tmp_path)
    assert out.returncode == 1
    assert re.search(r"^\[FAIL\] backend_agreement: margin ", out.stdout, re.M)
    assert "FAILED" in out.stdout


@pytest.mark.parametrize(
    "flag,value",
    [("--mc-tol", "-1"), ("--mc-tol", "nan"), ("--mc-tol", "inf"), ("--grid-points", "0"),
     ("--trials", "0"), ("--mc-samples", "0"), ("--gap-threshold", "0"), ("--gap-threshold", "-1"),
     ("--gap-threshold", "nan"), ("--gap-threshold", "inf")],
)
def test_verify_refuses_meaningless_values_at_parse_time(tmp_path, flag, value):
    out = run_cli("verify", f"{flag}={value}", cwd=tmp_path)
    assert out.returncode == 2
    assert flag in out.stderr
    assert not (tmp_path / "verify.txt").exists()


def test_verify_gap_threshold_above_the_peak_is_the_searchs_error(tmp_path, capsys):
    from ocbsim import cli

    argv = ["verify", "--grid-points", "2", "--mc-samples", "10000", "--trials", "10",
            "--mc-tol", "0.05", "--gap-threshold", "0.5", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "gap never exceeds threshold 0.5" in err
    assert "the peak gap is 0.2357" in err
    assert not (tmp_path / "verify.txt").exists()


def test_verify_gap_threshold_below_the_searchs_reach_is_refused_first(tmp_path, capsys, monkeypatch):
    # the claimed gap at the search's lower end, gamma = 1e-3, is about 3.6e-4 bits
    from ocbsim import awgn_info, cli

    def no_monte_carlo(*args):
        raise AssertionError("Monte Carlo ran before the threshold was refused")

    monkeypatch.setattr(awgn_info, "mi_monte_carlo_grouped", no_monte_carlo)
    assert cli.main(["verify", "--gap-threshold", "1e-4", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "threshold must be at least 0.00036" in err
    assert not (tmp_path / "verify.txt").exists()


@pytest.mark.parametrize("command", ["curves", "simulate", "verify"])
def test_negative_seed_is_refused_at_parse_time(command):
    from ocbsim.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--seed", "-1"])
    assert build_parser().parse_args([command, "--seed", "0"]).seed == 0


def test_verify_mc_samples_floor_is_the_estimators():
    from ocbsim import awgn_info
    from ocbsim.cli import build_parser

    floor = awgn_info.MIN_MC_SAMPLES
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--mc-samples", str(floor - 1)])
    assert build_parser().parse_args(["verify", "--mc-samples", str(floor)]).mc_samples == floor


@pytest.mark.parametrize("command", ["curves", "verify"])
@pytest.mark.parametrize("order", ["15", "371", "372"])
def test_quad_order_outside_the_node_range_is_refused(command, order):
    from ocbsim.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--quad-order", order])


def test_curves_runs_at_the_highest_quad_order(tmp_path):
    out = run_cli("curves", "--gamma-min", "2", "--gamma-max", "2", "--points", "1",
                  "--quad-order", "370", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert len((tmp_path / "curves.csv").read_text().splitlines()) == 2


def test_verify_searches_the_claim_interval_once(tmp_path, monkeypatch):
    from ocbsim import cli, rates

    calls = []
    find = rates.find_claim_interval
    monkeypatch.setattr(rates, "find_claim_interval",
                        lambda *a, **kw: calls.append(a) or find(*a, **kw))
    argv = ["verify", "--grid-points", "2", "--mc-samples", "10000", "--trials", "10",
            "--mc-tol", "0.05", "--out", str(tmp_path)]
    cli.main(argv)
    assert len(calls) == 1
    assert "claimed rate exceeds the QPSK rate" in (tmp_path / "verify.txt").read_text()


def test_verify_evaluates_each_subadditivity_rate_once(monkeypatch):
    from ocbsim import awgn_info, cli

    rates_of = {"bpsk": awgn_info.mi_bpsk, "qpsk": awgn_info.mi_qpsk}
    calls = {"bpsk": [], "qpsk": []}
    for name, log in calls.items():
        monkeypatch.setattr(awgn_info, f"mi_{name}",
                            lambda g, order, rate=rates_of[name], log=log: log.append(g) or rate(g, order))
    opt = dict(cli._VERIFY_DEFAULTS)
    rep = cli._Report()
    cli._verify_subadditivity(rep, opt)
    # 17 distinct energies: 0, the five grid energies and their pair sums
    assert [len(set(log)) for log in calls.values()] == [17, 17]
    assert [len(log) for log in calls.values()] == [17, 17]
    # the same comparisons evaluated pair by pair: I(E1 + E2) against I(E1) + I(E2) at sigma2 = 1
    energies = [0.25, 0.5, 1.0, 2.0, 4.0]
    order = opt["quad_order"]
    strict, eq = [], []
    for mi in rates_of.values():
        for e1 in energies:
            for e2 in energies:
                strict.append(mi(e1 + e2, order) - (mi(e1, order) + mi(e2, order)))
            eq.append(abs(mi(e1 + 0.0, order) - (mi(e1, order) + mi(0.0, order))))
    ref = cli._Report()
    ref.check("subadditivity_strict", max(strict), -1e-12, "5x5 energy grid, bpsk and qpsk")
    ref.check("subadditivity_equality_at_zero", max(eq), 1e-9, "E2 = 0 edge")
    assert rep.lines == ref.lines


@pytest.mark.parametrize("module,curve,failing", [
    # the rate rows' 1D QPSK column, 2 mi_bpsk(gamma / 2), against the 2D oracle
    ("rates", "mi_bpsk", ["qpsk_decomposition"]),
    # the oracle itself, which both identity checks read and no rate row calls
    ("awgn_info", "mi_qpsk", ["qpsk_decomposition", "chain_rule"]),
], ids=["rates.mi_bpsk", "awgn_info.mi_qpsk"])
def test_identity_checks_catch_a_bias_on_either_side(tmp_path, monkeypatch, module, curve, failing):
    # a relative bias of 1e-5 moves a rate by up to 2e-5 bits, 20 times the checks' 1e-6
    from ocbsim import awgn_info, cli, rates

    target = {"rates": rates, "awgn_info": awgn_info}[module]
    unbiased = getattr(target, curve)
    monkeypatch.setattr(target, curve, lambda gamma, order: unbiased(gamma, order) * (1.0 + 1e-5))
    argv = ["verify", "--grid-points", "5", "--mc-samples", "10000", "--trials", "10",
            "--mc-tol", "0.05", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    report = (tmp_path / "verify.txt").read_text()
    assert re.findall(r"^\[FAIL\] (\w+):", report, re.M) == failing


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect, ROADMAP items 1 and 14: chain_rule compares two different 2D quadratures "
    "against a fixed 1e-6, and at order 64 they differ by 2.48e-6 on the default grid"
))
def test_verify_passes_at_quad_order_64(tmp_path):
    from ocbsim import cli

    argv = ["verify", "--quad-order", "64", "--mc-samples", "10000", "--trials", "10",
            "--mc-tol", "0.05", "--out", str(tmp_path)]
    assert cli.main(argv) == 0


BLAS_THREAD_COMMANDS = {
    "curves": ("curves", "--points", "5", "--svg"),
    "verify": ("verify", "--grid-points", "3", "--mc-samples", "20000", "--trials", "20"),
    "simulate": ("simulate", "--code1", "ldpc96", "--code2", "ldpc96", "--sigma2", "0.4",
                 "--trials", "20"),
}


@pytest.mark.parametrize("command", sorted(BLAS_THREAD_COMMANDS))
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        done = subprocess.run(
            [sys.executable, "-m", "ocbsim", *BLAS_THREAD_COMMANDS[command], "--out", str(out)],
            cwd=tmp_path, capture_output=True, text=True,
            env={**cli_env(), "OPENBLAS_NUM_THREADS": threads},
        )
        assert done.returncode == 0, done.stdout + done.stderr
        outputs.append(_artifacts(out))
    assert len(outputs[0]) >= 2
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# the output writer: manifests, refusals, encoding


def _manifest_digests(path):
    return dict(re.findall(r"^output (\S+) sha256 = ([0-9a-f]{64})$",
                           path.read_text(encoding="utf-8"), re.M))


@pytest.mark.parametrize("argv,stem,written", [
    (("curves", "--points", "5", "--svg"), "curves", {"curves.csv", "curves.svg"}),
    (("simulate", "--trials", "20"), "sim", {"sim.csv"}),
    (VERIFY_FAST, "verify", {"verify.txt"}),
], ids=["curves", "simulate", "verify"])
def test_manifest_records_true_hashes(tmp_path, argv, stem, written):
    out = run_cli(*argv, "--out", "out", cwd=tmp_path)
    assert out.returncode == 0, out.stdout + out.stderr
    out_dir = tmp_path / "out"
    manifest = out_dir / f"{stem}.manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    assert text.startswith(f"command = {stem}\n") and "\nseed = 0\n" in text
    assert {p.name for p in out_dir.iterdir()} == written | {manifest.name}
    # the manifest lists exactly the files written, each with the digest of its bytes
    assert _manifest_digests(manifest) == {
        name: hashlib.sha256(read(out_dir / name)).hexdigest() for name in written}


@pytest.mark.parametrize("argv", [
    ("curves", "--gamma-max", "1e301"),
    ("simulate", "--code1", "hamming74", "--code2", "identity8"),
    ("verify", "--gap-threshold", "0.5"),
], ids=["curves", "simulate", "verify"])
def test_a_refusal_after_parsing_writes_nothing(tmp_path, argv):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = run_cli(*argv, "--out", str(out_dir), cwd=tmp_path)
    assert out.returncode == 2, out.stdout + out.stderr
    assert "error: " in out.stderr and "Traceback" not in out.stderr
    assert list(out_dir.iterdir()) == []


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    # argv's non-ASCII path is written back byte for byte, whatever the locale's encoding
    gen = tmp_path / "g\u00e9n7.txt"
    gen.write_text("".join(" ".join("1" if j == i else "0" for j in range(7)) + "\n"
                           for i in range(7)), encoding="utf-8")
    env = {**cli_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    out = subprocess.run(
        [sys.executable, "-m", "ocbsim", "simulate", "--code1", f"@{gen}", "--code2", "identity7",
         "--trials", "10", "--out", "out"],
        cwd=tmp_path, capture_output=True, env=env,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    token = b"@" + os.fsencode(gen)
    lines = read(tmp_path / "out" / "sim.csv").splitlines()
    assert dict(zip(lines[0].split(b","), lines[1].split(b",")))[b"code1"] == token
    manifest = tmp_path / "out" / "sim.manifest.txt"
    assert b"\ncode1 = " + token + b"\n" in read(manifest)
    assert _manifest_digests(manifest) == {
        "sim.csv": hashlib.sha256(read(tmp_path / "out" / "sim.csv")).hexdigest()}
