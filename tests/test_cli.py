"""Command line interface: outputs, manifests, exit codes, config merging,
and byte-level determinism of every artifact."""

import hashlib
import re
import subprocess
import sys

import pytest
from conftest import cli_env

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


def test_curves_manifest_records_true_hashes(tmp_path):
    out = run_cli("curves", "--points", "5", cwd=tmp_path)
    assert out.returncode == 0
    manifest = (tmp_path / "curves.manifest.txt").read_text()
    assert "command = curves" in manifest
    assert "seed = 0" in manifest
    m = re.search(r"^output curves\.csv sha256 = ([0-9a-f]{64})$", manifest, re.M)
    assert m, manifest
    want = hashlib.sha256(read(tmp_path / "curves.csv")).hexdigest()
    assert m.group(1) == want


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


def test_unknown_config_key_is_a_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("metric = dB\n")
    assert run_cli("curves", "--config", str(cfg), cwd=tmp_path).returncode == 2


def test_unreadable_config_is_an_io_error(tmp_path):
    assert run_cli("curves", "--config", str(tmp_path / "absent.cfg"),
                   cwd=tmp_path).returncode == 3


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


def test_simulate_error_propagation_columns(tmp_path):
    out = run_cli("simulate", "--code1", "identity64", "--code2", "identity64",
                  "--trials", "60", "--sigma2", "1.0", "--stage2-input", "raw_hard",
                  cwd=tmp_path)
    assert out.returncode == 0
    header, row = (tmp_path / "sim.csv").read_text().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert int(rec["cond_events"]) > 500
    assert float(rec["cond_ber2_given_v1_err"]) == pytest.approx(0.5, abs=0.1)


def test_simulate_is_shard_and_thread_invariant(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    common = ("simulate", "--trials", "40", "--sigma2", "0.5,1.0", "--seed", "7")
    r1 = run_cli(*common, "--shards", "1", "--out", str(a), cwd=tmp_path)
    r2 = run_cli(*common, "--shards", "8", "--threads", "3", "--out", str(b), cwd=tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0
    assert read(a / "sim.csv") == read(b / "sim.csv")


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
