"""Tests of the benchmark's own arithmetic, checks and launch rules.

    python3 -m pytest perfbench -q
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

MS = 1_000_000  # nanoseconds


def _span(name, start_ms, end_ms, parent, meta=None):
    return [name, start_ms * MS, end_ms * MS, parent, 0, meta]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == (9, 0)
    assert run.tail_percentile(list(range(20))[::-1]) == (50, 9)
    assert run.tail_percentile(list(range(100))) == (90, 89)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("cli.x", 0, 100, -1),
        _span("a.f", 10, 30, 0),
        _span("a.g", 20, 50, 0),  # overlaps a.f: counted once
        _span("b.h", 25, 45, 1),  # child of a.f only, clipped at its end
        _span("a.k", 90, 120, 0),  # runs past its parent: clipped at 100
    ]
    assert tracing.covered_s(spans, 0) == pytest.approx(0.050)
    assert tracing.self_time_s(spans, 0) == pytest.approx(0.050)
    assert tracing.self_time_s(spans, 1) == pytest.approx(0.015)
    assert tracing.self_time_s(spans, 3) == pytest.approx(0.020)


def _link_command(wall_s, ok):
    spans = [
        _span("cli.simulate", 0, 1000, -1),
        _span("codec.builtin_code", 0, 100, 0),
        _span("linksim.run_trials", 100, 900, 0, {"frames": 2}),
        _span("linksim.rng", 100, 110, 2),
        _span("codec.decode", 200, 400, 2, {"stage": 1, "ok": ok}),
        _span("codec.decode", 400, 500, 2, {"stage": 2, "ok": True}),
    ]
    return {"spans": spans, "wall_s": wall_s, "match": True}


def test_layer_metrics_on_synthetic_spans():
    m = tracing.task_layer_metrics([_link_command(0.5, True), _link_command(2.0, False)])
    assert m["codec.builtin_code.s"] == pytest.approx(0.2)
    assert m["codec.decode.stage1_s"] == pytest.approx(0.4)
    assert m["codec.decode.stage2_s"] == pytest.approx(0.2)
    assert m["codec.decode.frame_ok_ratio"] == pytest.approx(0.75)
    assert m["linksim.frames"] == 4
    assert m["linksim.rng.s"] == pytest.approx(0.02)
    assert m["cli.other_s"] == pytest.approx(0.2)
    assert m["trace.coverage.first"] == pytest.approx(0.9 / 0.5)
    assert m["trace.coverage.last"] == pytest.approx(0.9 / 2.0)
    assert m["trace.overhead.first"] == pytest.approx(2.0)
    assert m["trace.overhead.last"] == pytest.approx(0.5)
    assert m["trace.replay_match"] == 1.0
    assert m["awgn_info.mi_awgn_2d.terms_per_s"] == 0.0  # layer not reached


def test_benchmark_json_names_every_metric_the_run_computes():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = tracing.task_layer_metrics([_link_command(1.0, True)])
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    task = [{"wall_s": 1.0, "setup_s": 0.3, "reference_s": 0.05, "rss_mb": 60.0, "frames": 10,
             "problems": []}]
    computed = run.end_to_end([task])
    assert [m["name"] for m in spec["end_to_end"]] + list(run.RAW_UNITS) == list(computed)
    assert computed["wall_ref"] == [pytest.approx(20.0)]
    assert computed["frames_per_ref"] == [pytest.approx(0.5)]
    assert set(spec["paths"]) == {HERE.name}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_frames_per_command():
    frames = {label: run.frames_of(argv) for w in run.WORKLOADS.values() for label, argv in w}
    assert frames == {
        "curves": 0,
        "verify": 400,
        "simulate": 10000,
        "simulate_converge": 120,
        "simulate_fail": 30,
    }


def _write_curves(out: Path, rows):
    with open(out / "curves.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    (out / "curves.svg").write_text('<svg xmlns="http://www.w3.org/2000/svg"></svg>')


def test_curves_check_rejects_a_1e6_perturbation(tmp_path):
    rows = checks._read_csv(checks.REFS / "curves.csv")
    _write_curves(tmp_path, rows)
    assert checks.check_curves(tmp_path) == []
    rows[17]["i_v1_exact"] = repr(float(rows[17]["i_v1_exact"]) + 1e-6)
    _write_curves(tmp_path, rows)
    problems = checks.check_curves(tmp_path)
    assert len(problems) == 1 and "row 17 i_v1_exact" in problems[0]


def _write_sim(out: Path, rows):
    cols = ["sigma2", "code1", "code2", "trials", *checks.SIM_RATES]
    lines = [",".join(cols)] + [",".join(str(r[c]) for c in cols) for r in rows]
    (out / "sim.csv").write_text("\n".join(lines) + "\n")


def _sim_rows(code, sigmas, trials, scale=1.0):
    refs = json.loads((checks.REFS / "sim.json").read_text())
    rows = []
    for s in sigmas:
        ref = refs[f"{code}/{code}@{s:g}"]["rates"]
        row = {"sigma2": s, "code1": code, "code2": code, "trials": trials}
        row.update({k: ref[k]["mean"] for k in checks.SIM_RATES})
        row["ber1"] = min(1.0, row["ber1"] * scale)
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "code,sigmas,trials",
    [("hamming74", (0.5, 1.0), 5000), ("ldpc1024", (0.35,), 30)],
)
def test_sim_check_rejects_a_doubled_ber(tmp_path, code, sigmas, trials):
    _write_sim(tmp_path, _sim_rows(code, sigmas, trials))
    assert checks.check_sim(tmp_path, 0) == []
    _write_sim(tmp_path, _sim_rows(code, sigmas, trials, scale=2.0))
    problems = checks.check_sim(tmp_path, 0)
    assert len(problems) == len(sigmas) and all(" ber1 " in p for p in problems)


def test_sim_check_is_one_sided_for_belief_propagation(tmp_path):
    rows = _sim_rows("ldpc1024", (0.15,), 120)
    _write_sim(tmp_path, rows)
    assert checks.check_sim(tmp_path, 0) == []
    rows[0].update(fer1=1 / 120, ber1=0.1 / 120)  # one failed frame: within the band
    _write_sim(tmp_path, rows)
    assert checks.check_sim(tmp_path, 0) == []
    rows[0]["fer1"] = 3 / 120
    _write_sim(tmp_path, rows)
    assert len(checks.check_sim(tmp_path, 0)) == 1
    assert checks.check_sim(tmp_path, 1) == ["simulate exited 1", *checks.check_sim(tmp_path, 0)]


def test_verify_check_counts_the_exit_code_and_the_claim_interval(tmp_path):
    line = (
        "claimed rate exceeds the QPSK rate by > 0.01 bits for gamma in [0.02831, 15.77]; "
        "peak gap 0.235719 bits at gamma = 2.096"
    )
    (tmp_path / "verify.txt").write_text(f"[PASS] a: margin 0 <= tol 1\n{line}\n")
    assert checks.check_verify(tmp_path, 0) == []
    assert checks.check_verify(tmp_path, 1) == ["verify exited 1"]
    (tmp_path / "verify.txt").write_text(line.replace("15.77", "15.78") + "\n")
    assert len(checks.check_verify(tmp_path, 0)) == 1


def _verify_mc_stderrs(seed):
    """Standard errors of the 16 Monte Carlo comparisons ``ocbsim verify`` makes."""
    import numpy as np
    from ocbsim import awgn_info, linksim

    noise = awgn_info.NoiseModel(1.0)
    stderrs = []
    for idx, g in enumerate((0.25, 1.0, 2.0, 4.0, 10.0)):
        amp = np.sqrt(g / 2.0)
        qpsk = np.array([[amp, amp], [-amp, amp], [amp, -amp], [-amp, -amp]])
        for kind, alphabet in enumerate((
            awgn_info.PointSet1D.uniform([np.sqrt(g), -np.sqrt(g)]),
            awgn_info.PointSet2D.uniform(qpsk),
        )):
            mc = awgn_info.mi_monte_carlo(alphabet, noise, 200_000, seed + 97 * idx + kind)
            stderrs.append(mc.stderr)
        a = np.sqrt(g)
        axis = np.array([[a, 0.0], [0.0, a], [-a, 0.0], [0.0, -a]])
        grouped = awgn_info.mi_monte_carlo_grouped(
            awgn_info.PointSet2D.uniform(axis), np.array([0, 1, 0, 1]), noise, 200_000,
            seed + 97 * idx + 2,
        )
        stderrs.append(grouped.stderr)
    p = linksim.q_function(1.0 / np.sqrt(0.5))  # the genie link at sigma2 0.5
    stderrs.append(np.sqrt(p * (1.0 - p) / (400 * 64)))
    return stderrs


def test_verify_mc_tol_is_five_standard_errors():
    assert float(run.VERIFY_MC_TOL) >= 5.0 * max(_verify_mc_stderrs(seed=1))


def _verify(out: Path, *extra):
    from ocbsim import cli

    out.mkdir()
    return cli.main(["verify", "--seed", "1", "--out", str(out), *extra])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: backend_agreement holds each of 15 Monte Carlo comparisons to 3 "
    "standard errors, so it trips on about 4 % of seeds, seed 1 among them"
))
def test_verify_passes_at_its_defaults(tmp_path):
    assert _verify(tmp_path / "out") == 0


def test_verify_replay_writes_the_program_bytes(tmp_path):
    import replay

    mc_tol = ["--mc-tol", run.VERIFY_MC_TOL]
    assert _verify(tmp_path / "p", *mc_tol) == 0
    assert checks.check_verify(tmp_path / "p", 0) == []
    (tmp_path / "r").mkdir()
    argv = ["verify", "--seed", "1", "--out", str(tmp_path / "r"), *mc_tol]
    assert replay.replay(argv, task=0)[0] == 0
    assert (tmp_path / "r" / "verify.txt").read_bytes() == (
        tmp_path / "p" / "verify.txt"
    ).read_bytes()


def test_replay_writes_the_program_bytes(tmp_path):
    from ocbsim import cli
    import replay

    argv = ["simulate", "--code1", "hamming74", "--code2", "hamming74",
            "--sigma2", "0.5,1.0", "--trials", "200", "--seed", "7"]
    (tmp_path / "p").mkdir()
    (tmp_path / "r").mkdir()
    assert cli.main(argv + ["--out", str(tmp_path / "p")]) == 0
    code, spans = replay.replay(argv + ["--out", str(tmp_path / "r")], task=3)
    assert code == 0
    assert (tmp_path / "r" / "sim.csv").read_bytes() == (tmp_path / "p" / "sim.csv").read_bytes()
    names = {s[tracing.NAME] for s in spans}
    assert {"cli.simulate", "linksim.run_trials", "linksim.rng", "codec.decode"} <= names
    assert {s[tracing.TASK] for s in spans} == {3}
    with pytest.raises(ValueError, match="does not cover"):
        replay.replay(argv + ["--alpha", "0.5"], task=0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "link_hamming", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
