"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line;
each test also fails loudly through its assertion if the criterion is missed.
Tolerances are pinned in the assertions, not configurable.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import cli_env

from ocbsim import codec, linksim, rates
from ocbsim.awgn_info import (
    NoiseModel,
    PointSet,
    mi_bpsk,
    mi_monte_carlo,
    mi_monte_carlo_grouped,
    mi_qpsk,
    stream_mi_ocb,
)
from ocbsim.linksim import LinkConfig, q_function
from ocbsim.rates import SweepSpec

INV2 = 1.0 / np.sqrt(2.0)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_curve_shapes_and_runtime():
    t0 = time.perf_counter()
    rows = rates.sweep(SweepSpec(gamma_min=0.01, gamma_max=100.0, points=60))
    elapsed = time.perf_counter() - t0
    bpsk_monotone = all(b.i_bpsk >= a.i_bpsk for a, b in zip(rows, rows[1:]))
    qpsk_monotone = all(b.i_qpsk >= a.i_qpsk for a, b in zip(rows, rows[1:]))
    asymptotes = rows[-1].i_bpsk >= 0.999 and rows[-1].i_qpsk >= 1.98
    capped = all(r.c_gauss_complex >= r.i_qpsk for r in rows)
    ok = bpsk_monotone and qpsk_monotone and asymptotes and capped and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"monotone={bpsk_monotone and qpsk_monotone}, "
        f"i_bpsk(100)={rows[-1].i_bpsk:.6f}>=0.999, i_qpsk(100)={rows[-1].i_qpsk:.6f}>=1.98, "
        f"c_gauss>=i_qpsk={capped}, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_02_qpsk_decomposition_identity():
    grid = np.geomspace(0.01, 100.0, 60)
    worst = max(abs(mi_qpsk(g) - 2.0 * mi_bpsk(g / 2.0)) for g in grid)
    _verdict(2, worst < 1e-6, f"max |mi_qpsk(g) - 2 mi_bpsk(g/2)| = {worst:.3e} < 1e-6 at 60 points")


def test_criterion_03_chain_rule_identity():
    grid = np.geomspace(0.01, 100.0, 60)
    worst = 0.0
    for g in grid:
        i_v1, i_v2 = stream_mi_ocb(g)
        worst = max(worst, abs(i_v1 + i_v2 - mi_qpsk(g)))
    _verdict(3, worst < 1e-6, f"max |i_v1 + i_v2 - mi_qpsk| = {worst:.3e} < 1e-6 at 60 points")


def test_criterion_04_claimed_rate_exceeds_qpsk_on_an_interval():
    ci = rates.find_claim_interval(threshold=0.01)
    nonempty = ci.gamma_hi > ci.gamma_lo > 0.0
    # the claimed composite rate: half the QPSK rate (axis stream) plus the BPSK rate (sign stream)
    exceeds = 0.5 * mi_qpsk(ci.gamma_peak) + mi_bpsk(ci.gamma_peak) > mi_qpsk(ci.gamma_peak)
    _verdict(
        4,
        nonempty and exceeds and ci.peak_gap > 0.01,
        f"claimed > QPSK by > 0.01 bits on gamma in [{ci.gamma_lo:.4f}, {ci.gamma_hi:.4f}], "
        f"peak gap {ci.peak_gap:.4f} bits at gamma = {ci.gamma_peak:.4f}",
    )


def test_criterion_05_superposition_subadditivity():
    # I((E1 + E2) / sigma2) < I(E1 / sigma2) + I(E2 / sigma2) at sigma2 = 1, pair by pair
    energies = (0.25, 0.5, 1.0, 2.0, 4.0)
    strict = True
    for mi, e1, e2 in itertools.product((mi_bpsk, mi_qpsk), energies, energies):
        strict = strict and mi(e1 + e2) < mi(e1) + mi(e2)
    worst_eq = max(abs(mi(e1 + 0.0) - (mi(e1) + mi(0.0))) for mi in (mi_bpsk, mi_qpsk) for e1 in energies)
    ok = strict and worst_eq < 1e-9
    _verdict(
        5,
        ok,
        f"strict on 5x5 grid for BPSK and QPSK = {strict}; "
        f"max |lhs - rhs| at E2=0 is {worst_eq:.3e} < 1e-9",
    )


def test_criterion_06_error_propagation_conditional():
    code = codec.identity_code(256)
    cfg = LinkConfig(code, code, alpha=INV2, sigma2=1.0, trials=200, seed=106,
                     stage2_input="raw_hard")
    t0 = time.perf_counter()
    stats = linksim.run_trials(cfg)
    elapsed = time.perf_counter() - t0
    cond = stats.cond_ber2_given_v1_err
    ok = stats.cond_events >= 10_000 and abs(cond - 0.5) <= 0.02 and elapsed < 60.0
    _verdict(
        6,
        ok,
        f"conditional stage-2 error {cond:.4f} = 0.50 +- 0.02 over "
        f"{stats.cond_events} stage-1 error events (>= 10^4); runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_07_genie_matches_q_function():
    sigma2s = (0.3, 0.5, 0.75, 1.0, 1.5)
    n = 200_000
    code = codec.identity_code(1000)
    worst_z = 0.0
    for i, s2 in enumerate(sigma2s):
        cfg = LinkConfig(code, code, alpha=INV2, sigma2=s2, trials=n // 1000, seed=700 + i,
                         stage2_input="genie")
        sign = linksim.run_trials(cfg).ber2
        p = float(q_function(np.sqrt(2.0) * INV2 / np.sqrt(s2)))
        se = np.sqrt(p * (1.0 - p) / n)
        worst_z = max(worst_z, abs(sign - p) / se)
    _verdict(
        7,
        worst_z < 3.0,
        f"genie stage-2 error vs Q(sqrt(2) a/sigma) at 5 SNRs: worst |z| = {worst_z:.2f} < 3",
    )


def test_criterion_08_backend_cross_validation():
    gammas = (0.25, 1.0, 2.0, 4.0, 10.0)
    noise = NoiseModel(1.0)
    n = 200_000
    worst_z = 0.0
    for i, g in enumerate(gammas):
        quad = mi_bpsk(g)
        mc = mi_monte_carlo(PointSet.uniform([np.sqrt(g), -np.sqrt(g)]), noise, n, seed=800 + i)
        worst_z = max(worst_z, abs(quad - mc.bits) / mc.stderr)

        amp = np.sqrt(g / 2.0)
        quad = mi_qpsk(g)
        pts = PointSet.uniform([[amp, amp], [-amp, amp], [amp, -amp], [-amp, -amp]])
        mc = mi_monte_carlo(pts, noise, n, seed=830 + i)
        worst_z = max(worst_z, abs(quad - mc.bits) / mc.stderr)

        a = np.sqrt(g)
        quad = stream_mi_ocb(g)[0]
        pts = PointSet.uniform([[a, 0.0], [0.0, a], [-a, 0.0], [0.0, -a]])
        mc = mi_monte_carlo_grouped(pts, [0, 1, 0, 1], noise, n, seed=860 + i)
        worst_z = max(worst_z, abs(quad - mc.bits) / mc.stderr)
    _verdict(
        8,
        worst_z < 3.0,
        f"quadrature vs MC on BPSK/QPSK/axis grouping at 5 SNRs: worst |z| = {worst_z:.2f} < 3",
    )


def test_criterion_09_codec_exactness():
    ham = codec.hamming74()
    flips_ok = True
    for word in range(16):
        src = np.array([(word >> i) & 1 for i in range(4)], dtype=np.uint8)
        cw = codec.encode(ham, src)
        for pos in range(7):
            clean = 4.0 * (1.0 - 2.0 * cw.astype(float))
            clean[pos] = -clean[pos]
            flips_ok = flips_ok and np.array_equal(codec.decode(ham, clean), src)
    round_ok = True
    for code in (ham, codec.repetition_code(1), codec.repetition_code(3),
                 codec.repetition_code(7), codec.repetition_code(12)):
        assert code.K <= 12
        for word in range(2**code.K):
            src = np.array([(word >> i) & 1 for i in range(code.K)], dtype=np.uint8)
            llr = 4.0 * (1.0 - 2.0 * codec.encode(code, src).astype(float))
            round_ok = round_ok and np.array_equal(codec.decode(code, llr), src)
    _verdict(
        9,
        flips_ok and round_ok,
        f"Hamming(7,4) corrects all 112 single flips = {flips_ok}; "
        f"exhaustive encode/decode identity (K <= 12) = {round_ok}",
    )


def test_criterion_10_cli_byte_determinism(tmp_path):
    plans = {
        "curves": ["curves", "--points", "8", "--svg"],
        # 2400 hamming74 frames are two blocks: --threads 4 runs two workers
        "simulate": ["simulate", "--trials", "2400", "--sigma2", "0.5,1.0"],
        "verify": ["verify", "--grid-points", "12", "--mc-samples", "30000",
                   "--trials", "100"],
    }
    artifacts = {
        "curves": ["curves.csv", "curves.svg"],
        "simulate": ["sim.csv"],
        "verify": ["verify.txt"],
    }
    stable = []
    env = cli_env()
    for name, argv in plans.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        a.mkdir(), b.mkdir()
        r1 = subprocess.run([sys.executable, "-m", "ocbsim", *argv,
                             "--out", str(a), "--threads", "1"],
                            cwd=tmp_path, capture_output=True, text=True, env=env)
        r2 = subprocess.run([sys.executable, "-m", "ocbsim", *argv,
                             "--out", str(b), "--threads", "4"],
                            cwd=tmp_path, capture_output=True, text=True, env=env)
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        same = all((a / f).read_bytes() == (b / f).read_bytes() for f in artifacts[name])
        stable.append(same)
    ok = all(stable)
    _verdict(
        10,
        ok,
        "byte-identical outputs across reruns and --threads 1 vs 4 for "
        f"curves/simulate/verify = {dict(zip(plans, stable))}",
    )
