"""End-to-end link simulation: noiseless limits, analytic error-rate
oracles, reproducibility across worker processes, and tally algebra."""

import concurrent.futures
import math
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from ocbsim import codec, linksim, ocb
from ocbsim.linksim import LinkConfig, SimStats, q_function

INV2 = 1.0 / np.sqrt(2.0)
HAM = codec.hamming74()


def axis_error_oracle(alpha, sigma2):
    """P(|Y_im| > |Y_re|) with the signal on the real axis, by integration."""
    a = np.sqrt(2.0) * alpha
    s = np.sqrt(sigma2)

    def f(y):
        return norm.pdf(y, a, s) * 2.0 * norm.sf(abs(y) / s)

    lo, _ = quad(f, -np.inf, 0.0)
    hi, _ = quad(f, 0.0, np.inf)
    return lo + hi


# ---------------------------------------------------------------------------
# configuration validation


def test_config_requires_matching_block_lengths():
    with pytest.raises(ValueError):
        LinkConfig(HAM, codec.repetition_code(5), alpha=1.0, sigma2=0.5, trials=10)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0, sigma2=0.5, trials=10),
        dict(alpha=1.0, sigma2=-0.1, trials=10),
        dict(alpha=1.0, sigma2=float("nan"), trials=10),
        dict(alpha=1.0, sigma2=float("inf"), trials=10),
        dict(alpha=1.0, sigma2=0.5, trials=0),
        dict(alpha=1.0, sigma2=0.5, trials=10, seed=-1),
        dict(alpha=1.0, sigma2=0.5, trials=10, stage2_input="psychic"),
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        LinkConfig(HAM, HAM, **kwargs)


def test_config_refuses_a_code_too_large_for_ml_decoding():
    # identity and LDPC codes decode without a codebook, whatever K is
    for code in (codec.identity_code(18), codec.ldpc_code(36)):
        assert code.K > 16
        LinkConfig(code, code, alpha=1.0, sigma2=0.5, trials=10)
    spc = codec.LinearCode(np.vstack([np.eye(17, dtype=np.uint8), np.ones((1, 17), dtype=np.uint8)]))
    with pytest.raises(ValueError, match=r"K = 17 .* 2\^17 codewords, more than the limit of 2\^16"):
        LinkConfig(codec.identity_code(18), spc, alpha=1.0, sigma2=0.5, trials=10)


@pytest.mark.parametrize(
    "alpha,sigma2",
    [
        (1e154, 0.5),  # gamma overflows to inf
        (INV2, 1e-320),  # gamma inf from a subnormal sigma2
        (1e200, 0.5),  # alpha ** 2 overflows
        (1.0, 1e-301),  # gamma 2e301, finite but past the ceiling
        (9e153, 1e10),  # gamma 1.6e298, but the symbol energy 1.6e308 is not
    ],
)
def test_config_refuses_llrs_past_float_range(alpha, sigma2):
    with pytest.raises(ValueError, match="at most 1e\\+300"):
        LinkConfig(HAM, HAM, alpha=alpha, sigma2=sigma2, trials=10)


@pytest.mark.parametrize("sigma2", [0.0, 0.5])
def test_config_refuses_an_infinite_alpha(sigma2):
    with pytest.raises(ValueError, match="finite"):
        LinkConfig(HAM, HAM, alpha=np.inf, sigma2=sigma2, trials=10)


def test_gamma_is_the_symbol_snr():
    assert LinkConfig(HAM, HAM, alpha=INV2, sigma2=0.5, trials=1).gamma == pytest.approx(2.0)
    assert LinkConfig(HAM, HAM, alpha=1e200, sigma2=0.0, trials=1).gamma == np.inf
    # alpha ** 2 underflows to 0 here, but 2 alpha^2 / sigma2 does not
    assert LinkConfig(HAM, HAM, alpha=1e-200, sigma2=1e-300, trials=1).gamma == pytest.approx(2e-100, abs=0.0)


@pytest.mark.parametrize(
    "alpha,sigma2,want",
    [
        (1e-180, 1e-300, 2e-60),
        (3e-163, 1e-200, 1.8e-125),  # alpha ** 2 = 9e-326 is below the least subnormal
        (1e-170, 1e-310, 2e-30),  # and sigma2 is subnormal
    ],
)
def test_gamma_when_alpha_squared_underflows(alpha, sigma2, want):
    assert alpha * alpha == 0.0
    assert LinkConfig(HAM, HAM, alpha=alpha, sigma2=sigma2, trials=1).gamma == pytest.approx(
        want, rel=1e-12, abs=0.0)


def test_gamma_prints_as_the_closed_form_on_the_noise_grid():
    # alpha = 1/sqrt(2), sigma2 = 0.01 ... 3.00: the 12 digits sim.csv writes
    for i in range(1, 301):
        sigma2 = i / 100
        got = LinkConfig(HAM, HAM, alpha=INV2, sigma2=sigma2, trials=1).gamma
        assert f"{got:.12g}" == f"{2.0 * INV2 ** 2 / sigma2:.12g}", sigma2


@pytest.mark.parametrize("code", [HAM, codec.ldpc_code(96)], ids=["hamming74", "ldpc96"])
def test_gamma_at_the_ceiling_is_error_free(code):
    cfg = LinkConfig(code, code, alpha=1.0, sigma2=2e-300, trials=20, seed=2)
    assert cfg.gamma == pytest.approx(linksim.GAMMA_MAX, rel=1e-15)
    stats = linksim.run_trials(cfg)
    assert (stats.bit_errors1, stats.bit_errors2, stats.cond_events) == (0, 0, 0)


# ---------------------------------------------------------------------------
# transmit path


def transmit_frame(cfg, trial):
    """Row 0 of a one-frame block."""
    blk = linksim.transmit_block(cfg, range(trial, trial + 1))
    assert blk.y.shape == (1, cfg.code1.M)
    return linksim.TxBlock(blk.c1[0], blk.c2[0], blk.v1[0], blk.v2[0], blk.y[0])


def test_noiseless_transmit_hits_constellation_points_exactly():
    cfg = LinkConfig(HAM, HAM, alpha=INV2, sigma2=0.0, trials=1, seed=5)
    blk = transmit_frame(cfg, 0)
    from ocbsim.ocb import Constellation, map_bits

    expect = map_bits(blk.v1, blk.v2, Constellation(INV2))
    assert np.array_equal(blk.y, expect)


def test_transmit_is_deterministic_for_a_fixed_generator_state():
    cfg = LinkConfig(HAM, HAM, alpha=1.0, sigma2=0.3, trials=1, seed=5)
    a = transmit_frame(cfg, 123)
    b = transmit_frame(cfg, 123)
    assert np.array_equal(a.c1, b.c1) and np.array_equal(a.c2, b.c2)
    assert np.array_equal(a.y, b.y)


def test_received_energy_accounting():
    # E|y|^2 = 2 alpha^2 + 2 sigma2; compare against the sample mean
    alpha, sigma2 = 0.9, 0.6
    rep = codec.repetition_code(100_000)
    cfg = LinkConfig(rep, rep, alpha=alpha, sigma2=sigma2, trials=1, seed=2)
    blk = transmit_frame(cfg, 77)
    e = np.abs(blk.y) ** 2
    want = 2.0 * alpha**2 + 2.0 * sigma2
    se = e.std(ddof=1) / np.sqrt(e.size)
    assert abs(e.mean() - want) < 3.0 * se


def numpy_seed_words(seed, trials):
    return np.array([np.random.SeedSequence([seed, t]).generate_state(4, np.uint64) for t in trials])


# 2**100 + 7 is four entropy words, so [seed, t] overflows SeedSequence's pool
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7])
def test_block_seeding_matches_numpy(seed):
    draws = np.random.default_rng(19).integers(0, 2**64, size=4, dtype=np.uint64)
    for t in [0, 1, 2**32 - 1, 2**32, 12345, *map(int, draws)]:
        got = linksim._pcg64_seeds(seed, range(t, t + 1))
        assert got.dtype == np.uint64 and got.flags.c_contiguous, t
        assert np.array_equal(got, numpy_seed_words(seed, [t])), t
    # one and two entropy words for t, hashed in one pass each
    straddle = range(2**32 - 6, 2**32 + 6)
    got = linksim._pcg64_seeds(seed, straddle)
    assert got.shape == (len(straddle), 4) and got.flags.c_contiguous
    assert np.array_equal(got, numpy_seed_words(seed, straddle))


def numpy_transmit_chain(cfg, trials):
    """The frames of a block one at a time, each on its own
    default_rng(SeedSequence([seed, t])), as (c1, c2, v1, v2, y) rows."""
    cons = ocb.Constellation(cfg.alpha)
    sigma = np.sqrt(cfg.sigma2)
    rows = []
    for t in trials:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t]))
        c1 = rng.integers(0, 2, size=cfg.code1.K, dtype=np.uint8)
        c2 = rng.integers(0, 2, size=cfg.code2.K, dtype=np.uint8)
        re = rng.normal(0.0, sigma, cfg.code1.M)
        im = rng.normal(0.0, sigma, cfg.code1.M)
        v1 = codec.encode(cfg.code1, c1)
        v2 = codec.encode(cfg.code2, c2)
        rows.append((c1, c2, v1, v2, ocb.map_bits(v1, v2, cons) + re + 1j * im))
    return [np.array(col) for col in zip(*rows)]


# K mod 4 of 0, 1, 3 (M = 7) and 2 (M = 6), in both orders
_SEVEN = {"hamming74": HAM, "repetition7": codec.repetition_code(7),
          "identity7": codec.identity_code(7)}
_TX_PAIRS = {
    **{f"{a}-{b}": (_SEVEN[a], _SEVEN[b]) for a in _SEVEN for b in _SEVEN},
    "identity6-repetition6": (codec.identity_code(6), codec.repetition_code(6)),
    "repetition6-identity6": (codec.repetition_code(6), codec.identity_code(6)),
    "identity64": (codec.identity_code(64), codec.identity_code(64)),
    "ldpc96": (codec.ldpc_code(96), codec.ldpc_code(96)),
}


@pytest.mark.parametrize("seed", [0, 2**64 + 5])
@pytest.mark.parametrize("sigma2", [0.0, 0.4])
@pytest.mark.parametrize("pair", sorted(_TX_PAIRS))
def test_transmit_block_matches_per_frame_numpy_generators(pair, sigma2, seed):
    code1, code2 = _TX_PAIRS[pair]
    cfg = LinkConfig(code1, code2, alpha=INV2, sigma2=sigma2, trials=40, seed=seed)
    blk = linksim.transmit_block(cfg, range(3, 40))
    want = numpy_transmit_chain(cfg, range(3, 40))
    for name, expect in zip(("c1", "c2", "v1", "v2", "y"), want):
        got = getattr(blk, name)
        assert got.dtype == expect.dtype, name
        if got.dtype.kind in "fc":  # bit for bit: array_equal takes -0.0 for +0.0
            got, expect = got.view(np.uint64), expect.view(np.uint64)
        assert np.array_equal(got, expect), name


@pytest.mark.parametrize("pair", ["hamming74-hamming74", "identity6-repetition6", "ldpc96"])
def test_transmit_block_across_two_seeding_passes_matches_numpy(pair):
    # ids below 2**32 are one entropy word and the rest two, so the block is seeded in two passes
    code1, code2 = _TX_PAIRS[pair]
    trials = range(2**32 - 5, 2**32 + 4)
    cfg = LinkConfig(code1, code2, alpha=INV2, sigma2=0.4, trials=trials.stop, seed=7)
    blk = linksim.transmit_block(cfg, trials)
    want = numpy_transmit_chain(cfg, trials)
    for name, expect in zip(("c1", "c2", "v1", "v2", "y"), want):
        got = getattr(blk, name)
        assert got.dtype == expect.dtype, name
        if got.dtype.kind in "fc":
            got, expect = got.view(np.uint64), expect.view(np.uint64)
        assert np.array_equal(got, expect), name


# ---------------------------------------------------------------------------
# full receiver chain


def test_noiseless_link_is_error_free():
    cfg = LinkConfig(HAM, HAM, alpha=INV2, sigma2=1e-6, trials=1000, seed=1)
    stats = linksim.run_trials(cfg)
    assert stats.trials == 1000
    assert stats.bit_errors1 == 0 and stats.bit_errors2 == 0
    assert stats.fer1 == 0.0 and stats.fer2 == 0.0


def test_pure_noise_limit_is_a_coin_flip():
    code = codec.identity_code(64)
    cfg = LinkConfig(code, code, alpha=INV2, sigma2=1000.0, trials=100, seed=3)
    stats = linksim.run_trials(cfg)
    assert stats.ber1 == pytest.approx(0.5, abs=0.03)
    assert stats.ber2 == pytest.approx(0.5, abs=0.03)


def test_error_propagation_conditional_is_one_half():
    # with the raw axis decision feeding stage 2, a wrong axis leaves only
    # signal-free noise on the read coordinate: half the signs are wrong
    code = codec.identity_code(256)
    cfg = LinkConfig(code, code, alpha=INV2, sigma2=1.0, trials=150, seed=9,
                     stage2_input="raw_hard")
    stats = linksim.run_trials(cfg)
    assert stats.cond_events >= 10_000
    assert stats.cond_ber2_given_v1_err == pytest.approx(0.5, abs=0.02)


def test_genie_stage2_matches_q_function():
    code = codec.identity_code(128)
    alpha, sigma2 = INV2, 0.6
    cfg = LinkConfig(code, code, alpha=alpha, sigma2=sigma2, trials=250, seed=14,
                     stage2_input="genie")
    stats = linksim.run_trials(cfg)
    p = float(q_function(np.sqrt(2.0) * alpha / np.sqrt(sigma2)))
    n = stats.trials * code.K
    se = np.sqrt(p * (1.0 - p) / n)
    assert abs(stats.ber2 - p) < 3.0 * se


def test_ber_is_monotone_in_snr_within_ci():
    sigma2s = [1.2, 0.6, 0.3]
    rates = []
    for s2 in sigma2s:
        cfg = LinkConfig(HAM, HAM, alpha=INV2, sigma2=s2, trials=600, seed=21)
        rates.append(linksim.run_trials(cfg))
    for lo, hi in zip(rates[1:], rates[:-1]):
        slack = 2.0 * (lo.ci95("ber1") + hi.ci95("ber1"))
        assert lo.ber1 <= hi.ber1 + slack
        slack = 2.0 * (lo.ci95("ber2") + hi.ci95("ber2"))
        assert lo.ber2 <= hi.ber2 + slack


# ---------------------------------------------------------------------------
# reproducibility


def test_identical_configs_give_identical_stats():
    cfg = LinkConfig(HAM, HAM, alpha=1.0, sigma2=0.4, trials=300, seed=31)
    a = linksim.run_trials(cfg)
    b = linksim.run_trials(cfg)
    assert a == b


@pytest.fixture
def serial_pool(monkeypatch):
    """Swap the ProcessPoolExecutor that run_trials imports when it starts
    workers for a stand-in that records its size and the chunks its map
    makes, each a list of argument tuples, as ProcessPoolExecutor.map cuts
    them, and runs them in order in this process; returns the list of pools made."""
    made = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.parts = []
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            calls = list(zip(*iterables))
            self.parts = [calls[i:i + chunksize] for i in range(0, len(calls), chunksize)]
            return [fn(*call) for part in self.parts for call in part]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return made


def test_stats_do_not_depend_on_thread_count(monkeypatch, serial_pool):
    monkeypatch.setattr(linksim, "BLOCK_SYMBOLS", 7 * 40)  # 301 trials: 8 blocks
    cfg = LinkConfig(HAM, HAM, alpha=1.0, sigma2=0.4, trials=301, seed=31)
    ref = linksim.run_trials(cfg)
    for threads in (2, 4, 7):
        got = linksim.run_trials(cfg, threads=threads)
        assert got == ref, f"threads={threads}"
    assert [pool.max_workers for pool in serial_pool] == [2, 4, 7]


@pytest.mark.parametrize("trials,threads", [(160, 1), (160, 2), (160, 3), (161, 4), (161, 9)])
def test_threads_split_the_blocks_into_contiguous_runs(monkeypatch, serial_pool, trials, threads):
    monkeypatch.setattr(linksim, "BLOCK_SYMBOLS", 7 * 40)  # 40 frames a block
    drawn = Counter()

    seeds = linksim._pcg64_seeds

    def counting_seeds(seed, trials):
        drawn.update(trials)
        return seeds(seed, trials)

    monkeypatch.setattr(linksim, "_pcg64_seeds", counting_seeds)
    cfg = LinkConfig(HAM, HAM, alpha=1.0, sigma2=0.4, trials=trials, seed=5)
    stats = linksim.run_trials(cfg, threads=threads)
    assert stats.trials == trials
    assert drawn == Counter(range(trials))  # every trial exactly once
    blocks = -(-trials // 40)
    workers = min(threads, blocks)
    if workers == 1:
        assert serial_pool == []  # in-process
        return
    (pool,) = serial_pool
    assert pool.max_workers == workers
    chunks = [[ids for _, ids in part] for part in pool.parts]
    # at most one chunk per worker, none empty, none longer than the largest even share
    assert len(chunks) <= workers
    assert all(0 < len(chunk) <= -(-blocks // workers) for chunk in chunks)
    # the chunks, in order, are runs of consecutive whole blocks that cover every trial once
    assert [ids for chunk in chunks for ids in chunk] == [
        range(t, min(t + 40, trials)) for t in range(0, trials, 40)]


def test_stats_do_not_depend_on_worker_processes():
    cfg = LinkConfig(HAM, HAM, alpha=1.0, sigma2=0.4, trials=2400, seed=8)
    serial = linksim.run_trials(cfg, threads=1)
    parallel = linksim.run_trials(cfg, threads=2)
    assert serial == parallel


@pytest.mark.parametrize("sigma2", [0.0, 0.4])
@pytest.mark.parametrize("code,trials", [(HAM, 2400), (codec.ldpc_code(96), 200)],
                         ids=["hamming74", "ldpc96"])
def test_two_worker_processes_match_in_process(code, trials, sigma2):
    cfg = LinkConfig(code, code, alpha=INV2, sigma2=sigma2, trials=trials, seed=3)
    assert trials > linksim.BLOCK_SYMBOLS // code.M  # at least two blocks
    assert asdict(linksim.run_trials(cfg, threads=2)) == asdict(linksim.run_trials(cfg))


# ---------------------------------------------------------------------------
# blocks of frames against the frame-by-frame chain


def reference_run_trials(cfg):
    """The receiver chain one frame at a time, each frame on its own
    SeedSequence([seed, t]) generator; tallies as SimStats."""
    from ocbsim.awgn_info import NoiseModel
    from ocbsim.ocb import Constellation, demap_stage1, demap_stage2, map_bits, reconstruct_v1

    cons, noise = Constellation(cfg.alpha), NoiseModel(cfg.sigma2)
    stats = SimStats(trials=cfg.trials, k1=cfg.code1.K, k2=cfg.code2.K, block_len=cfg.code1.M)
    sigma = np.sqrt(cfg.sigma2)
    for t in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t]))
        c1 = rng.integers(0, 2, size=cfg.code1.K, dtype=np.uint8)
        c2 = rng.integers(0, 2, size=cfg.code2.K, dtype=np.uint8)
        v1 = codec.encode(cfg.code1, c1)
        v2 = codec.encode(cfg.code2, c2)
        y = map_bits(v1, v2, cons) + rng.normal(0.0, sigma, v1.size) + 1j * rng.normal(0.0, sigma, v1.size)
        llr1 = demap_stage1(y, cons, noise)
        c1_hat = codec.decode(cfg.code1, llr1)
        if cfg.stage2_input == "reconstructed":
            v1_used = reconstruct_v1(c1_hat, cfg.code1)
        elif cfg.stage2_input == "raw_hard":
            v1_used = (llr1 < 0.0).astype(np.uint8)
        else:
            v1_used = v1
        llr2 = demap_stage2(y, v1_used, cons, noise)
        c2_hat = codec.decode(cfg.code2, llr2)
        be1 = int(np.count_nonzero(c1_hat != c1))
        be2 = int(np.count_nonzero(c2_hat != c2))
        wrong_axis = v1_used != v1
        stats.bit_errors1 += be1
        stats.bit_errors2 += be2
        stats.frame_errors1 += int(be1 > 0)
        stats.frame_errors2 += int(be2 > 0)
        stats.cond_events += int(np.count_nonzero(wrong_axis))
        stats.cond_errors += int(np.count_nonzero(((llr2 < 0.0) != v2) & wrong_axis))
    return stats


# (code1, code2, sigma2, trials); in blocks of 4096 symbols every trial
# count fills at least one block and leaves a partial one
_LINKS = {
    "hamming74": (HAM, HAM, 0.6, 700),
    "repetition7-hamming74": (codec.repetition_code(7), HAM, 0.6, 700),
    "identity16": (codec.identity_code(16), codec.identity_code(16), 0.8, 300),
    "ldpc96": (codec.ldpc_code(96), codec.ldpc_code(96), 0.3, 100),
}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("mode", linksim.STAGE2_MODES)
@pytest.mark.parametrize("link", sorted(_LINKS))
def test_blocks_match_the_frame_by_frame_chain(link, mode, threads, monkeypatch, serial_pool):
    code1, code2, sigma2, trials = _LINKS[link]
    monkeypatch.setattr(linksim, "BLOCK_SYMBOLS", 4096)
    assert trials > linksim.BLOCK_SYMBOLS // code1.M
    assert trials % max(1, linksim.BLOCK_SYMBOLS // code1.M) != 0
    cfg = LinkConfig(code1, code2, alpha=INV2, sigma2=sigma2, trials=trials, seed=12,
                     stage2_input=mode)
    got = linksim.run_trials(cfg, threads=threads)  # threads 3: 2 or 3 parts, in-process
    blocks = -(-trials // max(1, linksim.BLOCK_SYMBOLS // code1.M))
    assert [len(pool.parts) for pool in serial_pool] == ([] if threads == 1 else [min(3, blocks)])
    assert got == reference_run_trials(cfg)
    assert got.frame_errors1 > 0 and got.frame_errors2 > 0


def test_block_size_does_not_change_tallies(monkeypatch):
    cfg = LinkConfig(HAM, HAM, alpha=INV2, sigma2=0.7, trials=230, seed=4)
    ref = linksim.run_trials(cfg)
    for symbols in (1, 50, 10**6):
        monkeypatch.setattr(linksim, "BLOCK_SYMBOLS", symbols)
        assert linksim.run_trials(cfg) == ref, symbols


def test_block_size_does_not_change_bp_tallies(monkeypatch):
    # BP frames leave a block at their own iteration; blocks of 1 frame, of
    # 7 (the last one holds 2) and of all 100 give the same tallies
    code = codec.ldpc_code(96)
    cfg = LinkConfig(code, code, alpha=INV2, sigma2=0.3, trials=100, seed=8)
    ref = linksim.run_trials(cfg)
    assert ref.frame_errors1 > 0
    for symbols in (1, 7 * 96, 10**6):
        monkeypatch.setattr(linksim, "BLOCK_SYMBOLS", symbols)
        assert linksim.run_trials(cfg) == ref, symbols


@pytest.mark.parametrize("code", [HAM, codec.ldpc_code(96)], ids=["hamming74", "ldpc96"])
@pytest.mark.parametrize("mode", linksim.STAGE2_MODES)
def test_noiseless_limit_is_error_free(code, mode):
    cfg = LinkConfig(code, code, alpha=INV2, sigma2=0.0, trials=20, seed=2, stage2_input=mode)
    stats = linksim.run_trials(cfg)
    assert stats.trials == 20
    assert (stats.bit_errors1, stats.bit_errors2, stats.cond_events) == (0, 0, 0)


def test_noiseless_limit_saturates_at_the_decoder_clip():
    cons = ocb.Constellation(INV2)
    # stage 1 reads |re| - |im|: 2, -0.5, 0, 0
    y1 = np.array([2.0, 0.5 + 1j, 1 - 1j, complex(-0.0, 0.0)])
    assert np.array_equal(ocb.demap_stage1(y1, cons, None), [30.0, -30.0, 30.0, 30.0])
    # stage 2 reads the chosen coordinate: 2, -0.5, 0, -0
    y2 = np.array([2.0 + 5j, 5 - 0.5j, -5j, complex(5.0, -0.0)])
    v1 = np.array([0, 1, 0, 1])
    assert np.array_equal(ocb.demap_stage2(y2, v1, cons, None), [30.0, -30.0, 30.0, 30.0])
    assert codec.LLR_CLIP == 30.0


# ---------------------------------------------------------------------------
# statistics containers


# (errors, n) of each rate of FULL, by the name ci95 takes
FULL = SimStats(trials=10, k1=4, k2=5, block_len=7,
                bit_errors1=3, bit_errors2=1, frame_errors1=2, frame_errors2=1,
                cond_events=5, cond_errors=2)
FULL_COUNTS = {"ber1": (3, 40), "ber2": (1, 50), "fer1": (2, 10), "fer2": (1, 10), "cond": (2, 5)}
RATE_NAMES = {"ber1": "ber1", "ber2": "ber2", "fer1": "fer1", "fer2": "fer2",
              "cond": "cond_ber2_given_v1_err"}


def test_stats_rates_are_count_ratios():
    for which, (errors, n) in FULL_COUNTS.items():
        assert getattr(FULL, RATE_NAMES[which]) == errors / n, which


def test_conditional_rate_is_nan_without_events():
    s = SimStats(trials=10, k1=4, k2=4, block_len=7)
    assert math.isnan(s.cond_ber2_given_v1_err)
    assert np.isnan(s.ci95("cond"))
    # no trials: every rate is undefined, not a ZeroDivisionError
    empty = SimStats(trials=0, k1=4, k2=4, block_len=7)
    for which, name in RATE_NAMES.items():
        assert math.isnan(getattr(empty, name)), name
        assert math.isnan(empty.ci95(which)), which


def _wilson_bounds(errors, n, z=1.959963984540054):
    p = errors / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return centre - half, centre + half


def test_ci95_is_positive_with_zero_errors():
    s = SimStats(trials=250, k1=4, k2=4, block_len=7)
    z2 = 1.959963984540054**2
    assert s.ci95("ber1") == pytest.approx(z2 / (1000 + z2), rel=1e-12)
    assert s.ci95("fer2") == pytest.approx(z2 / (250 + z2), rel=1e-12)
    assert _wilson_bounds(0, 1000)[1] == pytest.approx(s.ci95("ber1"), rel=1e-12)


def test_ci95_covers_the_wilson_interval():
    for which, (errors, n) in FULL_COUNTS.items():
        lo, hi = _wilson_bounds(errors, n)
        p = errors / n
        assert FULL.ci95(which) == pytest.approx(max(p - lo, hi - p), rel=1e-12), which
        assert p - FULL.ci95(which) <= lo + 1e-15 and hi - 1e-15 <= p + FULL.ci95(which), which


def test_stats_merge_adds_tallies():
    a = SimStats(trials=5, k1=4, k2=4, block_len=7, bit_errors1=2, cond_events=3)
    b = SimStats(trials=7, k1=4, k2=4, block_len=7, bit_errors1=1, cond_errors=1)
    m = a + b
    assert (m.trials, m.bit_errors1, m.cond_events, m.cond_errors) == (12, 3, 3, 1)
    assert (m.k1, m.k2, m.block_len) == (4, 4, 7)


def test_stats_merge_rejects_mismatched_shapes():
    a = SimStats(trials=5, k1=4, k2=4, block_len=7)
    b = SimStats(trials=5, k1=1, k2=4, block_len=7)
    with pytest.raises(ValueError):
        a + b


# ---------------------------------------------------------------------------
# uncoded per-symbol statistics


def uncoded_error_rates(alpha, sigma2, n, seed):
    """(axis error rate, sign error rate given the true axis) over n symbols:
    ber1 and ber2 of the genie link with identity codes."""
    code = codec.identity_code(1000)
    cfg = LinkConfig(code, code, alpha=alpha, sigma2=sigma2, trials=n // 1000, seed=seed,
                     stage2_input="genie")
    stats = linksim.run_trials(cfg)
    assert stats.trials * code.K == n
    return stats.ber1, stats.ber2


def test_uncoded_rates_vanish_without_noise():
    axis, sign = uncoded_error_rates(1.0, 1e-8, 100_000, seed=1)
    assert axis == 0.0 and sign == 0.0


def test_uncoded_sign_error_matches_q_function():
    alpha, sigma2, n = 1.0, 0.5, 300_000
    _, sign = uncoded_error_rates(alpha, sigma2, n, seed=3)
    p = float(q_function(np.sqrt(2.0) * alpha / np.sqrt(sigma2)))
    se = np.sqrt(p * (1.0 - p) / n)
    assert abs(sign - p) < 3.0 * se


@pytest.mark.parametrize("alpha,sigma2", [(1.0, 0.5), (INV2, 1.0), (0.6, 0.2)])
def test_uncoded_axis_error_matches_integration_oracle(alpha, sigma2):
    n = 300_000
    axis, _ = uncoded_error_rates(alpha, sigma2, n, seed=4)
    p = axis_error_oracle(alpha, sigma2)
    se = np.sqrt(p * (1.0 - p) / n)
    assert abs(axis - p) < 3.0 * se


def test_q_function_anchors():
    assert float(q_function(0.0)) == pytest.approx(0.5, abs=1e-15)
    assert float(q_function(1.959963984540054)) == pytest.approx(0.025, abs=1e-9)
    assert float(q_function(-1e9)) == pytest.approx(1.0, abs=1e-12)
