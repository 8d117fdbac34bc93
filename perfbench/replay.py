"""Traced replays of the ``ocbsim`` commands the workloads run.

Each replay walks the same chain as the command, in the same order, through
the layers' public functions, and records a span around every layer call.
It writes the same output files, so the benchmark can compare them byte for
byte with the untraced command's (``trace.replay_match``); a replay that no
longer follows the program also shows in ``trace.coverage``.

Only the options the workloads use are replayed; any other option raises.
``rates.find_claim_interval`` runs as one span: its scan, bisection and
golden-section search are private, so its quadratures are not counted under
``awgn_info``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ocbsim import awgn_info, codec, linksim, ocb, rates
from ocbsim.cli import build_parser
from ocbsim.svgfig import LineChart

from tracing import Tracer

# Constants the commands use at their defaults.
_ORDER = awgn_info.DEFAULT_QUAD_ORDER
_ALPHA = 1.0 / np.sqrt(2.0)
_VERIFY_GRID_POINTS = 60
_VERIFY_MC_SAMPLES = 200_000
_VERIFY_TRIALS = 400
_VERIFY_GAP_THRESHOLD = 0.01
_VERIFY_SNRS = (0.25, 1.0, 2.0, 4.0, 10.0)
_SIM_COLUMNS = (
    "gamma", "alpha", "sigma2", "code1", "code2", "k1", "k2", "block_len",
    "trials", "stage2_input", "ber1", "ci95_ber1", "ber2", "ci95_ber2",
    "fer1", "fer2", "cond_events", "cond_ber2_given_v1_err",
)
_REPLAYED_OPTIONS = {
    "curves": {"svg"},
    "verify": {"mc_tol"},
    "simulate": {"code1", "code2", "sigma2", "trials"},
}
_COMMON = {"command", "func", "seed", "out", "threads"}


def _fmt(x) -> str:
    return "{:.12g}".format(x) if isinstance(x, float) else str(x)


def _csv_line(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _write(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# --- awgn_info and rates, as the commands reach them ------------------------


def _mi_bpsk(tr: Tracer, gamma: float) -> float:
    a = np.sqrt(gamma)
    alphabet = awgn_info.PointSet1D.uniform([-a, a])
    return tr.call(
        "awgn_info.mi_awgn_1d", awgn_info.mi_awgn_1d, alphabet, awgn_info.NoiseModel(1.0), _ORDER
    ).bits


def _mi_2d(tr: Tracer, points, noise) -> float:
    alphabet = awgn_info.PointSet2D.uniform(points)
    terms = _ORDER * _ORDER * alphabet.size * alphabet.size
    return tr.call(
        "awgn_info.mi_awgn_2d", awgn_info.mi_awgn_2d, alphabet, noise, _ORDER,
        meta={"terms": terms},
    ).bits


def _mi_qpsk(tr: Tracer, gamma: float) -> float:
    c = np.sqrt(gamma / 2.0)
    return _mi_2d(tr, [(c, c), (c, -c), (-c, c), (-c, -c)], awgn_info.NoiseModel(1.0))


def _rate_ocb_exact(tr: Tracer, gamma: float) -> tuple[float, float, float]:
    if gamma == 0.0:
        return 0.0, 0.0, 0.0
    alpha = np.sqrt(gamma / 2.0)
    noise = awgn_info.NoiseModel(1.0)
    amp = np.sqrt(2.0) * alpha
    i_joint = _mi_2d(tr, [(amp, 0.0), (0.0, amp), (-amp, 0.0), (0.0, -amp)], noise)
    i_v2 = _mi_bpsk(tr, 2.0 * alpha * alpha / noise.sigma2)
    i_v1 = max(i_joint - i_v2, 0.0)
    return i_v1, i_v2, i_v1 + i_v2


def _superposition(tr: Tracer, e1: float, e2: float, modulation: str) -> tuple[float, float]:
    mi = {"bpsk": _mi_bpsk, "qpsk": _mi_qpsk}[modulation]
    index = tr.open("rates.check_superposition_inequality")
    lhs = mi(tr, e1 + e2)  # sigma2 = 1
    rhs = mi(tr, e1) + mi(tr, e2)
    tr.close(index)
    return lhs, rhs


def _monte_carlo(tr: Tracer, fn, *args, samples: int):
    return tr.call("awgn_info.mi_monte_carlo", fn, *args, meta={"samples": samples})


def _claim_interval(tr: Tracer):
    return tr.call(
        "rates.find_claim_interval", rates.find_claim_interval, _VERIFY_GAP_THRESHOLD, order=_ORDER
    )


# --- linksim, ocb and codec: one frame at a time, as run_trials does --------


def _decode(tr: Tracer, code, llr, truth, stage: int):
    meta = {"stage": stage}
    out = tr.call("codec.decode", codec.decode, code, llr, meta=meta)
    meta["ok"] = bool(np.array_equal(out, truth))
    return out


def _run_trials(tr: Tracer, cfg: linksim.LinkConfig) -> linksim.SimStats:
    if cfg.shards != 1:
        raise ValueError("the replay covers one shard")
    run = tr.open("linksim.run_trials", {"frames": cfg.trials})
    cons = ocb.Constellation(cfg.alpha)
    noise = awgn_info.NoiseModel(cfg.sigma2)
    stats = linksim.SimStats(
        trials=cfg.trials, k1=cfg.code1.K, k2=cfg.code2.K, block_len=cfg.code1.M
    )
    for t in range(cfg.trials):
        index = tr.open("linksim.rng")
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t]))
        c1 = rng.integers(0, 2, size=cfg.code1.K, dtype=np.uint8)
        c2 = rng.integers(0, 2, size=cfg.code2.K, dtype=np.uint8)
        tr.close(index)
        v1 = tr.call("codec.encode", codec.encode, cfg.code1, c1)
        v2 = tr.call("codec.encode", codec.encode, cfg.code2, c2)
        sym = tr.call("ocb.map_bits", ocb.map_bits, v1, v2, cons)
        index = tr.open("linksim.noise")
        sigma = np.sqrt(cfg.sigma2)
        y = sym + rng.normal(0.0, sigma, v1.size) + 1j * rng.normal(0.0, sigma, v1.size)
        tr.close(index)

        llr1 = tr.call("ocb.demap_stage1", ocb.demap_stage1, y, cons, noise)
        c1_hat = _decode(tr, cfg.code1, llr1, c1, stage=1)
        if cfg.stage2_input == "reconstructed":
            v1_used = tr.call("ocb.reconstruct_v1", ocb.reconstruct_v1, c1_hat, cfg.code1)
        elif cfg.stage2_input == "raw_hard":
            v1_used = (llr1 < 0.0).astype(np.uint8)
        else:
            v1_used = v1
        llr2 = tr.call("ocb.demap_stage2", ocb.demap_stage2, y, v1_used, cons, noise)
        c2_hat = _decode(tr, cfg.code2, llr2, c2, stage=2)

        be1 = int(np.count_nonzero(c1_hat != c1))
        be2 = int(np.count_nonzero(c2_hat != c2))
        wrong_axis = v1_used != v1
        v2_hard = (llr2 < 0.0).astype(np.uint8)
        stats.bit_errors1 += be1
        stats.bit_errors2 += be2
        stats.frame_errors1 += int(be1 > 0)
        stats.frame_errors2 += int(be2 > 0)
        stats.cond_events += int(np.count_nonzero(wrong_axis))
        stats.cond_errors += int(np.count_nonzero((v2_hard != v2) & wrong_axis))
    tr.close(run)
    return stats


# --- the commands -----------------------------------------------------------


def _curves(tr: Tracer, args, out: Path) -> int:
    spec = rates.SweepSpec()
    index = tr.open("rates.sweep", {"points": spec.points})
    rows = []
    for g in rates.gamma_grid(spec):
        i_b = _mi_bpsk(tr, g)
        i_q = _mi_qpsk(tr, g)
        c_g = awgn_info.gaussian_capacity(g, "complex")
        i_v1, i_v2, total = _rate_ocb_exact(tr, g)
        rows.append(rates.RateRow(
            gamma=float(g), i_bpsk=i_b, i_qpsk=i_q, c_gauss_complex=c_g,
            r_c1_claimed=0.5 * i_q, r_c2=i_b, r_j_claimed=0.5 * i_q + i_b,
            i_v1_exact=i_v1, i_v2_exact=i_v2, sum_exact=total,
        ))
    tr.close(index)

    lines = [",".join(rates.CSV_COLUMNS)]
    lines.extend(_csv_line(r.as_csv_values()) for r in rows)
    _write(out / "curves.csv", "\n".join(lines) + "\n")
    if args.svg:
        g = np.array([r.gamma for r in rows])
        chart = LineChart(
            title="Reliable-rate curves over the AWGN channel",
            x_label="symbol SNR (linear scale, log axis)",
            y_label="bits per symbol",
            log_x=spec.spacing == "log",
        )
        chart.add_series("Gaussian input", g, np.array([r.c_gauss_complex for r in rows]))
        chart.add_series("QPSK", g, np.array([r.i_qpsk for r in rows]))
        chart.add_series("BPSK", g, np.array([r.i_bpsk for r in rows]))
        chart.add_series(
            "layered total (claimed)", g, np.array([r.r_j_claimed for r in rows]), dash="6,3"
        )
        chart.add_series(
            "layered total (exact)", g, np.array([r.sum_exact for r in rows]), dash="2,2"
        )
        _write(out / "curves.svg", chart.render())
    return 0


class _Report:
    def __init__(self):
        self.lines = []
        self.failures = 0

    def check(self, name, margin, tol, detail=""):
        ok = margin <= tol
        self.failures += not ok
        tail = f"  ({detail})" if detail else ""
        self.lines.append(
            f"[{'PASS' if ok else 'FAIL'}] {name}: margin {_fmt(float(margin))}"
            f" <= tol {_fmt(float(tol))}{tail}"
        )


def _verify(tr: Tracer, args, out: Path) -> int:
    rep = _Report()
    seed = args.seed
    grid = np.geomspace(0.01, 100.0, _VERIFY_GRID_POINTS)
    dec = max(abs(_mi_qpsk(tr, g) - 2.0 * _mi_bpsk(tr, g / 2.0)) for g in grid)
    rep.check("qpsk_decomposition", dec, 1e-6, f"{_VERIFY_GRID_POINTS} grid points")
    chain = 0.0
    for g in grid:
        total = _rate_ocb_exact(tr, g)[2]
        chain = max(chain, abs(total - _mi_qpsk(tr, g)))
    rep.check("chain_rule", chain, 1e-6, f"{_VERIFY_GRID_POINTS} grid points")

    mc_tol = args.mc_tol or 0.0

    def mc_allowed(stderr: float) -> float:
        return mc_tol if mc_tol > 0.0 else 3.0 * stderr

    noise = awgn_info.NoiseModel(1.0)
    samples = _VERIFY_MC_SAMPLES
    worst, worst_allowed = 0.0, np.inf
    for idx, g in enumerate(_VERIFY_SNRS):
        amp = np.sqrt(g / 2.0)
        qpsk_pts = np.array([[amp, amp], [-amp, amp], [amp, -amp], [-amp, -amp]])
        cases = [
            (awgn_info.PointSet1D.uniform([np.sqrt(g), -np.sqrt(g)]), _mi_bpsk(tr, g)),
            (awgn_info.PointSet2D.uniform(qpsk_pts), _mi_qpsk(tr, g)),
        ]
        for kind, (alphabet, exact) in enumerate(cases):
            mc = _monte_carlo(
                tr, awgn_info.mi_monte_carlo, alphabet, noise, samples, seed + 97 * idx + kind,
                samples=samples,
            )
            diff = abs(mc.bits - exact)
            if diff - mc_allowed(mc.stderr) > worst - worst_allowed:
                worst, worst_allowed = diff, mc_allowed(mc.stderr)
        a = np.sqrt(2.0 * g / 2.0)
        axis_pts = np.array([[a, 0.0], [0.0, a], [-a, 0.0], [0.0, -a]])
        grouped = _monte_carlo(
            tr, awgn_info.mi_monte_carlo_grouped, awgn_info.PointSet2D.uniform(axis_pts),
            np.array([0, 1, 0, 1]), noise, samples, seed + 97 * idx + 2, samples=samples,
        )
        diff = abs(grouped.bits - _rate_ocb_exact(tr, g)[0])
        if diff - mc_allowed(grouped.stderr) > worst - worst_allowed:
            worst, worst_allowed = diff, mc_allowed(grouped.stderr)
    rep.check(
        "backend_agreement", worst, worst_allowed,
        f"bpsk/qpsk/axis-grouping at {len(_VERIFY_SNRS)} SNRs, {samples} samples",
    )

    energies = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    worst = -np.inf
    for mod in ("bpsk", "qpsk"):
        for e1 in energies:
            for e2 in energies:
                lhs, rhs = _superposition(tr, e1, e2, mod)
                worst = max(worst, lhs - rhs)
    rep.check("subadditivity_strict", worst, -1e-12, "5x5 energy grid, bpsk and qpsk")
    eq = 0.0
    for mod in ("bpsk", "qpsk"):
        for e1 in energies:
            lhs, rhs = _superposition(tr, e1, 0.0, mod)
            eq = max(eq, abs(lhs - rhs))
    rep.check("subadditivity_equality_at_zero", eq, 1e-9, "E2 = 0 edge")

    cons = ocb.Constellation(alpha=_ALPHA)
    worst = abs(np.abs(cons.points) ** 2 - cons.symbol_energy).max()
    a = cons.amplitude
    expect = {(0, 0): a, (0, 1): -a, (1, 0): 1j * a, (1, 1): -1j * a}
    for (v1, v2), want in expect.items():
        worst = max(worst, abs(tr.call("ocb.map_bits", ocb.map_bits, v1, v2, cons) - want))
    worst = max(worst, abs(abs(cons.points[0] - cons.points[2]) - 2.0 * cons.amplitude))
    rep.check("constellation_geometry", worst, 1e-12, "energies, map table, diameters")

    sigma2 = 0.5
    code = codec.identity_code(64)
    cfg = linksim.LinkConfig(
        code1=code, code2=code, alpha=_ALPHA, sigma2=sigma2, trials=_VERIFY_TRIALS,
        seed=seed + 1, stage2_input="genie",
    )
    stats = _run_trials(tr, cfg)
    p = linksim.q_function(np.sqrt(2.0) * _ALPHA / np.sqrt(sigma2))
    n = stats.trials * code.M
    se = np.sqrt(p * (1.0 - p) / n)
    rep.check(
        "genie_link_q_function", abs(stats.ber2 - p), mc_allowed(se),
        f"ber2 {_fmt(stats.ber2)} vs Q {_fmt(float(p))}, {n} bits",
    )

    interval = _claim_interval(tr)
    rep.check(
        "claim_interval_nonempty", -(interval.gamma_hi - interval.gamma_lo), 0.0,
        f"threshold {_VERIFY_GAP_THRESHOLD:g} bits",
    )
    rep.lines += ["", "claimed vs exact layered rate (bits/symbol):",
                  "gamma      r_j_claimed  sum_exact    gap"]
    for g in (0.1, 0.5, 1.0, 2.0, 4.0, 10.0, 40.0):
        claimed = 0.5 * _mi_qpsk(tr, g) + _mi_bpsk(tr, g)
        exact = _rate_ocb_exact(tr, g)[2]
        rep.lines.append(f"{g:<9g}  {claimed:<11.6f}  {exact:<11.6f}  {claimed - exact:.6f}")
    interval = _claim_interval(tr)
    rep.lines.append(
        f"claimed rate exceeds the QPSK rate by > {interval.threshold:g} bits for "
        f"gamma in [{interval.gamma_lo:.4g}, {interval.gamma_hi:.4g}]; "
        f"peak gap {interval.peak_gap:.6f} bits at gamma = {interval.gamma_peak:.4g}"
    )
    rep.lines.append("")
    rep.lines.append(
        "all checks passed" if rep.failures == 0 else f"{rep.failures} check(s) FAILED"
    )
    _write(out / "verify.txt", "\n".join(rep.lines) + "\n")
    return 0 if rep.failures == 0 else 1


def _simulate(tr: Tracer, args, out: Path) -> int:
    code1 = tr.call("codec.builtin_code", codec.builtin_code, args.code1)
    code2 = tr.call("codec.builtin_code", codec.builtin_code, args.code2)
    lines = [",".join(_SIM_COLUMNS)]
    for row_index, sigma2 in enumerate(args.sigma2):
        cfg = linksim.LinkConfig(
            code1=code1, code2=code2, alpha=_ALPHA, sigma2=sigma2, trials=args.trials,
            seed=args.seed + row_index,
        )
        stats = _run_trials(tr, cfg)
        gamma = np.inf if sigma2 == 0.0 else 2.0 * _ALPHA ** 2 / sigma2
        cond = stats.cond_ber2_given_v1_err
        lines.append(_csv_line((
            gamma, _ALPHA, sigma2, args.code1, args.code2, code1.K, code2.K, code1.M,
            stats.trials, cfg.stage2_input, stats.ber1, stats.ci95("ber1"), stats.ber2,
            stats.ci95("ber2"), stats.fer1, stats.fer2, stats.cond_events,
            float("nan") if cond is None else cond,
        )))
    _write(out / "sim.csv", "\n".join(lines) + "\n")
    return 0


_REPLAYS = {"curves": _curves, "verify": _verify, "simulate": _simulate}


def replay(argv: list[str], task: int) -> tuple[int, list]:
    """Replay one command line; returns (exit code, spans)."""
    args = build_parser().parse_args(argv)
    allowed = _COMMON | _REPLAYED_OPTIONS[args.command]
    extra = sorted(k for k, v in vars(args).items() if v is not None and k not in allowed)
    if extra or args.threads != 1:
        raise ValueError(f"replay of {args.command} does not cover options {extra}")
    tr = Tracer(task)
    root = tr.open(f"cli.{args.command}")
    code = _REPLAYS[args.command](tr, args, Path(args.out))
    tr.close(root)
    return code, tr.spans
