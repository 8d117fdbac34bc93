"""Command-line front end: rate-curve sweeps, link simulations, and the
self-verification suite, with CSV/SVG emission and run manifests.

Subcommands
-----------
curves    sweep the rate curves over an SNR grid -> curves.csv (+ curves.svg)
simulate  run the two-stage coded link -> sim.csv
verify    run the numeric cross-checks -> report (+ verify.txt)

Every command accepts ``--seed`` (at least 0), ``--out``, ``--threads`` (at
least 1) and an optional ``--config`` file of ``key = value`` lines;
``curves`` and ``verify`` also take ``--quad-order``. Each config line is
parsed as the flag of the same name, and command-line flags override
config-file values.
``--threads`` is the link's worker-process count (``simulate`` and
``verify``'s genie link); ``curves`` accepts it and ignores it.
Outputs are UTF-8 text, byte-identical across reruns and across
``--threads`` settings. Each command computes all of its text first, then
writes its data files and a plain-text manifest (``curves.manifest.txt``,
``sim.manifest.txt``, ``verify.manifest.txt``) recording the command,
parameters, seed, version, wall-clock and the SHA-256 of each file's bytes as
written. A refused run (exit 2) writes nothing. Floats are written with
12 significant digits in CSV and 2 decimals in SVG coordinates, so no
platform-dependent float repr reaches an artifact, and no output depends
on the BLAS thread count.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, awgn_info, codec, linksim, ocb, rates
from .svgfig import LineChart

# the link's per-axis amplitude for simulate's default and verify's checks: unit symbol energy
_ALPHA = 1.0 / np.sqrt(2.0)


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


class _IOFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing


def _config_flags(path: str, keys) -> list:
    """The ``key = value`` lines of a config file as ``--key=value`` flags."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise _IOFailure(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    flags = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
        flags.append(f"--{key.replace('_', '-')}={val.strip()}")
    return flags


def _options(args: argparse.Namespace, defaults: dict) -> dict:
    """The command's options: parsed values, defaults where a flag was not given."""
    return {key: default if getattr(args, key) is None else getattr(args, key)
            for key, default in defaults.items()}


def _bool_opt(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {raw!r}")


def _int_in(lo: int, hi: float = float("inf")):
    """An argparse type taking integers in [lo, hi]."""
    def parse(raw: str) -> int:
        value = int(raw)
        if not lo <= value <= hi:
            bound = f"at least {lo}" if hi == float("inf") else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


_positive_int = _int_in(1)


def _float_in(lo: float, open_lo: bool = False):
    """An argparse type taking finite floats at least lo, or above lo with ``open_lo``.

    -0.0 comes back as 0.0, so the manifest records the value the run uses.
    """
    def parse(raw: str) -> float:
        value = float(raw)
        if not ((lo < value if open_lo else lo <= value) and value < float("inf")):
            bound = f"in ({lo:g}, inf)" if open_lo else f"in [{lo:g}, inf)"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value + 0.0
    parse.__name__ = "float"  # argparse names the type in its "invalid float value" error
    return parse


def _float_list(raw: str) -> tuple:
    try:
        vals = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        vals = ()
    if not vals:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers, got {raw!r}")
    return vals


# ---------------------------------------------------------------------------
# output plumbing


def _csv_text(header, rows) -> str:
    return "".join(",".join(map(_fmt, row)) + "\n" for row in (header, *rows))


def _write_outputs(out: str, command: str, params: dict, files: dict) -> Path:
    """Write ``files`` (name -> text) into ``out``, then ``<command>.manifest.txt``.

    Each text is encoded once, as UTF-8 with surrogateescape so that a path
    given on the command line is written back byte for byte, and each
    digest is of those bytes. Returns the first file's path.
    """
    blobs = {name: text.encode("utf-8", "surrogateescape") for name, text in files.items()}
    lines = [
        f"command = {command}",
        f"version = {__version__}",
        f"wall_clock = {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}",
        *(f"{key} = {_fmt(params[key])}" for key in sorted(params)),
        *(f"output {name} sha256 = {hashlib.sha256(data).hexdigest()}" for name, data in blobs.items()),
    ]
    blobs[f"{command}.manifest.txt"] = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
    out_dir = Path(out)
    for name, data in blobs.items():
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / name).write_bytes(data)
        except OSError as exc:
            raise _IOFailure(f"cannot write {out_dir / name}: {exc}") from exc
    return out_dir / next(iter(files))


def _resolve_code(token: str) -> codec.LinearCode:
    if token.startswith("@"):
        try:
            return codec.from_generator_file(token[1:])
        except OSError as exc:
            raise _IOFailure(f"cannot read generator file {token[1:]}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{token[1:]}: not UTF-8 text: {exc}") from exc
    return codec.builtin_code(token)


# ---------------------------------------------------------------------------
# curves


_CURVES_DEFAULTS = {f.name: f.default for f in dataclasses.fields(rates.SweepSpec)}
_CURVES_DEFAULTS["svg"] = False


def cmd_curves(args: argparse.Namespace) -> int:
    opt = _options(args, _CURVES_DEFAULTS)
    spec = rates.SweepSpec(**{k: v for k, v in opt.items() if k != "svg"})
    rows = rates.sweep(spec)
    files = {"curves.csv": _csv_text(rates.CSV_COLUMNS, (r.as_csv_values() for r in rows))}
    if opt["svg"]:
        g = np.array([r.gamma for r in rows])
        chart = LineChart(
            title="Reliable-rate curves over the AWGN channel",
            x_label=f"symbol SNR (linear scale, {spec.spacing} axis)",
            y_label="bits per symbol",
            log_x=spec.spacing == "log",
        )
        for label, column, dash in (
            ("Gaussian input", "c_gauss_complex", None),
            ("QPSK", "i_qpsk", None),
            ("BPSK", "i_bpsk", None),
            ("layered total (claimed)", "r_j_claimed", "6,3"),
            ("layered total (exact)", "sum_exact", "2,2"),
        ):
            chart.add_series(label, g, np.array([getattr(r, column) for r in rows]), dash=dash)
        files["curves.svg"] = chart.render()
    csv_path = _write_outputs(args.out, "curves", {**opt, "seed": args.seed}, files)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# simulate


_SIM_DEFAULTS = {
    "alpha": _ALPHA,
    "sigma2": (0.5,),
    "code1": "hamming74",
    "code2": "hamming74",
    "trials": 1000,
    "stage2_input": linksim.LinkConfig.stage2_input,  # the field's default
}


def cmd_simulate(args: argparse.Namespace) -> int:
    opt = _options(args, _SIM_DEFAULTS)
    code1 = _resolve_code(opt["code1"])
    code2 = code1 if opt["code2"] == opt["code1"] else _resolve_code(opt["code2"])

    cfgs = [linksim.LinkConfig(code1=code1, code2=code2, alpha=opt["alpha"], sigma2=sigma2,
                               trials=opt["trials"], seed=args.seed + row_index,
                               stage2_input=opt["stage2_input"])
            for row_index, sigma2 in enumerate(opt["sigma2"])]  # all checked before any runs
    rows = []
    for cfg in cfgs:
        stats = linksim.run_trials(cfg, threads=args.threads)
        rows.append({
            "gamma": cfg.gamma,
            "alpha": opt["alpha"],
            "sigma2": cfg.sigma2,
            "code1": opt["code1"],
            "code2": opt["code2"],
            "k1": code1.K,
            "k2": code2.K,
            "block_len": code1.M,
            "trials": stats.trials,
            "stage2_input": opt["stage2_input"],
            "ber1": stats.ber1,
            "ci95_ber1": stats.ci95("ber1"),
            "ber2": stats.ber2,
            "ci95_ber2": stats.ci95("ber2"),
            "fer1": stats.fer1,
            "fer2": stats.fer2,
            "cond_events": stats.cond_events,
            "cond_ber2_given_v1_err": stats.cond_ber2_given_v1_err,
        })

    params = {**opt, "sigma2": ",".join(_fmt(cfg.sigma2) for cfg in cfgs), "seed": args.seed}
    csv_path = _write_outputs(args.out, "sim", params,
                              {"sim.csv": _csv_text(rows[0], (row.values() for row in rows))})
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# verify


_VERIFY_DEFAULTS = {
    "quad_order": awgn_info.DEFAULT_QUAD_ORDER,
    "grid_points": 60,
    "mc_samples": 200_000,
    "mc_tol": 0.0,  # 0 means: use 3 Monte Carlo standard errors
    "trials": 400,
    "gap_threshold": 0.01,
}

_VERIFY_SNRS = (0.25, 1.0, 2.0, 4.0, 10.0)


class _Report:
    def __init__(self):
        self.lines = []
        self.failures = 0

    def check(self, name: str, margin: float, tol: float, detail: str = "") -> None:
        ok = margin <= tol
        if not ok:
            self.failures += 1
        tail = f"  ({detail})" if detail else ""
        self.lines.append(
            f"[{'PASS' if ok else 'FAIL'}] {name}: margin {_fmt(float(margin))}"
            f" <= tol {_fmt(float(tol))}{tail}"
        )

    def note(self, text: str) -> None:
        self.lines.append(text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _mc_allowed(opt: dict, stderr: float) -> float:
    """--mc-tol when set, else 3 Monte Carlo standard errors."""
    return opt["mc_tol"] if opt["mc_tol"] > 0.0 else 3.0 * stderr


def _verify_identities(rep: _Report, opt: dict) -> None:
    order = opt["quad_order"]
    rows = [rates.rate_row(g, order) for g in np.geomspace(0.01, 100.0, opt["grid_points"])]
    # the oracle: the axis-aligned 2D QPSK quadrature, which no rate row calls
    oracle = [awgn_info.mi_qpsk(r.gamma, order) for r in rows]
    # the rows' 1D QPSK column, 2 mi_bpsk(gamma / 2), against it
    dec = max(abs(q - r.i_qpsk) for r, q in zip(rows, oracle))
    rep.check("qpsk_decomposition", dec, 1e-6, f"{opt['grid_points']} grid points")
    # the rotated four-point set against it
    chain = max(abs(r.sum_exact - q) for r, q in zip(rows, oracle))
    rep.check("chain_rule", chain, 1e-6, f"{opt['grid_points']} grid points")


def _verify_backends(rep: _Report, opt: dict, seed: int) -> None:
    order, samples = opt["quad_order"], opt["mc_samples"]
    noise = awgn_info.NoiseModel(1.0)
    worst = 0.0
    worst_allowed = np.inf
    for idx, g in enumerate(_VERIFY_SNRS):
        r, c = np.sqrt(g), np.sqrt(g / 2.0)
        row = rates.rate_row(g, order)
        # (points, groups, exact rate): BPSK, QPSK, and the 2-vs-2 axis
        # grouping of the four-point set at E_s = g, whose rate is I(V1;Y)
        cases = (
            ([r, -r], [0, 1], row.i_bpsk),
            ([[c, c], [-c, c], [c, -c], [-c, -c]], [0, 1, 2, 3], row.i_qpsk),
            ([[r, 0.0], [0.0, r], [-r, 0.0], [0.0, -r]], [0, 1, 0, 1], row.i_v1_exact),
        )
        for kind, (points, groups, exact) in enumerate(cases):
            alphabet = awgn_info.PointSet.uniform(np.array(points))
            mc = awgn_info.mi_monte_carlo_grouped(
                alphabet, np.array(groups), noise, samples, seed + 97 * idx + kind
            )
            allowed = _mc_allowed(opt, mc.stderr)
            diff = abs(mc.bits - exact)
            if diff - allowed > worst - worst_allowed:
                worst, worst_allowed = diff, allowed
    rep.check(
        "backend_agreement",
        worst,
        worst_allowed,
        f"bpsk/qpsk/axis-grouping at {len(_VERIFY_SNRS)} SNRs, {samples} samples",
    )


def _verify_subadditivity(rep: _Report, opt: dict) -> None:
    order = opt["quad_order"]
    energies = (0.25, 0.5, 1.0, 2.0, 4.0)
    sums = {0.0, *energies, *(e1 + e2 for e1 in energies for e2 in energies)}
    worst = -np.inf  # strictness margin: want rhs - lhs > 0 everywhere
    eq = 0.0
    for mi in (awgn_info.mi_bpsk, awgn_info.mi_qpsk):
        rate = {e: mi(e, order) for e in sorted(sums)}  # each of the 17 energies once, at sigma2 = 1
        for e1 in energies:
            for e2 in energies:
                worst = max(worst, rate[e1 + e2] - (rate[e1] + rate[e2]))
            eq = max(eq, abs(rate[e1] - (rate[e1] + rate[0.0])))
    rep.check("subadditivity_strict", worst, -1e-12, "5x5 energy grid, bpsk and qpsk")
    rep.check("subadditivity_equality_at_zero", eq, 1e-9, "E2 = 0 edge")


def _verify_geometry(rep: _Report) -> None:
    cons = ocb.Constellation(alpha=_ALPHA)
    worst = abs(np.abs(cons.points) ** 2 - cons.symbol_energy).max()
    # Table mapping: (0,0)->(a,0), (0,1)->(-a,0), (1,0)->(0,a), (1,1)->(0,-a)
    a = cons.amplitude
    expect = {(0, 0): a, (0, 1): -a, (1, 0): 1j * a, (1, 1): -1j * a}
    for (v1, v2), want in expect.items():
        worst = max(worst, abs(ocb.map_bits(v1, v2, cons) - want))
    worst = max(worst, abs(abs(cons.points[0] - cons.points[2]) - 2.0 * cons.amplitude))
    rep.check("constellation_geometry", worst, 1e-12, "energies, map table, diameters")


def _verify_genie_link(rep: _Report, opt: dict, seed: int, threads: int) -> None:
    alpha, sigma2 = _ALPHA, 0.5
    code = codec.identity_code(64)
    cfg = linksim.LinkConfig(
        code1=code,
        code2=code,
        alpha=alpha,
        sigma2=sigma2,
        trials=opt["trials"],
        seed=seed + 1,
        stage2_input="genie",
    )
    stats = linksim.run_trials(cfg, threads=threads)
    p = linksim.q_function(np.sqrt(2.0) * alpha / np.sqrt(sigma2))
    n = stats.trials * code.M
    se = np.sqrt(p * (1.0 - p) / n)
    rep.check(
        "genie_link_q_function",
        abs(stats.ber2 - p),
        _mc_allowed(opt, se),
        f"ber2 {_fmt(stats.ber2)} vs Q {_fmt(float(p))}, {n} bits",
    )


def _gap_table(rep: _Report, opt: dict, interval: rates.ClaimInterval) -> None:
    rep.note("")
    rep.note("claimed vs exact layered rate (bits/symbol):")
    rep.note("gamma      r_j_claimed  sum_exact    gap")
    for g in (0.1, 0.5, 1.0, 2.0, 4.0, 10.0, 40.0):
        row = rates.rate_row(g, opt["quad_order"])
        rep.note(
            f"{g:<9g}  {row.r_j_claimed:<11.6f}  {row.sum_exact:<11.6f}"
            f"  {row.r_j_claimed - row.sum_exact:.6f}"
        )
    rep.note(
        f"claimed rate exceeds the QPSK rate by > {interval.threshold:g} bits for "
        f"gamma in [{interval.gamma_lo:.4g}, {interval.gamma_hi:.4g}]; "
        f"peak gap {interval.peak_gap:.6f} bits at gamma = {interval.gamma_peak:.4g}"
    )
    rep.note("")


def cmd_verify(args: argparse.Namespace) -> int:
    opt = _options(args, _VERIFY_DEFAULTS)
    # the search first: a threshold it cannot place is refused before the costly checks run
    interval = rates.find_claim_interval(opt["gap_threshold"], order=opt["quad_order"])
    rep = _Report()
    _verify_identities(rep, opt)
    _verify_backends(rep, opt, args.seed)
    _verify_subadditivity(rep, opt)
    _verify_geometry(rep)
    _verify_genie_link(rep, opt, args.seed, args.threads)
    rep.check(
        "claim_interval_nonempty",
        -(interval.gamma_hi - interval.gamma_lo),
        0.0,
        f"threshold {opt['gap_threshold']:g} bits",
    )
    _gap_table(rep, opt, interval)
    verdict = "all checks passed" if rep.failures == 0 else f"{rep.failures} check(s) FAILED"
    rep.note(verdict)

    text = rep.text()
    sys.stdout.write(text)
    _write_outputs(args.out, "verify", {**opt, "seed": args.seed}, {"verify.txt": text})
    return 0 if rep.failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_int_in(0), default=0, help="base RNG seed (at least 0)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="link worker processes (results do not depend on this)")
    parser.add_argument("--config", default=None,
                        help="key = value config file; flags override it")


def _add_quad_order(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quad-order", dest="quad_order",
                        type=_int_in(awgn_info.MIN_QUAD_ORDER, awgn_info.MAX_QUAD_ORDER),
                        default=None, help="Gauss-Hermite quadrature order (default 128)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocbsim",
        description="Layered BPSK-on-QPSK link simulator and AWGN rate toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curves", help="sweep rate curves over an SNR grid")
    _add_common(p)
    _add_quad_order(p)
    p.add_argument("--gamma-min", dest="gamma_min", type=float, default=None)
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=None)
    p.add_argument("--points", type=_positive_int, default=None)
    p.add_argument("--spacing", choices=("log", "linear"), default=None)
    p.add_argument("--svg", nargs="?", const=True, type=_bool_opt, default=None,
                   help="also write curves.svg")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("simulate", help="run the two-stage coded link")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=None, help="per-axis amplitude scale")
    p.add_argument("--sigma2", type=_float_list, default=None,
                   help="comma-separated noise variances (per real dimension)")
    p.add_argument("--code1", default=None,
                   help="axis-stream code: builtin name or @generator-file")
    p.add_argument("--code2", default=None,
                   help="sign-stream code: builtin name or @generator-file")
    p.add_argument("--trials", type=_positive_int, default=None, help="frames per SNR point")
    p.add_argument("--stage2-input", dest="stage2_input",
                   choices=linksim.STAGE2_MODES, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run numeric cross-checks and the gap table")
    _add_common(p)
    _add_quad_order(p)
    p.add_argument("--grid-points", dest="grid_points", type=_positive_int, default=None)
    p.add_argument("--mc-samples", dest="mc_samples", type=_int_in(awgn_info.MIN_MC_SAMPLES),
                   default=None)
    p.add_argument("--mc-tol", dest="mc_tol", type=_float_in(0.0), default=None,
                   help="absolute tolerance for Monte Carlo checks "
                        "(default, or 0: 3 standard errors)")
    p.add_argument("--trials", type=_positive_int, default=None, help="genie-link trials")
    p.add_argument("--gap-threshold", dest="gap_threshold", type=_float_in(0.0, open_lo=True),
                   default=None, help="gap in bits the claim interval is measured at (positive)")
    p.set_defaults(func=cmd_verify)
    return parser


_COMMAND_DEFAULTS = {
    "curves": _CURVES_DEFAULTS,
    "simulate": _SIM_DEFAULTS,
    "verify": _VERIFY_DEFAULTS,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config lines go in as flags right after the command name, so
            # they get the flags' types and choices and later flags win
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, _COMMAND_DEFAULTS[args.command])
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        return args.func(args)
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
