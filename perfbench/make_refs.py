"""Regenerate the references the output checks compare against.

    python3 perfbench/make_refs.py

Writes ``refs/curves.csv`` (``ocbsim curves`` at its defaults) and
``refs/sim.json``: for every code and noise level the link workloads run,
the mean error rates of a long run and their per-frame standard deviation,
taken from the spread between independent batches (frames of a coded block
err together, so a binomial error over bits would be too narrow). Takes a
few minutes on one core. Rerun it only when an output contract changes on
purpose, and say so where that change is recorded.
"""

import json
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ocbsim import cli, codec, linksim  # noqa: E402

# (code, sigma2, frames per batch); 20 batches each.
SIM_POINTS = (
    ("hamming74", 0.5, 5000),
    ("hamming74", 1.0, 5000),
    ("ldpc1024", 0.15, 200),
    ("ldpc1024", 0.35, 40),
)
BATCHES = 20
SEED_BASE = 10_000_000  # far from the seeds the benchmark draws


def sim_reference(name: str, sigma2: float, frames: int) -> dict:
    code = codec.builtin_code(name)
    per_batch = {k: [] for k in ("ber1", "ber2", "fer1", "fer2")}
    for b in range(BATCHES):
        cfg = linksim.LinkConfig(
            code1=code, code2=code, alpha=1.0 / math.sqrt(2.0), sigma2=sigma2,
            trials=frames, seed=SEED_BASE + b,
        )
        stats = linksim.run_trials(cfg)
        for k, vals in per_batch.items():
            vals.append(getattr(stats, k))
    return {
        # ML decoding of the small codes is exact, so the band is two-sided;
        # belief propagation is only held to "no worse".
        "sided": "upper" if code.kind == "ldpc" else "two",
        "rates": {
            k: {
                "mean": statistics.fmean(v),
                "sd_frame": statistics.stdev(v) * frames ** 0.5,
                "frames": frames * BATCHES,
            }
            for k, v in per_batch.items()
        },
    }


def main() -> None:
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        if cli.main(["curves", "--out", tmp]) != 0:
            raise SystemExit("ocbsim curves failed")
        shutil.copyfile(Path(tmp) / "curves.csv", refs / "curves.csv")
    sims = {}
    for name, sigma2, frames in SIM_POINTS:
        sims[f"{name}/{name}@{sigma2:g}"] = sim_reference(name, sigma2, frames)
        print(name, sigma2, sims[f"{name}/{name}@{sigma2:g}"], flush=True)
    (refs / "sim.json").write_text(json.dumps(sims, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
