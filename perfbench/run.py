"""The ocbsim benchmark: the commands a shell user types, run cold.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a task of one or two ``ocbsim`` commands. Tasks run in a
closed loop, one at a time, until the next task would end after ``--seconds``
(at least one task runs). Every command runs in a fresh interpreter
(``child.py``) with the absolute path of this checkout's ``src`` on its
PYTHONPATH, its own output directory and a seed drawn from the workload seed,
and its outputs are checked against the references in ``refs/``.

Times of commands are reported in units of a reference loop timed in the
same interpreter just around the command (``child.reference_s``), which
cancels most of the host's speed swings; the raw seconds are printed too.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` every command is
also replayed with spans (``replay.py``) and the object carries the
per-layer metrics instead. The lines before it give each metric with its
unit and sample count, the run record and any failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

_LDPC = ["simulate", "--code1", "ldpc1024", "--code2", "ldpc1024"]
# Absolute tolerance for verify's Monte Carlo checks: 5 times the largest of
# their standard errors (0.0026 bits), the band the sim.csv checks use. At
# its default of 3 standard errors per comparison, the worst of the 15 in
# backend_agreement trips on about 4 % of seeds (see README.md).
VERIFY_MC_TOL = "0.013"
# label -> ocbsim arguments, per workload; see README.md for the reasons.
WORKLOADS = {
    "rate_audit": (
        ("curves", ["curves", "--svg"]),
        ("verify", ["verify", "--mc-tol", VERIFY_MC_TOL]),
    ),
    "link_hamming": ((
        "simulate",
        ["simulate", "--code1", "hamming74", "--code2", "hamming74",
         "--sigma2", "0.5,1.0", "--trials", "5000"],
    ),),
    "link_ldpc": (
        ("simulate_converge", _LDPC + ["--sigma2", "0.15", "--trials", "120"]),
        ("simulate_fail", _LDPC + ["--sigma2", "0.35", "--trials", "30"]),
    ),
}
VERIFY_GENIE_FRAMES = 400  # ocbsim verify's default genie-link trials
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever its commands do
MEAN_METRICS = {"ok_ratio"}  # a share of commands, not a median of samples
# Printed beside the end-to-end metrics, but not part of the result.
RAW_UNITS = {"wall_s": "s", "frames_per_s": "1/s", "reference_s": "s"}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def frames_of(argv: list[str]) -> int:
    """Link frames one command simulates."""
    if argv[0] == "verify":
        return VERIFY_GENIE_FRAMES
    if argv[0] == "simulate":
        sigma2 = argv[argv.index("--sigma2") + 1].split(",")
        return len(sigma2) * int(argv[argv.index("--trials") + 1])
    return 0


def tail_percentile(values) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def run_child(argv: list[str], cmd_dir: Path, stop_at: float,
              trace_task: int | None = None) -> dict:
    """Run one command in a fresh interpreter; returns its result record.

    The command is killed at the monotonic time ``stop_at``.
    """
    out = cmd_dir / "out"
    out.mkdir(parents=True)
    result_path = cmd_dir / "result.json"
    task = "-" if trace_task is None else str(trace_task)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), task, "--", *argv,
           "--out", str(out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(cmd_dir / "stdout.txt", "wb") as so, open(cmd_dir / "stderr.txt", "wb") as se:
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=cmd_dir, stdout=so, stderr=se,
                                  timeout=max(stop_at - spawn, 1.0))
        except subprocess.TimeoutExpired as exc:
            return {"out": out, "problems": [f"killed after {exc.timeout:.0f} s"]}
    if not result_path.exists():
        err = (cmd_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()
        return {"out": out, "problems": [f"child exited {proc.returncode}: {err[-1:]}"]}
    res = json.loads(result_path.read_text())
    if Path(res["ocbsim_file"]).resolve().parent.parent != SRC:
        raise BenchError(f"child imported ocbsim from {res['ocbsim_file']}, not {SRC}")
    res.update(
        out=out,
        setup_s=res["ready"] - spawn,
        wall_s=res["end"] - res["start"],
        reference_s=statistics.fmean(res["reference_s"]),
        rss_mb=res["maxrss_kb"] / 1024.0,
        problems=[f"raised: {res['error'].strip().splitlines()[-1]}"] if res["error"] else [],
    )
    return res


def _same_outputs(replayed: Path, program: Path) -> bool:
    files = sorted(p.name for p in replayed.iterdir())
    return bool(files) and all(
        (program / f).is_file() and (replayed / f).read_bytes() == (program / f).read_bytes()
        for f in files
    )


def run_task(workload: str, task: int, seed: int, trace: bool, task_dir: Path,
             stop_at: float) -> list[dict]:
    records = []
    for label, argv in WORKLOADS[workload]:
        full = argv + ["--seed", str(seed)]
        rec = run_child(full, task_dir / label, stop_at)
        if not rec["problems"]:
            rec["problems"] = checks.check_command(argv[0], rec["out"], rec["code"])
        rec.update(label=label, frames=frames_of(argv))
        if trace and "wall_s" in rec:
            traced = run_child(full, task_dir / f"{label}.traced", stop_at, trace_task=task)
            if traced["problems"] or traced["spans"] is None:
                raise BenchError(f"traced replay of {label} failed: {traced['problems']}")
            rec["spans"] = traced["spans"]
            rec["match"] = traced["code"] == rec["code"] and _same_outputs(
                traced["out"], rec["out"]
            )
        records.append(rec)
    return records


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ocbsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def end_to_end(tasks: list[list[dict]]) -> dict:
    """Metric name -> list of samples (one per task or per command)."""
    ran = [c for t in tasks for c in t if "wall_s" in c]
    walls = [sum(c["wall_s"] for c in t if "wall_s" in c) for t in tasks]
    norms = [sum(c["wall_s"] / c["reference_s"] for c in t if "wall_s" in c) for t in tasks]
    frames = [sum(c["frames"] for c in t) for t in tasks]
    cmds = [c for t in tasks for c in t]
    return {
        "setup_s": [c["setup_s"] for c in ran],
        "wall_ref": norms,
        "frames_per_ref": [f / n for f, n in zip(frames, norms) if n > 0],
        "peak_rss_mb": [max(c["rss_mb"] for c in t if "rss_mb" in c) for t in tasks],
        "ok_ratio": [float(not c["problems"]) for c in cmds],
        "wall_s": walls,
        "frames_per_s": [f / w for f, w in zip(frames, walls) if w > 0],
        "reference_s": [c["reference_s"] for c in ran],
    }


def per_layer(tasks: list[list[dict]]) -> dict:
    per_task = [
        tracing.task_layer_metrics([c for c in t if "spans" in c])
        for t in tasks if any("spans" in c for c in t)
    ]
    return {k: [m[k] for m in per_task] for k in (per_task[0] if per_task else ())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ocbsim" / "cli.py").is_file():
        print(f"error: no ocbsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    load_start = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    seeds = random.Random(f"{args.workload}:{args.seed}")
    tasks, task_seeds, durations = [], [], []
    start = time.monotonic()
    deadline = start + args.seconds
    try:
        while True:
            t0 = time.monotonic()
            task_seeds.append(seeds.randrange(2**31))
            tasks.append(run_task(args.workload, len(tasks), task_seeds[-1], bool(args.trace),
                                  run_dir / f"task{len(tasks)}", start + RUN_LIMIT_S))
            durations.append(time.monotonic() - t0)
            if time.monotonic() + statistics.median(durations) > deadline:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    first = next((c for t in tasks for c in t if "python" in c), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "task_seeds": task_seeds,
    }
    print("record " + json.dumps(record))

    cmds = [c for t in tasks for c in t]
    failed = [c for c in cmds if c["problems"]]
    for i, task in enumerate(tasks):
        for c in task:
            for problem in c["problems"]:
                print(f"FAIL task {i} {c['label']} seed {task_seeds[i]}: {problem}")

    samples = per_layer(tasks) if args.trace else end_to_end(tasks)
    shown = [(m["name"], m["unit"]) for m in wanted]
    if not args.trace:
        shown += list(RAW_UNITS.items())
    metrics = {}
    for name, unit in shown:
        values = samples.get(name, [])
        average = statistics.fmean if name in MEAN_METRICS else statistics.median
        value = average(values) if values else 0.0
        tail = tail_percentile(values)
        tail_text = f", p{tail[0]} {tail[1]!r}" if tail else ""
        print(f"{'raw' if name in RAW_UNITS else 'metric'} {name} = {value!r} {unit} "
              f"({average.__name__} of n={len(values)}{tail_text})")
        if name not in RAW_UNITS:
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(cmds),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
