"""Run one ocbsim command in this fresh interpreter and report what it cost.

    python3 child.py RESULT_JSON TRACE_TASK -- <ocbsim arguments>

With TRACE_TASK ``-`` the command runs through ``ocbsim.cli.main``. With a
task number, the command is replayed through the layers with spans (see ``replay.py``)
and the spans go into the result file. The result file records the
monotonic clock when the program was imported and ready, the start and end
of the command, its exit code, the process's peak RSS, the versions the
program ran with and the times of a reference loop run just before and just
after the command in the same process. Times come from ``time.monotonic``,
which on Linux reads the system-wide CLOCK_MONOTONIC, so the parent can
subtract its own readings from them.
"""

import time
import json
import resource
import sys
import traceback

import numpy
import ocbsim
import ocbsim.cli

REFERENCE_RUNS = 2  # before the command, and again after it


def reference_s() -> float:
    """Time one pass of a fixed loop that does not touch the program.

    The host's speed swings by tens of percent within seconds, and the swing
    follows the process: this loop, timed in the same process around the
    command, tracks it far better than any timing in the parent does. The
    loop mixes interpreted Python, small numpy calls and vector numpy, as
    the commands do. Its arrays stay under 128 KiB, so it leaves malloc's
    mmap threshold where the command would find it.
    """
    t0 = time.perf_counter()
    counts = {}
    sink = 0
    for i in range(40_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        sink += len(str(i))
    small = numpy.arange(16.0)
    for _ in range(1_500):
        sink += int(numpy.exp(-small * small).sum() > 0.0)
    vector = numpy.linspace(0.0, 1.0, 8_192)
    for _ in range(400):
        sink += int(numpy.exp(-vector * vector).sum() > 0.0)
    return time.perf_counter() - t0


def main() -> int:
    result_path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    trace_task = None if sys.argv[2] == "-" else int(sys.argv[2])
    if trace_task is not None:
        from replay import replay
    ready = time.monotonic()
    refs = [reference_s() for _ in range(REFERENCE_RUNS)]

    spans = None
    error = None
    start = time.monotonic()
    try:
        if trace_task is None:
            code = ocbsim.cli.main(argv)
        else:
            code, spans = replay(argv, trace_task)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a command that raised is reported, not fatal here
        code, error = None, traceback.format_exc()
    end = time.monotonic()
    refs += [reference_s() for _ in range(REFERENCE_RUNS)]

    import scipy

    result = {
        "ready": ready,
        "start": start,
        "end": end,
        "code": code,
        "error": error,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ocbsim_file": ocbsim.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spans": spans,
        "reference_s": refs,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0 if error is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
