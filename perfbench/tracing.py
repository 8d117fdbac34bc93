"""In-memory spans and the arithmetic that turns them into layer metrics.

A span is ``[name, start_ns, end_ns, parent, task, meta]``: ``name`` is
``<module>.<function>`` so the layer is the part before the first dot,
``parent`` is the index of the enclosing span (-1 for a command's root),
``task`` identifies the benchmark task, and ``meta`` holds counts measured at
the same boundary (Gaussian terms, samples, frames, decode outcomes).

Standard library only: run.py imports this module without
importing numpy or the program.
"""

from __future__ import annotations

import time

NAME, START, END, PARENT, TASK, META = range(6)


class Tracer:
    """Collects spans of one command in memory; ``spans`` is written at the end."""

    def __init__(self, task: int):
        self.task = task
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, meta: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.task, meta])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    def call(self, name: str, fn, *args, meta: dict | None = None, **kwargs):
        index = self.open(name, meta)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)


def duration_s(span) -> float:
    return (span[END] - span[START]) * 1e-9


def covered_s(spans, index: int) -> float:
    """Seconds of span ``index`` covered by the union of its direct children."""
    lo, hi = spans[index][START], spans[index][END]
    intervals = sorted(
        (max(s[START], lo), min(s[END], hi)) for s in spans if s[PARENT] == index
    )
    covered = 0
    cur_lo = cur_hi = None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered * 1e-9


def self_time_s(spans, index: int) -> float:
    """A span's duration minus the part of its interval its children cover."""
    return duration_s(spans[index]) - covered_s(spans, index)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def task_layer_metrics(commands) -> dict:
    """Per-layer metrics of one task.

    ``commands`` is a list of dicts, one per command of the task in order,
    with ``spans`` (the traced replay), ``wall_s`` (the untraced command)
    and ``match`` (whether the replay wrote the program's output bytes).
    Layers the workload does not reach read 0.
    """
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    meta_sum: dict[str, float] = {}
    decode_ok = decode_all = 0
    other = 0.0
    coverage, overhead = [], []
    for cmd in commands:
        spans = cmd["spans"]
        for i, s in enumerate(spans):
            name = s[NAME]
            if s[PARENT] == -1:
                other += self_time_s(spans, i)
                coverage.append(_ratio(covered_s(spans, i), cmd["wall_s"]))
                overhead.append(_ratio(duration_s(s), cmd["wall_s"]))
                continue
            meta = s[META] or {}
            if name == "codec.decode":
                name = f"codec.decode.stage{meta['stage']}"
                decode_all += 1
                decode_ok += int(meta["ok"])
            dur[name] = dur.get(name, 0.0) + duration_s(s)
            calls[name] = calls.get(name, 0) + 1
            for key, val in meta.items():
                if key != "stage":
                    meta_sum[f"{name}.{key}"] = meta_sum.get(f"{name}.{key}", 0.0) + val

    def t(name):
        return dur.get(name, 0.0)

    def m(key):
        return meta_sum.get(key, 0.0)

    return {
        "awgn_info.mi_awgn_1d.calls": calls.get("awgn_info.mi_awgn_1d", 0),
        "awgn_info.mi_awgn_1d.s": t("awgn_info.mi_awgn_1d"),
        "awgn_info.mi_awgn_2d.calls": calls.get("awgn_info.mi_awgn_2d", 0),
        "awgn_info.mi_awgn_2d.s": t("awgn_info.mi_awgn_2d"),
        "awgn_info.mi_awgn_2d.terms_per_s": _ratio(
            m("awgn_info.mi_awgn_2d.terms"), t("awgn_info.mi_awgn_2d")
        ),
        "awgn_info.mi_monte_carlo.s": t("awgn_info.mi_monte_carlo"),
        "awgn_info.mi_monte_carlo.samples_per_s": _ratio(
            m("awgn_info.mi_monte_carlo.samples"), t("awgn_info.mi_monte_carlo")
        ),
        "rates.sweep.s": t("rates.sweep"),
        "rates.sweep.points_per_s": _ratio(m("rates.sweep.points"), t("rates.sweep")),
        "rates.find_claim_interval.s": t("rates.find_claim_interval"),
        "rates.check_superposition_inequality.s": t("rates.check_superposition_inequality"),
        "codec.builtin_code.s": t("codec.builtin_code"),
        "codec.encode.s": t("codec.encode"),
        "codec.decode.stage1_s": t("codec.decode.stage1"),
        "codec.decode.stage2_s": t("codec.decode.stage2"),
        "codec.decode.frame_ok_ratio": _ratio(decode_ok, decode_all),
        "ocb.map_bits.s": t("ocb.map_bits"),
        "ocb.demap_stage1.s": t("ocb.demap_stage1"),
        "ocb.reconstruct_v1.s": t("ocb.reconstruct_v1"),
        "ocb.demap_stage2.s": t("ocb.demap_stage2"),
        "linksim.run_trials.s": t("linksim.run_trials"),
        "linksim.frames": int(m("linksim.run_trials.frames")),
        "linksim.rng.s": t("linksim.rng"),
        "linksim.noise.s": t("linksim.noise"),
        "cli.other_s": other,
        "trace.coverage.first": coverage[0],
        "trace.coverage.last": coverage[-1],
        "trace.overhead.first": overhead[0],
        "trace.overhead.last": overhead[-1],
        "trace.replay_match": _ratio(sum(bool(c["match"]) for c in commands), len(commands)),
    }
