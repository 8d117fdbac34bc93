"""Output checks against references committed in ``refs/``.

Each check returns a list of problems; an empty list means the command's
output is correct. ``refs/curves.csv`` is ``ocbsim curves`` at its defaults
and ``refs/sim.json`` holds error rates from long runs (see ``make_refs.py``).
"""

from __future__ import annotations

import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

CURVES_ABS_TOL = 1e-9
# Claim-interval line of the verify report at the defaults.
CLAIM_INTERVAL = ("0.02831", "15.77", "0.235719", "2.096")
_CLAIM_RE = re.compile(
    r"gamma in \[(\S+), (\S+)\]; peak gap (\S+) bits at gamma = (\S+)$", re.M
)
# Standard errors allowed between a sim.csv rate and its reference. Wide
# enough that a few thousand checks per benchmark run almost never trip on
# chance, narrow enough that a doubled error rate fails by many times over.
SIM_Z = 5.0
SIM_RATES = ("ber1", "ber2", "fer1", "fer2")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_curves(out: Path, ref: Path = REFS / "curves.csv") -> list[str]:
    try:
        got, want = _read_csv(out / "curves.csv"), _read_csv(ref)
    except OSError as exc:
        return [f"curves.csv: {exc}"]
    if len(got) != len(want) or (got and list(got[0]) != list(want[0])):
        return [f"curves.csv: {len(got)} rows, want {len(want)} with the reference columns"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        for col, wv in w.items():
            if not abs(float(g[col]) - float(wv)) <= CURVES_ABS_TOL:
                problems.append(f"curves.csv row {i} {col}: {g[col]} vs reference {wv}")
    try:
        if ET.parse(out / "curves.svg").getroot().tag != "{http://www.w3.org/2000/svg}svg":
            problems.append("curves.svg: root element is not svg")
    except (OSError, ET.ParseError) as exc:
        problems.append(f"curves.svg: {exc}")
    return problems


def check_verify(out: Path, code) -> list[str]:
    problems = [] if code == 0 else [f"verify exited {code}"]
    try:
        text = (out / "verify.txt").read_text()
    except OSError as exc:
        return problems + [f"verify.txt: {exc}"]
    problems += [f"verify.txt: {line}" for line in text.splitlines() if line.startswith("[FAIL]")]
    m = _CLAIM_RE.search(text)
    if m is None or m.groups() != CLAIM_INTERVAL:
        found = m.groups() if m else "no claim-interval line"
        problems.append(f"verify.txt claim interval {found}, want {CLAIM_INTERVAL}")
    return problems


def _sim_band(obs: float, n: int, ref: dict, sided: str) -> tuple[bool, float]:
    """Is ``obs`` over ``n`` frames inside the z-band around the reference?

    The standard error combines both runs from the reference's per-frame
    standard deviation, floored at the binomial one of a rate of 3 / N (the
    rule of three), so a reference with no errors still allows a few.
    """
    n_ref = ref["frames"]
    floor = 3.0 / n_ref
    sd = max(ref["sd_frame"], math.sqrt(floor * (1.0 - floor)))
    se = sd * math.sqrt(1.0 / n + 1.0 / n_ref)
    z = (obs - ref["mean"]) / se
    return (abs(z) if sided == "two" else z) <= SIM_Z, z


def check_sim(out: Path, code, refs_path: Path = REFS / "sim.json") -> list[str]:
    problems = [] if code == 0 else [f"simulate exited {code}"]
    refs = json.loads(refs_path.read_text())
    try:
        rows = _read_csv(out / "sim.csv")
    except OSError as exc:
        return problems + [f"sim.csv: {exc}"]
    if not rows:
        problems.append("sim.csv has no rows")
    for row in rows:
        key = f"{row['code1']}/{row['code2']}@{float(row['sigma2']):g}"
        ref = refs.get(key)
        if ref is None:
            problems.append(f"sim.csv: no reference for {key}")
            continue
        n = int(row["trials"])
        for name in SIM_RATES:
            ok, z = _sim_band(float(row[name]), n, ref["rates"][name], ref["sided"])
            if not ok:
                problems.append(
                    f"sim.csv {key} {name} = {row[name]}: z = {z:.2f} against reference "
                    f"{ref['rates'][name]['mean']:.6g} ({ref['sided']}-sided band {SIM_Z})"
                )
    return problems


def check_command(command: str, out: Path, code) -> list[str]:
    if command == "curves":
        problems = [] if code == 0 else [f"curves exited {code}"]
        return problems + check_curves(out)
    if command == "verify":
        return check_verify(out, code)
    return check_sim(out, code)
