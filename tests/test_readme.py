"""The README's quoted output stays true: every fenced block that an HTML
comment tags with an ``ocbsim`` command line is re-derived from the program.

A tagged excerpt reads

    <!-- ocbsim verify -->
    ```
    ...lines the command writes...
    ```

The checker runs each tagged command in-process through ``cli.main`` into a
fresh directory and asserts that every excerpt line equals a whole line of
one file the command wrote, in order. The manifest is left out: its
wall-clock line changes between runs. The README's first section after its
opening paragraph must be "Answer", every fenced block in it must be tagged,
and it must hold at least three tagged excerpts, so that deleting the tags
cannot leave the check passing with nothing checked.
"""

import contextlib
import functools
import io
import re
import shlex
from pathlib import Path

import pytest

from ocbsim import cli

README = Path(__file__).resolve().parent.parent / "README.md"
MIN_ANSWER_EXCERPTS = 3
_TAG = re.compile(r"<!--\s*(.*?)\s*-->")


def tagged_excerpts(lines: list[str], lo: int = 0, hi: int | None = None) -> list[tuple[str, int, int]]:
    """(command line, start, end) of each tagged excerpt in lines[lo:hi]; lines[start:end] is its body."""
    found = []
    for i in range(lo, len(lines) if hi is None else hi):
        tag = _TAG.fullmatch(lines[i].strip())
        if tag is None:
            continue
        assert i + 1 < len(lines) and lines[i + 1].startswith("```"), (
            f"line {i + 1}: tag {tag[1]!r} is not followed by a fenced block")
        end = lines.index("```", i + 2)
        found.append((tag[1], i + 2, end))
    return found


def answer_section(lines: list[str]) -> tuple[int, int]:
    """The line range of the Answer section, which must be the README's first."""
    headings = [i for i, line in enumerate(lines) if line.startswith("## ")]
    assert headings and lines[headings[0]] == "## Answer", "the first section is not '## Answer'"
    return headings[0], headings[1] if len(headings) > 1 else len(lines)


def run_command(command: str, out: Path) -> dict[str, list[str]]:
    """The lines of each file ``command`` writes into ``out``, its manifest aside."""
    argv = shlex.split(command)
    assert argv[:1] == ["ocbsim"] and len(argv) > 1, f"tag {command!r} is not an ocbsim command"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([*argv[1:], "--out", str(out)])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    written = sorted(out.glob("*")) if out.is_dir() else []
    assert written, f"tag {command!r} names no ocbsim command that writes a file (exit {code})"
    return {path.name: path.read_text(encoding="utf-8").splitlines()
            for path in written if not path.name.endswith(".manifest.txt")}


def _quoted_in_order(excerpt: list[str], lines: list[str]) -> bool:
    """Whether each excerpt line equals a whole line of ``lines``, in order."""
    rest = iter(lines)
    return all(any(line == want for line in rest) for want in excerpt)


def check_readme(text: str, run) -> None:
    """Assert that every tagged excerpt in ``text`` is output its command writes."""
    lines = text.splitlines()
    lo, hi = answer_section(lines)
    answer = tagged_excerpts(lines, lo, hi)
    fences = sum(line.startswith("```") for line in lines[lo:hi]) // 2
    assert fences == len(answer), f"the Answer section has {fences - len(answer)} untagged fenced block(s)"
    assert len(answer) >= MIN_ANSWER_EXCERPTS, (
        f"the Answer section has {len(answer)} tagged excerpts, fewer than {MIN_ANSWER_EXCERPTS}")
    for command, start, end in tagged_excerpts(lines):
        excerpt = lines[start:end]
        assert excerpt, f"line {start}: the excerpt under {command!r} is empty"
        files = run(command)
        assert any(_quoted_in_order(excerpt, body) for body in files.values()), (
            f"line {start}: the excerpt under {command!r} is not in order in any of "
            f"{sorted(files)}:\n" + "\n".join(excerpt))


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """run_command, each distinct command run once, into its own directory."""
    return functools.cache(lambda command: run_command(command, tmp_path_factory.mktemp("run")))


@pytest.fixture(scope="module")
def readme():
    return README.read_text(encoding="utf-8")


def test_readme_quotes_the_programs_output(readme, run):
    check_readme(readme, run)


def test_a_changed_digit_in_any_excerpt_fails_the_check(readme, run):
    lines = readme.splitlines()
    edits = 0
    for _, start, end in tagged_excerpts(lines):
        for k in range(start, end):
            for m in re.finditer(r"\d", lines[k]):
                changed = list(lines)
                digit = str((int(m[0]) + 1) % 10)
                changed[k] = lines[k][:m.start()] + digit + lines[k][m.end():]
                with pytest.raises(AssertionError, match="is not in order"):
                    check_readme("\n".join(changed), run)
                edits += 1
    assert edits > 0


def test_a_tag_naming_an_unknown_command_fails_the_check(readme, run):
    command = tagged_excerpts(readme.splitlines())[0][0]
    with pytest.raises(AssertionError, match="names no ocbsim command"):
        check_readme(readme.replace(f"<!-- {command} -->", "<!-- ocbsim verfiy -->", 1), run)


def test_too_few_answer_excerpts_fail_the_check(readme, run):
    lines = readme.splitlines()
    lo, hi = answer_section(lines)
    answer = tagged_excerpts(lines, lo, hi)
    # the tags deleted: the fenced blocks stay, untagged
    untagged = [line for i, line in enumerate(lines) if i not in {start - 2 for _, start, _ in answer}]
    with pytest.raises(AssertionError, match="untagged"):
        check_readme("\n".join(untagged), run)
    # whole excerpts deleted, tag and fence, down to one fewer than needed
    dropped = {i for _, start, end in answer[MIN_ANSWER_EXCERPTS - 1:] for i in range(start - 2, end + 1)}
    fewer = [line for i, line in enumerate(lines) if i not in dropped]
    with pytest.raises(AssertionError, match="fewer than"):
        check_readme("\n".join(fewer), run)
