"""Shared fixtures and helpers, plus the acceptance-criteria report.

The acceptance tests append one line per criterion to ACCEPTANCE_LINES; the
terminal-summary hook prints them as a block at the end of the run, so the
pass/fail verdicts survive even when individual test output is folded away.
"""

import pathlib

import pytest

ACCEPTANCE_LINES = []


def record(criterion: str, text: str, ok: bool, elapsed: float) -> str:
    line = f"[{criterion}] {text}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    ACCEPTANCE_LINES.append(line)
    return line


def read_bfile(path) -> list[tuple[int, int]]:
    """Parse OEIS b-file lines ("index value" per line, '#' starts a comment)."""
    entries = []
    with open(path, encoding="ascii") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'index value', got {raw!r}")
            entries.append((int(fields[0]), int(fields[1])))
    return entries


@pytest.fixture
def data_dir() -> pathlib.Path:
    return pathlib.Path(__file__).parent / "data"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
