"""Shared fixtures plus the acceptance-criteria report.

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


@pytest.fixture
def data_dir() -> pathlib.Path:
    return pathlib.Path(__file__).parent / "data"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
