"""Shared pytest configuration.

Puts the checkout's ``src`` first on ``PYTHONPATH``, so that child
processes the tests start (``python -m wergm``) import the package under
test without an install.  After the run, prints one PASS/FAIL line per
acceptance criterion so the acceptance surface is readable without
scanning the whole log.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
)

_ACCEPTANCE_RESULTS = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    _ACCEPTANCE_RESULTS.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {name}")
