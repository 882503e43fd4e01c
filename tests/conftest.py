import os
import sys
from pathlib import Path

# The CLI run as a child process imports the same source tree as the
# tests, also when pytest alone (pyproject's pythonpath) put it on sys.path.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """After the run, print the acceptance scorecard (one line per
    criterion) gathered by test_acceptance, if that module ran."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "SCORECARD", None) if module else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
