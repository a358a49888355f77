import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def shallow_stack():
    """Run the test under a recursion limit of 300 frames, restored after
    it, so that code recursing once per element of a long input fails
    there; recursion by nesting depth alone stays far below it."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    yield
    sys.setrecursionlimit(old)

# One line per acceptance criterion, filled in by tests/test_acceptance.py and
# printed after the run so the verdicts survive in captured terminal output.
ACCEPTANCE_LOG = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)
