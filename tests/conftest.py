import sys

import pytest

# the fault and forbidden-call runners in helpers.py check with assert,
# which must hold under python -O as well
pytest.register_assert_rewrite("helpers")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
