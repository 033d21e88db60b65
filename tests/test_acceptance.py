"""Preset acceptance suite: every headline claim at its stated tolerance.

Each test runs one suite check through the suite's runner, which prints
its pass/fail line; the same runner backs the ``colwave demo`` subcommand.
"""

import pytest

from colwave.suite import CHECKS, run_check


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name):
    result, _ = run_check(name)
    assert result.ok, f"{result.name}: {result.details}"
