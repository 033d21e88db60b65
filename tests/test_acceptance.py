"""Preset acceptance suite: every headline claim at its stated tolerance.

Each test runs one suite check through the suite's runner, which prints
its pass/fail line; the same runner backs the ``colwave demo`` subcommand.
The preset nets are solved once for the whole module, as ``run_suite``
solves them once per run.
"""

import pytest

from colwave.suite import CHECKS, preset_nets, run_check


@pytest.fixture(scope="module")
def nets():
    return preset_nets()


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name, nets):
    result, _ = run_check(name, nets)
    assert result.ok, f"{result.name}: {result.details}"
