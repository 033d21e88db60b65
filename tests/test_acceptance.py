"""Preset acceptance suite: every headline claim at its stated tolerance.

Each test runs one suite check through the suite's runner, which prints
its pass/fail line; the same runner backs the ``colwave demo`` subcommand.
The preset nets are solved once for the whole module, as ``run_suite``
solves them once per run.
"""

from dataclasses import replace

import pytest

import colwave.suite as suite
from colwave.suite import CHECKS, preset_nets, run_check


@pytest.fixture(scope="module")
def nets():
    return preset_nets()


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name, nets):
    result, _ = run_check(name, nets)
    assert result.ok, f"{result.name}: {result.details}"


@pytest.mark.parametrize("name, config_check, bs", [
    ("contraction_factor", "_contraction", (0.5, 1.0)),
    ("linear_association", "_association", (0.5, 1.0, 2.0)),
    ("cone_support", "_support", (1.0,)),
])
def test_preset_check_fails_with_each_config_check_it_reads(nets, monkeypatch, name,
                                                             config_check, bs):
    # the preset check's verdict is the config check's, on every preset net it reads
    real = getattr(suite, config_check)
    for failing in bs:
        def planted(cfg, solved, threads):
            result = real(cfg, solved, threads)
            return replace(result, ok=result.ok and solved is not nets[failing])

        monkeypatch.setattr(suite, config_check, planted)
        assert not CHECKS[name](nets).ok, failing


def test_linear_association_fails_on_a_planted_mismatch(nets):
    # the b = 0.5 net checked as if it solved b = 2: its rate of about 0.5 is below 1.9
    planted = {**nets, 2.0: nets[0.5]._replace(config=nets[2.0].config)}
    result = suite.check_linear_association(planted)
    assert not result.ok
    assert "b=2.0: association ok=False rate=0.51" in result.details
