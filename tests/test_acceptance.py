"""Preset acceptance suite: every headline claim at its stated tolerance.

The suite runs once per pytest run, as ``colwave demo`` runs it: the
three config-free checks, then each preset's config checks on its net,
solved once.  A headline claim is the set of suite lines that carry it.
"""

from dataclasses import replace

import pytest

import colwave.suite as suite
from colwave.cli import EXIT_CHECK_FAILED, main

#: Each headline claim and the suite lines, ``<preset>/<check>`` or a
#: config-free check, that carry it.
CLAIMS = {
    "linear_kernels": ["linear_kernels"],
    "cone_support": ["1d_b1/support", "2d_b1/support", "3d_b1/support"],
    "residual_convergence": ["residual_convergence"],
    "lifespan_oracle": ["1d_b1/oracle", "3d_b1/oracle"],
    "contraction_factor": ["1d_b0.5/contraction", "1d_b1/contraction", "2d_b1/contraction",
                           "3d_b1/contraction"],
    "linear_association": ["1d_b0.5/association", "1d_b1/association", "1d_b2/association",
                           "2d_b1/association", "3d_b1/association"],
    "uniqueness": ["2d_b1/uniqueness", "3d_b1/uniqueness"],
    "ultrametric_calculus": ["ultrametric_calculus"],
    "picard_scaling": ["1d_b0.5/picard_scaling", "1d_b1/picard_scaling", "1d_b2/picard_scaling",
                       "2d_b1/picard_scaling", "3d_b1/picard_scaling"],
}


def test_claims_cover_every_suite_line(suite_lines):
    lines = [name for names in CLAIMS.values() for name in names]
    assert sorted(lines) == sorted(suite_lines)


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_acceptance(claim, suite_lines):
    failed = [f"{name}: {suite_lines[name].details}"
              for name in CLAIMS[claim] if not suite_lines[name].ok]
    assert failed == []


@pytest.mark.parametrize("claim, config_check, preset", [
    ("cone_support", "_support", "3d_b1"),
    ("contraction_factor", "_contraction", "1d_b0.5"),
    ("linear_association", "_association", "1d_b2"),
])
def test_preset_check_fails_with_each_config_check_it_reads(monkeypatch, tmp_path, capsys,
                                                             claim, config_check, preset):
    # a config check that fails on one preset's net fails that demo line
    # alone, and with it the claim and the demo's exit code
    real = getattr(suite, config_check)
    (name,) = [key for key, check in suite.CONFIG_CHECKS.items() if check is real]

    def planted(cfg, solved, threads):
        result = real(cfg, solved, threads)
        return replace(result, ok=result.ok and cfg is not suite.PRESETS[preset])

    monkeypatch.setitem(suite.CONFIG_CHECKS, name, planted)
    monkeypatch.setattr(suite, "CONFIG_FREE_CHECKS", {})  # they read no preset
    assert main(["demo", "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
    summary = (tmp_path / "demo_summary.txt").read_text().splitlines()
    assert [line.split()[1] for line in summary if line.startswith("FAIL")] == [f"{preset}/{name}"]
    assert f"{preset}/{name}" in CLAIMS[claim]


@pytest.mark.parametrize("crash_fails", [True, False])
def test_a_crashed_config_check_fails_or_raises(monkeypatch, crash_fails):
    # the demo's rule: a check that raises is a failed result with its error
    # as details; colwave check lets the error through
    def crashing(cfg, solved, threads):
        raise RuntimeError("planted crash")

    monkeypatch.setitem(suite.CONFIG_CHECKS, "oracle", crashing)
    results = suite.run_checks(replace(suite.PRESETS["1d_b1"], checks=["oracle"]), None,
                               crash_fails=crash_fails)
    if crash_fails:
        ((result, _),) = results
        assert result == suite.CheckResult("oracle", False, "error: planted crash")
    else:
        with pytest.raises(RuntimeError, match="planted crash"):
            next(results)


def test_linear_association_fails_on_a_planted_mismatch():
    # the b = 0.5 net checked as if it solved b = 2: its rate of about 0.5 is below 1.9
    solved = suite.solve(suite.PRESETS["1d_b0.5"])
    result = suite._association(suite.PRESETS["1d_b2"], solved, 1)
    assert not result.ok
    assert result.details.startswith("association ok=False rate=0.51")
