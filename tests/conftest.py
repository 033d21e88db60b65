import sys

import pytest
from hypothesis import settings

import colwave.linwave
import colwave.suite

# Property tests draw the same examples on every run and carry no
# per-example deadline, so a loaded host can neither change which cases
# run nor fail one for being slow.  Per-test @settings still set the
# example counts.
settings.register_profile("colwave", derandomize=True, deadline=None)
settings.load_profile("colwave")


@pytest.fixture
def linear_solves(monkeypatch):
    """Record the source ``h`` (None for the data terms) of every ``solve_linear`` call.

    Every binding of the function in a loaded colwave module is replaced,
    as the benchmark tracer does.
    """
    calls = []
    original = colwave.linwave.solve_linear

    def counted(u0, u1, h, *args, **kwargs):
        calls.append(h)
        return original(u0, u1, h, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "colwave" and getattr(module, "solve_linear", None) is original:
            monkeypatch.setattr(module, "solve_linear", counted)
    return calls


@pytest.fixture(scope="session")
def suite_lines():
    """The ``colwave demo`` results by line name, from one ``run_suite`` per pytest run."""
    return {result.name: result for result, _ in colwave.suite.run_suite()}
