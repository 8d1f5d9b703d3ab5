import pytest

from tdpoly import kernels
from tdpoly.graph import path_graph
from tdpoly.oracle import brute_force_tdp


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Warm the subset kernel once so timed sections measure steady state.

    P_4 takes the kernel's whole-table path and builds its cached bitsets.
    P_{_WHOLE_MAX + 2} is wide enough for the split path, so it pays numpy's
    first-call costs, np.unique's included, and builds the cached bitset
    layout of its low half here, not in the first kernel test. ``gamma_t``
    is the same enumeration, so it needs no warm-up of its own.
    """
    brute_force_tdp(path_graph(4))
    brute_force_tdp(path_graph(kernels._WHOLE_MAX + 2))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from acceptance_log import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in RESULTS:
        line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
