import pytest

from tdpoly.graph import path_graph
from tdpoly.oracle import brute_force_tdp


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Warm the subset kernel once so timed sections measure steady state.

    This pays numpy's first-call costs. P_4 takes the kernel's whole-table
    path; P_16 is wide enough for the split path, so it pays np.unique's
    first call and builds the cached bitset layout of an 8-mask low half
    here, not in the first kernel test. ``gamma_t`` is the same enumeration,
    so it needs no warm-up of its own.
    """
    brute_force_tdp(path_graph(4))
    brute_force_tdp(path_graph(16))


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
