"""End-to-end tests of the command-line interface.

Everything goes through main(argv) so exit codes and emitted bytes are the
same ones a shell user would see.
"""

import csv
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdpoly
from tdpoly import cli, closedform, extremal, reduction
from tdpoly.errors import GraphParseError, InternalConsistencyError
from tdpoly.graph import cycle_graph, parse_edge_list, path_graph
from tdpoly.oracle import brute_force_tdp
from tdpoly.polynomial import IntPoly
from tdpoly.reduction import cycle_tdp, path_tdp
from tdpoly.reports import VerificationReport

from helpers import envelope_to_poly, fraction_horner, monomial


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- package surface ------------------------------------------------------------


def test_public_names_are_listed():
    # the paper's routes; every other name is imported from its own module.
    # Adding or removing a package-level name is an edit of this list
    assert set(tdpoly.__all__) == {
        "BudgetError", "Graph", "GraphParseError", "IntPoly", "InternalConsistencyError",
        "parse_edge_list",
        "brute_force_tdp", "gamma_t", "tree_tdp", "path_tdp", "cycle_tdp", "star_tdp",
        "path_closed_eval", "cycle_closed_eval",
        "vertex_reduction_rhs", "edge_reduction_rhs",
    }
    assert len(tdpoly.__all__) == 16
    assert all(hasattr(tdpoly, name) for name in tdpoly.__all__)


# -- poly -----------------------------------------------------------------------


def test_poly_path_4_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, ["poly", "--family", "path", "--n", "4"])
    assert code == 0
    assert out == '{"n":4,"method":"tree","gamma_t":2,"coeffs":["0","0","1","2","1"]}\n'


def test_poly_path_2_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, ["poly", "--family", "path", "--n", "2"])
    assert code == 0
    assert out == '{"n":2,"method":"tree","gamma_t":2,"coeffs":["0","0","1"]}\n'


def test_poly_from_file(capsys, tmp_path):
    f = tmp_path / "c4.txt"
    f.write_text("# a four-cycle\nn 4\n0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run_cli(capsys, ["poly", "--in", str(f)])
    assert code == 0
    env = json.loads(out)
    assert env == {
        "n": 4,
        "method": "recurrence",
        "gamma_t": 2,
        "coeffs": ["0", "0", "4", "4", "1"],
    }


def test_poly_single_vertex_has_null_gamma(capsys, tmp_path):
    f = tmp_path / "k1.txt"
    f.write_text("n 1\n")
    code, out, _ = run_cli(capsys, ["poly", "--in", str(f)])
    assert code == 0
    env = json.loads(out)
    assert env["gamma_t"] is None
    assert env["coeffs"] == []


def test_poly_text_format(capsys):
    code, out, _ = run_cli(capsys, ["poly", "--family", "path", "--n", "4", "--format", "text"])
    assert code == 0
    assert out == "n = 4\nmethod = tree\ngamma_t = 2\nD_t = x^4 + 2x^3 + x^2\n"


def test_poly_two_corona_family(capsys):
    code, out, _ = run_cli(capsys, ["poly", "--family", "two-corona", "--n", "3"])
    assert code == 0
    env = json.loads(out)
    assert env["n"] == 9
    assert env["gamma_t"] == 6


def test_poly_two_corona_base_file(capsys, tmp_path):
    f = tmp_path / "c3.txt"
    f.write_text("n 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(capsys, ["poly", "--family", "two-corona", "--base", str(f)])
    assert code == 0
    env = json.loads(out)
    assert env["n"] == 9
    assert env["gamma_t"] == 6
    assert env["method"] == "brute"


def test_poly_method_brute_matches_auto(capsys):
    # the walk's answer for a cycle is the brute-force oracle's
    _, out, _ = run_cli(capsys, ["poly", "--family", "cycle", "--n", "6"])
    assert json.loads(out)["method"] == "recurrence"
    assert envelope_to_poly(json.loads(out)) == brute_force_tdp(cycle_graph(6))


def test_poly_byte_identity_across_runs(capsys):
    argv = ["poly", "--family", "cycle", "--n", "5"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        "poly --family path --n 5 --timing",
        "eval --family path --n 5 --at 2 --timing",
        "family --family path --n-min 2 --n-max 5 --timing",
    ],
)
def test_no_subcommand_takes_timing(capsys, argv):
    # stdout is a function of the request alone, so no option puts a clock on it
    code, out, err = run_cli(capsys, argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("usage: tdpoly") and "unrecognized arguments: --timing" in err


def test_envelope_round_trip(capsys):
    _, out, _ = run_cli(capsys, ["poly", "--family", "path", "--n", "4"])
    assert envelope_to_poly(json.loads(out)) == path_tdp(4)


def test_poly_long_path_uses_tree_engine(capsys):
    # 1500 vertices is past Python's default recursion limit of 1000
    code, out, _ = run_cli(capsys, ["poly", "--family", "path", "--n", "1500"])
    assert code == 0
    env = json.loads(out)
    assert env["method"] == "tree"
    assert envelope_to_poly(env) == path_tdp(1500)


def test_poly_reports_the_method_dispatched(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    k4.write_text("n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    for argv, method in (
        (["--family", "path", "--n", "5"], "tree"),
        (["--family", "cycle", "--n", "5"], "recurrence"),
        (["--in", str(k4)], "brute"),
        (["--family", "two-corona", "--n", "2"], "tree"),
    ):
        code, out, err = run_cli(capsys, ["poly", *argv])
        assert code == 0 and err == "", argv
        assert json.loads(out)["method"] == method, argv


def fail_if_called(*args, **kwargs):
    raise AssertionError("the CLI answers the recurrence through its own walk")


def test_recurrence_requests_take_one_route(capsys, monkeypatch):
    # poly, eval and family all answer through the walk, so the one-order
    # entry points are never called; each answer matches the oracle
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "tdpoly"]:
        for name in ("path_tdp", "cycle_tdp"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail_if_called)
    for argv in ("poly --family cycle --n 9", "eval --family cycle --n 9 --at 2"):
        code, out, err = run_cli(capsys, argv.split())
        assert code == 0 and err == "", argv
        env = json.loads(out)
        assert env["method"] == "recurrence"
        assert envelope_to_poly(env) == brute_force_tdp(cycle_graph(9)), argv
    code, out, err = run_cli(capsys, "family --family cycle --n-min 3 --n-max 9".split())
    assert code == 0 and err == ""
    items = json.loads(out)["items"]
    assert [env["n"] for env in items] == list(range(3, 10))
    assert [envelope_to_poly(env) for env in items] == [brute_force_tdp(cycle_graph(n)) for n in range(3, 10)]


# -- family ---------------------------------------------------------------------


def test_family_table(capsys):
    code, out, _ = run_cli(
        capsys, ["family", "--family", "path", "--n-min", "1", "--n-max", "4"]
    )
    assert code == 0
    table = json.loads(out)
    assert table["family"] == "path"
    assert [env["n"] for env in table["items"]] == [1, 2, 3, 4]
    assert table["items"][0]["coeffs"] == []
    assert table["items"][0]["gamma_t"] is None
    assert table["items"][3]["coeffs"] == ["0", "0", "1", "2", "1"]


def test_family_text_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["family", "--family", "star", "--n-min", "4", "--n-max", "4", "--format", "text"],
    )
    assert code == 0
    assert out == "n=4 method=tree gamma_t=2 D_t = x^4 + 3x^3 + 3x^2\n"


# -- eval -----------------------------------------------------------------------


# each named family's smallest order parameter (two-corona: of its base path)
FAMILY_SMALLEST = {"path": 1, "cycle": 3, "star": 2, "two-corona": 1}


def family_requests(family, n):
    """One poly, one eval and (where the subcommand takes the family) one
    family request at order parameter n."""
    yield ["poly", "--family", family, "--n", str(n)]
    yield ["eval", "--family", family, "--n", str(n), "--at", "2"]
    if family != "two-corona":
        yield ["family", "--family", family, "--n-min", str(n), "--n-max", str(n + 1)]


@pytest.mark.parametrize("family", sorted(FAMILY_SMALLEST))
def test_family_orders_start_at_the_smallest(capsys, family):
    # poly, eval and family refuse an order below the family's smallest
    # alike, with one line; poly --family path --n 0 must not answer on the
    # empty graph
    smallest = FAMILY_SMALLEST[family]
    for argv in family_requests(family, smallest):
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and out and err == "", argv
    for argv in family_requests(family, smallest - 1):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "", argv
        assert err == f"error: family {family} starts at n = {smallest}\n", argv


def test_eval_cycle_at_points(capsys):
    code, out, _ = run_cli(
        capsys, ["eval", "--family", "cycle", "--n", "6", "--at", "-1", "1"]
    )
    assert code == 0
    env = json.loads(out)
    assert env["evaluations"] == {"-1": "4", "1": "16"}


def test_eval_complex_point(capsys):
    code, out, _ = run_cli(
        capsys, ["eval", "--family", "path", "--n", "2", "--at", "1+2i"]
    )
    assert code == 0
    env = json.loads(out)
    # x^2 at 1+2i
    assert env["evaluations"] == {"1+2i": "(-3+4j)"}


def test_eval_float_point(capsys):
    code, out, _ = run_cli(
        capsys, ["eval", "--family", "path", "--n", "3", "--at", "0.5"]
    )
    assert code == 0
    value = json.loads(out)["evaluations"]["0.5"]
    assert value == pytest.approx(0.5**3 + 2 * 0.5**2)


def test_eval_long_cycle_at_half_is_exact(capsys):
    # float Horner died converting a coefficient too large for a float
    code, out, err = run_cli(capsys, ["eval", "--family", "cycle", "--n", "1500", "--at", "0.5"])
    assert code == 0, err
    assert json.loads(out)["evaluations"]["0.5"] == float(fraction_horner(cycle_tdp(1500).coeffs, 0.5)[0])


def test_eval_cycle_at_negative_point_is_exact(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--family", "cycle", "--n", "400", "--at", "-0.3"])
    assert code == 0
    value = json.loads(out)["evaluations"]["-0.3"]
    assert value == float(fraction_horner(cycle_tdp(400).coeffs, -0.3)[0])
    assert 2.47e-105 < value < 2.48e-105


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--family", "cycle", "--n", "3000", "--at", "1.5"],
        ["eval", "--family", "cycle", "--n", "700", "--at", "1+2i"],
    ],
    ids=["3000 at 1.5", "700 at 1+2i"],
)
def test_eval_beyond_float_range_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "beyond the float range" in err


def test_eval_cycle_800_at_complex_point_exit_2(capsys):
    # forest-recurrence's eval requests at n >= 800 fail here by design; the
    # budget on their integer points' values admits them
    for n in (800, 950, 1000, 1500):
        argv = ["eval", "--family", "cycle", "--n", str(n), "--at", "-1", "2", "0.5", "1+2i"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", "error: value at (1+2j) is beyond the float range\n"), n


@pytest.mark.parametrize("token", ["1e400", "-1e400", "nan", "inf", "1e400i", "1+1e400i"])
def test_eval_non_finite_point_names_the_token(capsys, monkeypatch, token):
    monkeypatch.setattr(cli, "tree_tdp", refuse_to_run)  # refused while parsing
    code, out, err = run_cli(capsys, ["eval", "--family", "path", "--n", "5", f"--at={token}"])
    assert (code, out, err) == (2, "", f"error: evaluation point {token!r} is not finite\n")


def decimal_digits_to_int(text):
    """The int a nonnegative decimal string names, read in pieces below
    Python's int-from-str limit, which stays as it is."""
    value = 0
    for i in range(0, len(text), 4000):
        piece = text[i:i + 4000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_eval_prints_exact_values_past_the_int_to_str_limit(capsys):
    # D_t(C_3000, 100) has 6013 digits; str() refuses an int past 4300
    code, out, err = run_cli(capsys, ["eval", "--family", "cycle", "--n", "3000", "--at", "100", "--format", "text"])
    assert code == 0 and err == ""
    text = out.splitlines()[-1].removeprefix("D_t(100) = ")
    assert len(text) == 6013
    assert decimal_digits_to_int(text) == cycle_tdp(3000).evaluate(100)


def horner_ran(*args):
    raise RuntimeError("horner ran")


@pytest.mark.parametrize(
    ("argv", "err"),
    [
        # one value: 100 * log10(1 + 10^999) + 1 = 99 901 digits, and 100 001 at 10^1000
        ("eval --family path --n 100 --at 1" + "0" * 999, None),
        ("eval --family path --n 100 --at 1" + "0" * 1000, "a value is capped at 100000 predicted digits, got 100001 by n = 100"),
        # C_3000 prints 2 712 904 coefficient digits, and 99 001 per value near 10^33
        ("eval --family cycle --n 3000 --at 1" + "0" * 33 + " -1" + "0" * 33, None),
        (
            "eval --family cycle --n 3000 --at 1" + "0" * 33 + " -1" + "0" * 33 + " 1" + "0" * 32 + "1",
            "output is capped at 3000000 predicted digits, got 3009907 by n = 3000",
        ),
        ("eval --family cycle --n 3000 --at " + "9" * 4000, "a value is capped at 100000 predicted digits, got 12000001 by n = 3000"),
        # at x = (a + bi)/q Horner's numerator is priced as (|a| + |b| + q)^m,
        # and a float or complex value adds nothing to the sum
        ("eval --family cycle --n 3000 --at 1+1e200i", "a value is capped at 100000 predicted digits, got 600001 by n = 3000"),
        ("eval --family cycle --n 3000 --at 1e300", "a value is capped at 100000 predicted digits, got 900001 by n = 3000"),
        ("eval --family cycle --n 3000 --at 1e-300", "a value is capped at 100000 predicted digits, got 947342 by n = 3000"),
        ("eval --family cycle --n 316 --at 1e-300", None),
        # 77 666 and 49 109 digits at 1e-10 and -0.3 would pass the sum's cap
        ("eval --family cycle --n 3000 --at 1" + "0" * 33 + " -1" + "0" * 33 + " 1e-10 -0.3", None),
    ],
    ids=[
        "one value at the cap", "one value past it", "values at the sum's cap", "values past it", "4000-digit point",
        "complex point past the cap", "huge float past it", "tiny float past it", "tiny float under it",
        "floats outside the sum",
    ],
)
def test_eval_value_budget_refuses_before_horner(capsys, monkeypatch, argv, err):
    # Horner raises, so an admitted request exits 4 with its message and a
    # refused one must have exited 3 before it ran
    monkeypatch.setattr(IntPoly, "evaluate", horner_ran)
    monkeypatch.setattr(cli, "tree_tdp", lambda g: IntPoly.zero())
    monkeypatch.setattr(cli, "_recurrence_terms", lambda family, n: iter([IntPoly.zero()]))
    code, out, got = run_cli(capsys, argv.split())
    if err is None:
        assert (code, out, got) == (4, "", "error: internal: RuntimeError: horner ran\n")
    else:
        assert (code, out, got) == (3, "", f"error: {err}\n")


def test_eval_negative_points_in_every_form(capsys):
    # argparse alone takes "-1e3", "-1+2i" and "-2i" for options
    points = ["1", "-1+2i", "-1e3", "-2i", "-0.5", "-4"]
    code, out, err = run_cli(capsys, ["eval", "--family", "path", "--n", "3", "--at", *points])
    assert code == 0 and err == ""
    values = json.loads(out)["evaluations"]
    assert list(values) == points
    coeffs = path_tdp(3).coeffs
    assert values["1"] == "3" and values["-4"] == str(fraction_horner(coeffs, -4)[0])
    assert values["-0.5"] == float(fraction_horner(coeffs, -0.5)[0])
    assert values["-1e3"] == float(fraction_horner(coeffs, -1000)[0])
    for token, (re, im) in (("-1+2i", (-1, 2)), ("-2i", (0, -2))):
        want_re, want_im = fraction_horner(coeffs, re, im)
        assert complex(values[token]) == complex(want_re, want_im), token
    code, out, err = run_cli(capsys, ["eval", "--family", "path", "--n", "3", "--at=-1e3"])
    assert code == 0 and err == ""
    assert json.loads(out)["evaluations"] == {"-1e3": float(fraction_horner(coeffs, -1000)[0])}


def test_parse_point_forms():
    assert cli.parse_point("2") == 2 and isinstance(cli.parse_point("2"), int)
    assert cli.parse_point("-1") == -1
    assert cli.parse_point("0.5") == 0.5 and isinstance(cli.parse_point("0.5"), float)
    assert cli.parse_point("1+2i") == complex(1, 2)
    assert cli.parse_point("i") == 1j
    assert cli.parse_point("-i") == -1j
    assert cli.parse_point("2.5i") == 2.5j
    assert cli.parse_point("1 + 2i") == complex(1, 2)
    # past Python's int-from-str limit of 4300 digits: still the integer
    assert cli.parse_point("-" + "9" * 5000) == 1 - 10**5000
    with pytest.raises(ValueError):
        cli.parse_point("")
    with pytest.raises(ValueError):
        cli.parse_point("abc")


# -- verify ---------------------------------------------------------------------


def test_verify_vertex_identity_suite(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "theorem1", "--n-max", "6", "--trials", "5"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "theorem1"
    assert report["passed"] is True
    assert report["failures"] == []
    # every vertex of the twelve fixed corpus graphs alone gives 53 instances
    assert report["instances"] >= 53
    assert report["params"] == {"n_max": "6", "trials": "5", "seed": "42"}


def test_verify_edge_identity_suite(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "theorem3", "--n-max", "6", "--trials", "5"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["instances"] > 0


def test_verify_conditioned_recurrence_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "claim1", "--n-max", "9"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["instances"] == 5  # orders 5 through 9


def test_verify_recurrence_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "recurrence", "--n-max", "10"])
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("n_max", ["60", "200"])
def test_verify_closedform_suite_at_long_orders(capsys, n_max):
    # x = -2 made the float closed form fail at n = 57, 59, 60 and exit 4 by 200
    code, out, _ = run_cli(capsys, ["verify", "--suite", "closedform", "--n-max", n_max])
    assert code == 0
    assert '"passed":true' in out


def test_verify_minus_one_suite(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "minus-one", "--n-max", "20", "--trials", "20"]
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_basic_identity_suite(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "prop1", "--n-max", "7", "--trials", "6"]
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_byte_identity_for_fixed_seed(capsys):
    argv = ["verify", "--suite", "theorem1", "--n-max", "5", "--trials", "3"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


# -- scan -----------------------------------------------------------------------


def test_scan_tree_bound(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--suite", "tree-bound", "--n", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "tree-bound"
    assert report["summary"]["all_bound_hold"] is True


def test_scan_minimal_tree(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--suite", "minimal-tree", "--n", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["minimal_exists"] is True


# sha256 of the stdout of `scan --suite S --n N --format F`, frozen from the
# labeled route that decoded and brute-forced all n^(n-2) labeled trees; the
# n = 9 entries from the census route, before its example walk moved from
# built graphs onto Pruefer edge lists.
TREE_SCAN_DIGESTS = {
    ("tree-bound", 2, "json"): "c89c5d4803d362324c8323ce1fade947f48f46c1673703fa2751850de7698dec",
    ("tree-bound", 2, "csv"): "7c580620fb1c449fb7e1ebcb32a65f9e182f14ebe2bcdc74b7659e344ffe26ac",
    ("tree-bound", 3, "json"): "99d39266cb6b35c54686fc5793449e0c7d2adb943dff627c7ecd7b6b546620b5",
    ("tree-bound", 3, "csv"): "d7e92db3a03dd65cf6beda2c911a80e25d5a932980b64760ba9fc9e4870a6418",
    ("tree-bound", 4, "json"): "c509e2de5ba2ed1ddc55d0c37e5b5c0cef3f9fcaf44ca702c93f059c31829db0",
    ("tree-bound", 4, "csv"): "f35ee8232894f577ae61922cf6de5a146988ea73a8a0a5bf2b520916821b9568",
    ("tree-bound", 5, "json"): "5c9a075819a6faf5b5179bd68e9ee14e71c711cc10bfba512cb6b2662964fa80",
    ("tree-bound", 5, "csv"): "8e04425f142064210fc0261912e00f8f15fab8bac69d90db9f1ca995db2b2160",
    ("tree-bound", 6, "json"): "039d3e15fb44fdedca85be5b7f0c88130a8a0f5e8c260a1bf0908648beeaf36e",
    ("tree-bound", 6, "csv"): "f66206083e6042bc65bdc06856fac39cda62484f3af92a5173fc020ac12fda8f",
    ("tree-bound", 7, "json"): "0b35eb5f156757214d9ec8d26f781c70e2ac61f276b4ea0945626985fef152d4",
    ("tree-bound", 7, "csv"): "2eaa84e4d21ed24bdc419d0a89073560eca81efe85763c47a8fd8d6113a63269",
    ("tree-bound", 8, "json"): "2f75115a211efa8124f3f018d3573d583b9a70276fc463361129d03cc506f9c4",
    ("tree-bound", 8, "csv"): "9a3ec8d23cbdfdab13220704c1bcf4d78131eafe8f33161652e28e4ec28fbf34",
    ("minimal-tree", 2, "json"): "2350a1002a24783f3f217d2c982e834449f6b8a567e43f1cf8190f004cc6b202",
    ("minimal-tree", 2, "csv"): "1d1f028fcd29a8be9219490b8544d5784f2fb8c5883c0df990378b285fbbdcc9",
    ("minimal-tree", 3, "json"): "b48c6377dc7e59009b18ce4c196cad16ac931aef68555f605c99add9704d4597",
    ("minimal-tree", 3, "csv"): "4a7012c79a85989d33cf1a6e44c74992edaa3a904c3875b189bfe5c829c11117",
    ("minimal-tree", 4, "json"): "022940cf84872822edc04e9634cf440e5a62474899a765ab5b975b0d00464263",
    ("minimal-tree", 4, "csv"): "7e6b0a6eeab1cb204edec8f176ed9d08f45e96970fe76fe13ea984c82e6d3359",
    ("minimal-tree", 5, "json"): "b5c9e69bdc79e9ec4b56fefeb3ad7f2e463006b5cc737fd6ea1272f83462d357",
    ("minimal-tree", 5, "csv"): "06dcf354f985a90d1bdead1a06b55cca6d22bac83b131e2c5d5e4f0f3ccbe8ee",
    ("minimal-tree", 6, "json"): "bf15dd5a2e36a12e6803e2c3f499f28b0396f2ca0fd529595351ddb6efdd4673",
    ("minimal-tree", 6, "csv"): "e731486387697ce11666c9a4c13af5e1d74da5b11d62628e1cf5446f82edeab6",
    ("minimal-tree", 7, "json"): "f0f1fa416b79373feb704d1e0c90b5b530aa64fd5b528ac5d564fd99c85bdf3a",
    ("minimal-tree", 7, "csv"): "a740b8d91b591b152c14944bb32c3b225d763fb6be879a03394dd959386d9f7c",
    ("minimal-tree", 8, "json"): "aa8f7d4e4ad5b4187b81ea709a4716236e3e024cecc2a10132c8474ad5c14138",
    ("minimal-tree", 8, "csv"): "bb5ffee194f4b7c17fea3e7afda4ea0dfd771c0c3b28ac86fef5755e20153ecc",
    ("tree-bound", 9, "json"): "0b3e180f654674dc13569937c777615ee07aa70f1f3213f081889014b8ef8b07",
    ("minimal-tree", 9, "json"): "bc74568e40671032e0dc800ef05a1b4f5abd218df59c4e57b93de6e43c8e3794",
}


@pytest.mark.parametrize(("suite", "n", "fmt"), sorted(TREE_SCAN_DIGESTS))
def test_tree_scan_bytes_frozen(capsys, suite, n, fmt):
    code, out, err = run_cli(capsys, ["scan", "--suite", suite, "--n", str(n), "--format", fmt])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == TREE_SCAN_DIGESTS[(suite, n, fmt)]


# each tree scan's largest order and the function that runs it
TREE_SCAN_CAPS = {"tree-bound": (14, "scan_tree_bound"), "minimal-tree": (9, "minimal_tree_scan")}


@pytest.mark.parametrize("suite", ["tree-bound", "minimal-tree"])
def test_tree_scans_refuse_orders_outside_the_cap(capsys, monkeypatch, suite):
    largest, runner = TREE_SCAN_CAPS[suite]
    monkeypatch.setattr(cli, runner, refuse_to_run)
    code, out, err = run_cli(capsys, ["scan", "--suite", suite, "--n", str(largest + 1)])
    assert code == 3 and out == ""
    assert err == f"error: scan --suite {suite} is capped at n <= {largest}, got n = {largest + 1}\n"
    code, out, err = run_cli(capsys, ["scan", "--suite", suite, "--n", "1"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def refuse_to_run(*args, **kwargs):
    raise AssertionError("a suite past its cap must not start")


@pytest.mark.parametrize(
    ("suite", "runner"), [("recurrence", "verify_recurrences"), ("claim1", "verify_conditioned_path_recurrence")]
)
def test_oracle_suites_refuse_orders_past_the_cap(capsys, monkeypatch, suite, runner):
    # both run the oracle at every order up to theirs, so n = 27 would pass
    # its cap part-way through; the refusal comes before the suite starts
    code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--n-max", "26"])
    assert code == 0 and err == "" and json.loads(out)["passed"] is True
    monkeypatch.setattr(cli, runner, refuse_to_run)
    code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--n-max", "27"])
    assert code == 3 and out == ""
    assert err == f"error: verify --suite {suite} is capped at n <= 26, got n = 27\n"


# the suites that draw their orders at random: the functions that draw the
# corpus (where one is drawn before the runner) and run it
RANDOM_ORDER_SUITES = {
    ("verify", "theorem1"): ("_verify_corpus", "verify_vertex_reduction"),
    ("verify", "theorem3"): ("_verify_corpus", "verify_edge_reduction"),
    ("verify", "prop1"): ("_prop1_corpus", "verify_basic_identities"),
    ("scan", "degree2"): ("scan_degree2",),
    ("scan", "gamma-bounds"): ("gamma_scan_corpus", "scan_gamma_bounds"),
}


@pytest.mark.parametrize(("sub", "suite"), sorted(RANDOM_ORDER_SUITES))
def test_random_order_suites_refuse_orders_past_the_cap(capsys, monkeypatch, sub, suite):
    # each sends every graph it draws whole to the oracle, so n = 27 would
    # pass the oracle's cap whenever the draw reached it; the refusal comes
    # before the corpus is drawn
    flag = "--n" if sub == "scan" else "--n-max"
    calls = []

    def record(*args):
        calls.append(args)
        return VerificationReport(suite)

    for name in RANDOM_ORDER_SUITES[(sub, suite)]:
        monkeypatch.setattr(cli, name, record)
    code, out, err = run_cli(capsys, [sub, "--suite", suite, flag, "26"])
    assert code == 0 and err == "" and calls[0][1] == 26  # (trials, order, seed)
    for name in RANDOM_ORDER_SUITES[(sub, suite)]:
        monkeypatch.setattr(cli, name, refuse_to_run)
    code, out, err = run_cli(capsys, [sub, "--suite", suite, flag, "27"])
    assert code == 3 and out == ""
    assert err == f"error: {sub} --suite {suite} is capped at n <= 26, got n = 27\n"


# the most --trials of each suite: at n = 26 its slowest seed tried runs
# near minus-one's 1.6 s, or its default already does (theorem1, theorem3)
MOST_TRIALS = {"theorem1": 100, "theorem3": 100, "prop1": 1000, "degree2": 4000, "gamma-bounds": 3500}


@pytest.mark.parametrize(("sub", "suite"), sorted(RANDOM_ORDER_SUITES))
def test_random_order_suites_refuse_trials_past_the_cap(capsys, monkeypatch, sub, suite):
    # without a cap, verify --suite theorem1 --n-max 26 --trials 100000000
    # ran on past a minute; the refusal comes before the corpus is drawn
    cap = MOST_TRIALS[suite]
    flag = "--n" if sub == "scan" else "--n-max"
    calls = []

    def record(*args):
        calls.append(args)
        return VerificationReport(suite)

    for name in RANDOM_ORDER_SUITES[(sub, suite)]:
        monkeypatch.setattr(cli, name, record)
    code, out, err = run_cli(capsys, [sub, "--suite", suite, flag, "10", "--trials", str(cap)])
    assert code == 0 and err == "" and calls[0][0] == cap  # (trials, order, seed)
    for name in RANDOM_ORDER_SUITES[(sub, suite)]:
        monkeypatch.setattr(cli, name, refuse_to_run)
    code, out, err = run_cli(capsys, [sub, "--suite", suite, flag, "10", "--trials", str(cap + 1)])
    assert code == 3 and out == ""
    assert err == f"error: {sub} --suite {suite} is capped at --trials <= {cap}, got --trials {cap + 1}\n"


def test_closedform_refuses_orders_past_its_cap(capsys, monkeypatch):
    # running the suite to n = 950 takes about 1.5 s, so the runner is replaced
    seen = []
    monkeypatch.setattr(cli, "verify_closed_forms", lambda n_max: seen.append(n_max) or closedform.verify_closed_forms(1))
    code, out, err = run_cli(capsys, ["verify", "--suite", "closedform", "--n-max", "950"])
    assert code == 0 and err == "" and seen == [950]
    for n in ("951", "5000"):
        code, out, err = run_cli(capsys, ["verify", "--suite", "closedform", "--n-max", n])
        assert code == 3 and out == "" and seen == [950]
        assert err == f"error: verify --suite closedform is capped at n <= 950, got n = {n}\n"


def test_closedform_fails_on_a_value_off_by_one_unit(capsys, monkeypatch):
    # the closed form's denominator for P_12 at x = 2 is 36 * 2^12 (x + 4 = 6,
    # 2q = 2), so one unit more in its numerator moves D_t(P_12, 2) = 107 584
    # by a relative 6.3e-11, far inside a float tolerance of 1e-6
    honest = closedform._root_sum

    def off_by_one(n, x, path):
        re, im, den = honest(n, x, path)
        return (re + 1, im, den) if (n, x, path) == (12, 2.0, True) else (re, im, den)

    monkeypatch.setattr(closedform, "_root_sum", off_by_one)
    code, out, err = run_cli(capsys, ["verify", "--suite", "closedform", "--n-max", "12"])
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["passed"] is False and report["instances"] == 6 * (12 + 10)
    exact = fraction_horner(brute_force_tdp(path_graph(12)).coeffs, 2)[0]
    assert exact == 107584
    assert report["failures"] == [
        {"graph": "", "param": "path n=12 x=2.0", "lhs": "107584", "rhs": str(exact + Fraction(1, 36 * 2**12))}
    ]
    # the bytes too: a failure row's keys print as graph, param, lhs, rhs
    assert out == (
        '{"suite":"closedform","params":{"n_max":"12","points":[1.0,2.0,-2.0,0.5,-1.0,-0.5]},'
        '"instances":132,"passed":false,"failures":[{"graph":"","param":"path n=12 x=2.0",'
        '"lhs":"107584","rhs":"15863906305/147456"}]}\n'
    )


@pytest.mark.parametrize("suite", ["tree-bound", "minimal-tree"])
def test_wrong_automorphism_count_exits_4(capsys, monkeypatch, suite):
    """Miscounting the labelings of symmetric-bicentre classes breaks Cayley's count."""
    honest = extremal.free_trees

    def doubles_symmetric(n):
        trees = []
        for edges, form, count in honest(n):
            halves = form[1:-1]
            symmetric = form.startswith("[") and halves[: len(halves) // 2] == halves[len(halves) // 2:]
            trees.append((edges, form, 2 * count if symmetric else count))
        return trees

    monkeypatch.setattr(extremal, "free_trees", doubles_symmetric)
    code, out, err = run_cli(capsys, ["scan", "--suite", suite, "--n", "6"])
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "Cayley" in err


def test_scan_degree2_json_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["scan", "--suite", "degree2", "--n", "8", "--trials", "10"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["all_bounds_hold"] is True
    assert report["summary"]["all_identities_hold"] is True

    code, out, _ = run_cli(
        capsys,
        ["scan", "--suite", "degree2", "--n", "8", "--trials", "10", "--format", "csv"],
    )
    assert code == 0
    header, *rows = out.splitlines()
    assert header.startswith("graph,")
    assert len(rows) == len(report["rows"])


def test_scan_gamma_bounds(capsys):
    code, out, _ = run_cli(
        capsys, ["scan", "--suite", "gamma-bounds", "--n", "6", "--trials", "3"]
    )
    assert code == 0
    assert json.loads(out)["summary"]["all_ok"] is True


def test_scan_gamma_bounds_csv_leaves_missing_shapes_empty(capsys):
    # equality_shape is null on every row whose bound is not tight; CSV
    # writes such a cell empty, and every other cell as the JSON row has it
    argv = ["scan", "--suite", "gamma-bounds", "--n", "6", "--trials", "5"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    code, out, _ = run_cli(capsys, [*argv, "--format", "csv"])
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == report["columns"]
    assert len(rows) == len(report["rows"])
    shapes = [dict(zip(header, row))["equality_shape"] for row in rows]
    expected = [row["equality_shape"] for row in report["rows"]]
    assert None in expected and any(expected)  # both kinds of cell occur
    assert shapes == ["" if shape is None else shape for shape in expected]


def test_scan_byte_identity_for_fixed_seed(capsys):
    argv = ["scan", "--suite", "degree2", "--n", "7", "--trials", "5"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


# A fixed graph on 20 vertices (47 edges) for `poly --in`: comment, blank
# line and edges written high-low go through the parser too.
GRAPH_20 = """# n = 20, 47 edges
n 20
0 1
4 0
0 8
0 10
0 11
0 17
0 18
1 2
1 5
7 1
1 11
1 12
2 3

2 5
2 6
2 12
2 13
2 14
3 5
3 7
3 10
3 12
3 14
3 17
3 18
4 6
4 7
5 9
5 14
19 5
6 9
6 10
6 14
6 18
6 19
7 15
7 17
8 14
9 13
10 12
10 14
10 16
10 17
11 13
13 16
13 17
14 16
"""

# A fixed tree on 32 vertices (a Pruefer-decoded one) for `poly --in`, which
# `auto` sends to the tree engine.
TREE_32 = """n 32
0 8
0 23
0 31
1 16
1 28
1 31
2 7
2 17
2 30
3 22
3 30
4 11
4 13
5 21
5 29
6 19
6 20
7 10
7 21
8 25
9 13
9 19
10 28
12 18
12 26
12 28
14 15
15 31
18 27
20 21
23 24
"""

# sha256 of the stdout of requests built on many small oracle calls, graph
# builds and polynomial sums, frozen before the kernel's pure-int path, the
# oracle's early zero and the unchecked graph derivations, (the last three)
# before the trusted graph and polynomial constructors, and (the first three)
# before graphs kept only their adjacency, so none of these changes a byte;
# the closedform entries before its path and cycle checks became one loop,
# less the tolerance that left its params with the exact compare;
# the family, recurrence and "--n-max 300" minus-one entries before family
# and the suites took their path and cycle terms from one recurrence walk;
# the "{tree32}", "--n 300" and "--n 200" entries before eval's values and
# the reports took one encoder; the path and star tables and the text cycle
# before named families were dispatched by their class; the cycle eval at
# 800, the cycle at 1001 and the two-corona before the walk added only each
# term's nonzero band and the two-corona member was built lazily; the two
# CSV scans before a scan's columns became its rows' keys.
# "{graph20}" and "{tree32}" name files holding GRAPH_20 and TREE_32.
SMALL_CALL_DIGESTS = {
    "verify --suite closedform":
        "1a19a903f17843d97498ed60ef2b6c1ed61f6cc9d141e25a78464f3afb8a547e",
    "verify --suite closedform --n-max 60":
        "669a698177dd55ecf3b5ba90da11deb10f5ec7d4cf2303d32f93308ce71ecbfa",
    "verify --suite theorem1 --n-max 8 --trials 20 --seed 5":
        "97dc6b2d4d80e8f08c36c38f507d2993dcadc06e4003f96de2afd7e60d2029bb",
    "verify --suite theorem3 --n-max 8 --trials 20 --seed 5":
        "f31213037f242fb487c8e9bcda4ee85051d8b1af214405227f352fc3df660d22",
    "verify --suite prop1 --n-max 13 --trials 20 --seed 3":
        "3c3f81f68687953fde1cfb767282a4d5cbb7705addb9de6dd17522c2e4b4b085",
    "verify --suite theorem1 --n-max 10 --trials 12 --seed 5":
        "8d449578d38804de5fb407a8a6764446b4cd45853f4809ac704769e6a41c30ac",
    "verify --suite theorem3 --n-max 10 --trials 12 --seed 5":
        "86458e42acc9cc952a0d43b1ad45502484b86060794d8cecf20ea9ec1ffc4e5b",
    "verify --suite prop1 --n-max 8 --trials 6 --seed 5":
        "41666ab68ed398846860015e1f5bf51476716982e2d1a24f1a5d6c60ade66b1c",
    "scan --suite degree2 --n 10 --trials 12 --seed 5":
        "3e6f23edd0fe5842a55500adb4daa0ce053ba459b9beb3db40d821e3ca13e52f",
    "scan --suite gamma-bounds --n 8 --trials 3 --seed 5":
        "ee7f10da71f42da2ae1e89647688fe2135f6442a693a55a89a0a11f5e3a271e6",
    "scan --suite degree2 --n 10 --trials 12 --seed 5 --format csv":
        "6f1b4c05545b2d36edd8402f7c7906303e47335dd99d44bd6c23b4e3f023f938",
    "scan --suite gamma-bounds --n 8 --trials 3 --seed 5 --format csv":
        "3b289f3f1f6d038e46be45876623e473c7bc74f22b7ea74228f205ab2c3b3dc0",
    "verify --suite minus-one --trials 60 --seed 5":
        "91ec1fc125235a1356e6cb405d220f671efa9805d0c01b738f09659597f2d7dd",
    "poly --in {graph20}":
        "ddb2dec692458104d2b382f9b5140c3c9b9378f53d862c5825ee2817192c9a16",
    "eval --family path --n 40 --at -1 2 0.5":
        "5b13196b8d294f10b28ba779c90cb794c95d8f992f3dccab819cdee9eeda4ef3",
    "family --family cycle --n-min 3 --n-max 125":
        "c21ba08f966763df1c4d8c16b9116fa7595997058b58103ed01109a89dddb5f9",
    "family --family cycle --n-min 40 --n-max 60 --format text":
        "88d0291db587318dddc58607f83f1137c880c512872afec54ebf7306909e0f5a",
    "verify --suite recurrence --n-max 20":
        "1382cebb67afbfb222fd29cb35dae83aa95534e289a6b248fe82b165d20672dc",
    "verify --suite minus-one --n-max 300 --trials 0":
        "d726bf1a13a00932943340d7926417e6fd1220dc290c390758839c3e72a74731",
    "poly --in {tree32}":
        "f9f86e32f2a771dfadba42b2b30d439cc9f8829fc56db0520cc9c24d316d0bbb",
    "poly --family path --n 300":
        "39082842bbb552ea33df8430a9d97906e4db00758a8c2b63502089c0f3f2db00",
    "eval --family cycle --n 200 --at -1 2 0.5 1+2i":
        "a73f66ff30c66fe8b192126a0b73cd7bf19d6955d745ee116b9786ba0f58b173",
    "family --family path --n-min 1 --n-max 40":
        "223494257075aef9c2835c6ae8b1ccc1d35569594bd22d5996e9e1056ed7b638",
    "family --family star --n-min 2 --n-max 30":
        "c72b29421cefdcfdccf41223c4984db12a71e546352a9f83e00fe64f70b53f2f",
    "poly --family cycle --n 300 --format text":
        "ec5bcf25a0ea93299d733e01ce2474a0db4353f1e9654571e5c072ad966083e9",
    "eval --family cycle --n 800 --at -1 2 0.5":
        "d6dc4a2f41d11f4f7588192dbbd598a51551aa6a5c743541b811388887684873",
    "poly --family cycle --n 1001":
        "3c7696bfd230edc784334bb0ffd37e0bbe86e59f448db84268d65f225642c2d1",
    "poly --family two-corona --n 5":
        "c1c285034ab6cac1217c2b32809a0f58f296887e63c6c42f18691d86bb1ca46d",
}


@pytest.mark.parametrize("argv", sorted(SMALL_CALL_DIGESTS))
def test_small_call_suites_bytes_frozen(capsys, tmp_path, argv):
    graph20, tree32 = tmp_path / "graph20.txt", tmp_path / "tree32.txt"
    graph20.write_text(GRAPH_20)
    tree32.write_text(TREE_32)
    code, out, err = run_cli(capsys, argv.format(graph20=graph20, tree32=tree32).split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SMALL_CALL_DIGESTS[argv]


def test_family_errors_stop_at_the_same_member(capsys, monkeypatch):
    # a table is answered member by member: an engine that fails at S_4
    # fails the table there, prints no row and answers no later member
    solved = []
    honest = cli.tree_tdp

    def fail_at_4(g):
        solved.append(g.order)
        if g.order == 4:
            raise InternalConsistencyError("S_4 failed its check")
        return honest(g)

    monkeypatch.setattr(cli, "tree_tdp", fail_at_4)
    code, out, err = run_cli(capsys, ["family", "--family", "star", "--n-min", "2", "--n-max", "5"])
    assert (code, out, err) == (4, "", "error: S_4 failed its check\n")
    assert solved == [2, 3, 4]


def refuse_to_build(*args, **kwargs):
    raise AssertionError("a member the walk answers needs no graph")


def test_walk_answered_members_build_no_graph(capsys, monkeypatch):
    # a named family's route is known from its name, so a member the
    # recurrence answers costs its walk term and nothing more; each answer
    # is the one given with graphs
    requests = [
        "family --family cycle --n-min 3 --n-max 40",
        "poly --family cycle --n 30",
        "eval --family cycle --n 30 --at -1 2",
    ]
    with_graphs = [run_cli(capsys, argv.split()) for argv in requests]
    for name in ("path_graph", "cycle_graph", "star_graph"):
        monkeypatch.setattr(cli, name, refuse_to_build)
    assert [run_cli(capsys, argv.split()) for argv in requests] == with_graphs
    assert [code for code, _, _ in with_graphs] == [0, 0, 0]


@pytest.mark.parametrize("family", ["path", "cycle", "star"])
def test_family_items_are_the_poly_outputs(capsys, family):
    # a family table is its members' poly answers in turn
    smallest = FAMILY_SMALLEST[family]
    alone = [run_cli(capsys, ["poly", "--family", family, "--n", str(n)]) for n in range(smallest, 10)]
    assert all(code == 0 and err == "" for code, _, err in alone)
    code, out, err = run_cli(capsys, ["family", "--family", family, "--n-min", str(smallest), "--n-max", "9"])
    assert code == 0 and err == ""
    assert json.loads(out)["items"] == [json.loads(o) for _, o, _ in alone]


def count_walk_additions(monkeypatch):
    """Patch the recurrence walk so that every ring addition it makes is
    counted; returns the list the counts go to."""
    adds = []
    honest = reduction._order4_walk

    def counted(seeds, add, times_x):
        return honest(seeds, lambda a, b: adds.append(1) or add(a, b), times_x)

    monkeypatch.setattr(reduction, "_order4_walk", counted)
    return adds


@pytest.mark.parametrize(
    ("argv", "orders"),
    [
        ("family --family cycle --n-min 3 --n-max 60", 58),
        ("verify --suite closedform --n-max 60", 60 + 58),
        ("verify --suite recurrence --n-max 20", 20 + 18),
    ],
)
def test_tables_walk_the_recurrence_once(capsys, monkeypatch, argv, orders):
    # one walk per family: at most two ring additions per order tabulated,
    # where a restart per order makes 3 306 for the family request
    adds = count_walk_additions(monkeypatch)
    code, _, err = run_cli(capsys, argv.split())
    assert code == 0 and err == ""
    assert 0 < len(adds) <= 2 * orders


def test_family_checks_every_term_it_prints(capsys, monkeypatch):
    checked = []
    honest = reduction.ensure_valid_tdp
    monkeypatch.setattr(reduction, "ensure_valid_tdp", lambda p, order: checked.append(order) or honest(p, order))
    code, _, _ = run_cli(capsys, ["family", "--family", "cycle", "--n-min", "40", "--n-max", "60"])
    assert code == 0 and checked == list(range(40, 61))


def test_requests_past_the_digit_budget_exit_3(capsys, monkeypatch):
    # a member of order m prints at most (m + 1)(floor(m log10 2) + 1)
    # digits, and a request may print 3 000 000: one graph of order 3155
    # (2 998 200; 3156 would take 3 002 307), or the cycles from 3 up to 308
    # (2 984 284; up to 309, 3 013 424). The engine of a poly request is
    # replaced, since a path of 3155 takes seconds to answer
    orders = []
    monkeypatch.setattr(cli, "tree_tdp", lambda g: orders.append(g.order) or IntPoly.zero())
    code, out, err = run_cli(capsys, ["poly", "--family", "path", "--n", "3155"])
    assert code == 0 and err == "" and orders == [3155]
    code, out, err = run_cli(capsys, ["family", "--family", "cycle", "--n-min", "3", "--n-max", "308"])
    assert code == 0 and err == "" and json.loads(out)["items"][-1]["n"] == 308
    monkeypatch.setattr(cli, "tree_tdp", refuse_to_run)
    monkeypatch.setattr(cli, "_recurrence_terms", refuse_to_run)
    for argv, digits, n in (
        ("poly --family path --n 3156", 3002307, 3156),
        ("eval --family cycle --n 3156 --at 2", 3002307, 3156),
        ("poly --family path --n 1000000", 301030301030, 1000000),
        ("family --family cycle --n-min 3 --n-max 309", 3013424, 309),
        ("family --family path --n-min 1 --n-max 50000", 3013429, 309),
    ):
        code, out, err = run_cli(capsys, argv.split())
        assert code == 3 and out == "", argv
        assert err == f"error: output is capped at 3000000 predicted digits, got {digits} by n = {n}\n", argv


def test_two_corona_past_the_digit_budget_builds_no_graph(capsys, monkeypatch):
    # the 2-corona of P_n has order 3n, known from the name: at n = 10^6 the
    # budget refuses it before the graph of 3 000 000 vertices is built
    monkeypatch.setattr(cli, "two_corona", refuse_to_run)
    for sub in (["poly"], ["eval", "--at", "2"]):
        code, out, err = run_cli(capsys, [*sub, "--family", "two-corona", "--n", "1000000"])
        assert code == 3 and out == "", sub
        assert err == "error: output is capped at 3000000 predicted digits, got 2709270903090 by n = 3000000\n", sub


def test_files_past_the_digit_budget_build_no_graph(capsys, monkeypatch, tmp_path):
    # a file's order is its header's (the 2-corona of it, three times that),
    # so a 12-byte file declaring 10^8 vertices is refused unbuilt
    f = tmp_path / "huge.txt"
    f.write_text("n 100000000\n")
    monkeypatch.setattr(cli.Graph, "__init__", refuse_to_run)
    for argv, digits, n in (
        (["poly", "--in", str(f)], 3010300030103000, 10**8),
        (["eval", "--in", str(f), "--at", "2"], 3010300030103000, 10**8),
        (["poly", "--family", "two-corona", "--base", str(f)], 27092699790308999, 3 * 10**8),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == "", argv
        assert err == f"error: output is capped at 3000000 predicted digits, got {digits} by n = {n}\n", argv


def test_minus_one_refuses_orders_past_the_cap(capsys, monkeypatch):
    # its path rows walk ints at -1, so the cap's run takes about a second
    code, out, err = run_cli(capsys, ["verify", "--suite", "minus-one", "--n-max", "1000000", "--trials", "0"])
    report = json.loads(out)
    assert code == 0 and err == "" and report["passed"] and report["instances"] == 10**6 + 19
    monkeypatch.setattr(cli, "verify_minus_one", refuse_to_run)
    code, out, err = run_cli(capsys, ["verify", "--suite", "minus-one", "--n-max", "1000001"])
    assert code == 3 and out == ""
    assert err == "error: verify --suite minus-one is capped at n <= 1000000, got n = 1000001\n"


def test_minus_one_refuses_trials_past_the_cap(capsys, monkeypatch):
    # the forest trials cost time linearly, so --trials has a cap of its own
    seen = []

    def record_trials(path_n_max, forest_trials, seed):
        seen.append(forest_trials)
        return VerificationReport("minus-one")

    monkeypatch.setattr(cli, "verify_minus_one", record_trials)
    code, out, err = run_cli(capsys, ["verify", "--suite", "minus-one", "--trials", "50000"])
    assert code == 0 and err == "" and seen == [50000]
    monkeypatch.setattr(cli, "verify_minus_one", refuse_to_run)
    code, out, err = run_cli(capsys, ["verify", "--suite", "minus-one", "--trials", "50001"])
    assert code == 3 and out == ""
    assert err == "error: verify --suite minus-one is capped at --trials <= 50000, got --trials 50001\n"


def test_prop1_unions_stay_within_the_oracle_cap(capsys):
    # at --n-max 16 two corpus graphs can add up to more than 26 vertices;
    # such a pair is not joined, so the suite runs instead of exiting 3
    code, out, err = run_cli(capsys, ["verify", "--suite", "prop1", "--n-max", "16", "--seed", "3"])
    report = json.loads(out)
    assert code == 0 and err == "" and report["passed"] and report["instances"] > 0


@pytest.mark.parametrize(
    "argv, smallest",
    [
        (["verify", "--suite", "claim1", "--n-max", "3"], 5),
        (["verify", "--suite", "closedform", "--n-max", "0"], 1),
        (["verify", "--suite", "recurrence", "--n-max", "0"], 1),
        (["verify", "--suite", "theorem1", "--n-max", "1"], 2),
        (["verify", "--suite", "theorem3", "--n-max", "1"], 2),
        (["verify", "--suite", "prop1", "--n-max", "1"], 2),
        (["scan", "--suite", "degree2", "--n", "1"], 2),
        (["scan", "--suite", "gamma-bounds", "--n", "1"], 3),
        (["scan", "--suite", "gamma-bounds", "--n", "2"], 3),
        (["scan", "--suite", "tree-bound", "--n", "1"], 2),
        (["scan", "--suite", "minimal-tree", "--n", "1"], 2),
        (["verify", "--suite", "minus-one", "--n-max", "0"], 1),
        (["verify", "--suite", "minus-one", "--n-max", "-3"], 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_orders_below_a_suite_exit_2(capsys, argv, smallest):
    # a suite that would check no instance must not report a pass
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    sub, _, suite, flag, n = argv
    assert err == f"error: {sub} --suite {suite} starts at n = {smallest}; got {flag} {n}\n"


def test_smallest_orders_still_run(capsys):
    for argv in (
        ["verify", "--suite", "claim1", "--n-max", "5"],
        ["verify", "--suite", "closedform", "--n-max", "1"],
        ["verify", "--suite", "recurrence", "--n-max", "1"],
        ["verify", "--suite", "minus-one", "--n-max", "1", "--trials", "2"],
    ):
        code, out, _ = run_cli(capsys, argv)
        report = json.loads(out)
        assert code == 0 and report["passed"] and report["instances"] > 0
    code, out, _ = run_cli(capsys, ["scan", "--suite", "gamma-bounds", "--n", "3", "--trials", "4"])
    summary = json.loads(out)["summary"]
    assert code == 0 and summary["all_ok"] and int(summary["instances"]) > 0


SUITE_REQUESTS = [
    ["verify", "--suite", suite]
    for suite in ("theorem1", "theorem3", "claim1", "prop1", "recurrence", "closedform", "minus-one")
] + [
    ["scan", "--suite", suite, "--n", "4"]
    for suite in ("tree-bound", "minimal-tree", "degree2", "gamma-bounds")
]


# the suites that draw nothing at random
UNSEEDED_SUITES = ("claim1", "recurrence", "closedform", "tree-bound", "minimal-tree")


@pytest.mark.parametrize("argv", SUITE_REQUESTS, ids=" ".join)
def test_negative_trials_exit_2(capsys, argv):
    # some suites ignored --trials, one echoed it as "forest_trials":"-1"
    code, out, err = run_cli(capsys, argv + ["--trials", "-1"])
    assert code == 2 and out == ""
    name = " ".join(argv[:3])
    if argv[2] in UNSEEDED_SUITES:
        assert err == f"error: {name} draws nothing at random, so it takes no --trials\n"
    else:
        fewest = 1 if argv[2] == "degree2" else 0
        assert err == f"error: {name} needs --trials >= {fewest}; got --trials -1\n"


@pytest.mark.parametrize("argv", [a for a in SUITE_REQUESTS if a[2] in UNSEEDED_SUITES], ids=" ".join)
@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_unseeded_suites_refuse_trials_and_seed(capsys, argv, flag):
    # these suites ran and exited 0 with the option silently ignored
    code, out, err = run_cli(capsys, argv + [flag, "3"])
    assert code == 2 and out == ""
    assert err == f"error: {' '.join(argv[:3])} draws nothing at random, so it takes no {flag}\n"


def test_degree2_without_trials_exits_2(capsys):
    # degree2 has no fixed corpus: zero trials would check nothing and pass
    code, out, err = run_cli(capsys, ["scan", "--suite", "degree2", "--n", "6", "--trials", "0"])
    assert code == 2 and out == ""
    assert err == "error: scan --suite degree2 needs --trials >= 1; got --trials 0\n"
    code, out, _ = run_cli(capsys, ["scan", "--suite", "degree2", "--n", "6", "--trials", "1"])
    assert code == 0 and json.loads(out)["summary"]["instances"] == "1"


def test_verify_failure_exits_1(capsys, monkeypatch):
    # the suite walks the recurrence once per family; a wrong path term fails its row
    honest = reduction._recurrence_terms

    def wrong_paths(family, n):
        terms = honest(family, n)
        if family != "path":
            return terms
        return (poly + monomial(k + 1) for k, poly in enumerate(terms, n))

    monkeypatch.setattr(reduction, "_recurrence_terms", wrong_paths)
    code, out, err = run_cli(capsys, ["verify", "--suite", "recurrence", "--n-max", "4"])
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["passed"] is False
    assert [f["param"] for f in report["failures"]] == ["path n=1", "path n=2", "path n=3", "path n=4"]


def test_minus_one_forest_rows_can_fail(capsys, monkeypatch):
    # the fold's value reaches the row unchecked, so a wrong one is a failure
    # row (exit 1), not an internal error (exit 4)
    honest = closedform._fold_forest
    monkeypatch.setattr(closedform, "_fold_forest", lambda *args: honest(*args) + 2)
    code, out, err = run_cli(capsys, ["verify", "--suite", "minus-one", "--n-max", "3", "--trials", "5"])
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["passed"] is False and report["instances"] == 3 + 19 + 5
    params = [f["param"] for f in report["failures"]]
    assert [p.split(" n=")[0] for p in params] == [f"forest trial={k}" for k in range(5)]
    assert all(f["rhs"] in ("2", "3") for f in report["failures"])  # exact ints travel as strings


def test_scan_failure_exits_1(capsys, monkeypatch):
    honest = extremal.gamma_bounds_row
    monkeypatch.setattr(extremal, "gamma_bounds_row", lambda g: {**honest(g), "upper_ok": False})
    code, out, err = run_cli(capsys, ["scan", "--suite", "gamma-bounds", "--n", "5", "--trials", "2"])
    assert code == 1 and err == ""
    assert json.loads(out)["summary"]["all_ok"] is False


def test_descriptive_scan_without_minimal_poly_exits_0(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--suite", "minimal-tree", "--n", "6"])
    assert code == 0
    assert json.loads(out)["summary"]["minimal_exists"] is False


# -- exit codes -----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["poly"],
        ["poly", "--family", "path"],
        ["poly", "--family", "wedge", "--n", "3"],
        ["poly", "--family", "path", "--n", "5", "--base", "x.txt"],
        ["poly", "--family", "two-corona"],
        ["poly", "--family", "star", "--n", "6", "--method", "recurrence"],
        ["poly", "--family", "cycle", "--n", "3", "--method", "tree"],
        ["eval", "--family", "path", "--n", "3", "--at", "abc"],
        ["family", "--family", "path", "--n-min", "5", "--n-max", "3"],
        ["family", "--family", "cycle", "--n-min", "2", "--n-max", "4"],
    ],
    ids=lambda argv: " ".join(argv) or "(no args)",
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, _ = run_cli(capsys, argv)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "poly --family path --n 4",
        "eval --family star --n 5 --at 2",
        "family --family path --n-min 1 --n-max 5",
    ],
)
def test_method_tree_is_not_a_choice(capsys, argv):
    # each input's class picks its one route, so there is no method to
    # choose: --method is refused like any unknown option, whatever its value
    for method in ("auto", "brute", "recurrence", "tree"):
        code, out, err = run_cli(capsys, [*argv.split(), "--method", method])
        assert (code, out) == (2, ""), method
        assert err.splitlines()[-1].endswith(f"error: unrecognized arguments: --method {method}"), method


def test_both_sources_exit_2(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("n 2\n0 1\n")
    code, _, err = run_cli(capsys, ["poly", "--in", str(f), "--family", "path", "--n", "3"])
    assert code == 2
    assert "not both" in err
    # the file exists and parses, so only the flag check can refuse these
    for extra in (["--n", "3"], ["--base", str(f)]):
        code, out, err = run_cli(capsys, ["poly", "--in", str(f), *extra])
        assert (code, out, err) == (2, "", "error: --n/--base only apply to --family\n"), extra


def test_two_corona_with_both_parameters_exit_2(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("n 2\n0 1\n")
    code, _, _ = run_cli(
        capsys, ["poly", "--family", "two-corona", "--n", "3", "--base", str(f)]
    )
    assert code == 2


def test_unparseable_file_exit_2(capsys, tmp_path):
    # a file is priced by its header only once every line parses
    f = tmp_path / "bad.txt"
    for text, line in (("oops\n", "line 1"), ("n 100000000\n0 1\n1 1\n", "line 3")):
        f.write_text(text)
        code, _, err = run_cli(capsys, ["poly", "--in", str(f)])
        assert code == 2
        assert line in err


def test_leading_byte_order_mark_is_ignored(capsys, tmp_path):
    # Windows editors save UTF-8 with a byte-order mark; only a leading one
    # is an encoding mark, so one anywhere else stays a parse error
    plain, marked, late = tmp_path / "plain.txt", tmp_path / "marked.txt", tmp_path / "late.txt"
    text = "n 3\n0 1\n1 2\n2 0\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    late.write_text("n 3\n\ufeff0 1\n1 2\n2 0\n", encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for flags in (["--in"], ["--family", "two-corona", "--base"]):
        expected = run_cli(capsys, ["poly", *flags, str(plain)])
        assert expected[0] == 0
        assert run_cli(capsys, ["poly", *flags, str(marked)]) == expected
        code, out, err = run_cli(capsys, ["poly", *flags, str(late)])
        assert (code, out) == (2, "") and err.startswith("error: line 2: ")


def test_parser_drops_a_leading_byte_order_mark():
    # the library parses a marked text as the CLI reads a marked file; one
    # more mark, or one after the start, stays a parse error
    assert parse_edge_list("\ufeffn 3\n0 1\n") == parse_edge_list("n 3\n0 1\n")
    for text, line in (("\ufeff\ufeffn 3\n0 1\n", 1), ("n 3\n\ufeff0 1\n", 2)):
        with pytest.raises(GraphParseError) as info:
            parse_edge_list(text)
        assert str(info.value).startswith(f"line {line}: ")


def test_missing_file_exit_2(capsys, tmp_path):
    # the operating system's message, for a missing file and for a directory
    absent = tmp_path / "absent.txt"
    for path, message in ((absent, "[Errno 2] No such file or directory"), (tmp_path, "[Errno 21] Is a directory")):
        code, out, err = run_cli(capsys, ["poly", "--in", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}: {str(path)!r}\n")


def test_budget_exhaustion_exit_3(capsys, tmp_path):
    # a graph that is neither a forest nor a cycle goes to the oracle, whose
    # cap is on the whole graph: C_27 with a chord is refused, and so are
    # three disjoint C_10 (n = 30), although each component is small
    chorded, three = tmp_path / "chorded-c27.txt", tmp_path / "three-c10.txt"
    chorded.write_text("n 27\n0 13\n" + "".join(f"{i} {(i + 1) % 27}\n" for i in range(27)))
    three.write_text("n 30\n" + "".join(f"{10 * k + i} {10 * k + (i + 1) % 10}\n" for k in range(3) for i in range(10)))
    for f in (chorded, three):
        code, out, err = run_cli(capsys, ["poly", "--in", str(f)])
        assert (code, out) == (3, "")
        assert err.startswith("error: brute-force enumeration capped at 26 vertices")


def test_internal_error_exit_4(capsys, monkeypatch):
    def explode(g):
        raise InternalConsistencyError("sanity check failed")

    monkeypatch.setattr(cli, "tree_tdp", explode)
    code, _, err = run_cli(capsys, ["poly", "--family", "path", "--n", "3"])
    assert code == 4
    assert "sanity check failed" in err


def test_unexpected_error_exit_4_one_line(capsys, monkeypatch):
    def explode(g):
        raise RuntimeError("engine fell over")

    monkeypatch.setattr(cli, "tree_tdp", explode)
    code, out, err = run_cli(capsys, ["poly", "--family", "path", "--n", "3"])
    assert code == 4
    assert out == ""
    assert err == "error: internal: RuntimeError: engine fell over\n"


def test_out_of_memory_exit_3_one_line(capsys, monkeypatch):
    # running out of memory is a resource limit, not a defect: exit 3, not 4
    def exhaust(g):
        raise MemoryError()

    monkeypatch.setattr(cli, "_route", exhaust)
    code, out, err = run_cli(capsys, ["eval", "--family", "two-corona", "--n", "3", "--at", "-1"])
    assert code == 3
    assert out == ""
    assert err == "error: out of memory\n"


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "poly" in out and "verify" in out and "scan" in out


def test_calls_in_one_process_match_separate_calls(capsys):
    # main() shares one parser across calls; a fresh parser per call must
    # give the same bytes and exit codes, whatever ran before it
    requests = [
        ["poly", "--family", "cycle", "--n", "7"],
        ["--bogus"],
        ["eval", "--family", "path", "--n", "6", "--at", "2", "1+i"],
        ["verify", "--suite", "claim1", "--n-max", "8"],
        ["--help"],
        ["scan", "--suite", "gamma-bounds", "--n", "6", "--trials", "3", "--seed", "5"],
        ["family", "--family", "path", "--n-min", "5", "--n-max", "3"],
    ]
    separate = []
    for argv in requests:
        cli._build_parser.cache_clear()
        separate.append(run_cli(capsys, argv)[:2])
    shared = [run_cli(capsys, argv)[:2] for argv in requests + requests]
    assert shared == separate + separate
    assert [code for code, _ in separate] == [0, 2, 0, 0, 0, 0, 2]


def test_subcommand_parse_matches_the_full_parser(capsys, monkeypatch, tmp_path):
    # main() hands an argv that starts with a subcommand name to that
    # subcommand's parser alone; with no subcommand parsers it parses every
    # argv through the full parser, as argparse does. Both must give the same
    # exit code, stdout and stderr: help, usage errors and refusals included
    f = tmp_path / "c4.txt"
    f.write_text("n 4\n0 1\n1 2\n2 3\n3 0\n")
    requests = [
        [], ["-h"], ["--help"], ["-x", "poly"], ["--", "poly"], ["nope", "x"],
        ["poly"], ["poly", "-h"], ["poly", "--he"], ["poly", "--i", str(f)], ["poly", "--in"],
        ["poly", "--family", "path", "--n", "4", "--method", "auto"],
        ["poly", "--in", str(f), "extra"],
        ["eval", "--in", str(f), "--at", "-1", "-1+2i", "-i"],
        ["poly", "--family", "path", "--n", "4", "-h"],
        ["poly", "--", "x"], ["scan"], ["verify", "--suite", "nope"],
        ["family", "--family", "cycle", "--n-min", "3", "--n-max", "5", "a", "b"],
        ["poly", "--in", str(tmp_path)],
    ]
    split = [run_cli(capsys, argv) for argv in requests]
    parser, _ = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    whole = [run_cli(capsys, argv) for argv in requests]
    assert split == whole
    assert [code for code, _, _ in split] == [2, 0, 0, 2, 2, 2, 2, 0, 0, 0, 2, 2, 2, 0, 0, 2, 2, 2, 2, 2]
    # no argv reads the process's own arguments, past the program name
    monkeypatch.undo()
    monkeypatch.setattr(sys, "argv", ["tdpoly", "poly", "--in", str(f)])
    assert run_cli(capsys, None) == run_cli(capsys, ["poly", "--in", str(f)])


def test_zero_poly_text_rendering(capsys, tmp_path):
    f = tmp_path / "k1.txt"
    f.write_text("n 1\n")
    code, out, _ = run_cli(capsys, ["poly", "--in", str(f), "--format", "text"])
    assert code == 0
    assert "D_t = 0" in out


# -- any request ----------------------------------------------------------------

# An admitted request, or one with one fault of a drawn kind, each about
# half the time. Admitted orders stay small, so every request runs in
# milliseconds.
FAULTS = ["value", "option", "file", "point"]
BAD_VALUES = ["-1", "0", "10000000", "x", "2.5", ""]  # negative, past every cap, not an integer
POINTS = ["2", "-1", "0", "0.5", "1+2i", "-i", "-1e3", "9" * 400]
BAD_POINTS = ["abc", "", "inf", "nan", "1e400", "1+1e400i", "1e3e3"]
REMOVED_OPTIONS = [["--timing"], *(["--method", m] for m in ("auto", "brute", "recurrence", "tree"))]
# a header in place of the file's own, or lines added to its edges
HEADER_FAULTS = ["n 100000000", "n 30", "n -2", "n x", "n 5 5", "# no header"]
LINE_FAULTS = [["0 1", "1 0"], ["0 9"], ["2 2"], ["a b"], ["0 1 2"], ["n 3"]]


@st.composite
def edge_list_files(draw, fault):
    """An edge-list file's bytes, with any line end and maybe a byte-order
    mark; a fault replaces the header, adds a duplicate, out-of-range,
    looped or malformed edge, or ends the file on a byte that is not UTF-8."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"n {n}", "# a comment", *(f"{u} {v}" for u, v in edges)]
    tail = b""
    if fault:
        kind = draw(st.sampled_from(["header", "lines", "bytes"]))
        if kind == "header":
            lines[0] = draw(st.sampled_from(HEADER_FAULTS))
        elif kind == "lines":
            lines[len(lines):] = draw(st.sampled_from(LINE_FAULTS))
        else:
            tail = b"\xff"
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode() + tail


@st.composite
def graph_requests(draw, fault, path):
    """poly, eval or family on a named family or an edge-list file."""
    sub = draw(st.sampled_from({"point": ["eval"], "file": ["poly", "eval"]}.get(fault, ["poly", "eval", "family"])))
    family = draw(st.sampled_from([*cli._FAMILIES] + ([] if sub == "family" else ["two-corona"])))
    smallest = FAMILY_SMALLEST[family]
    size = str(draw(st.integers(min_value=smallest, max_value=8)))
    if sub == "family":
        return [sub, "--family", family, "--n-min", str(smallest), "--n-max", size]
    source = draw(st.sampled_from(["in", "base"] if fault == "file" else ["family", "in", "base"]))
    if source == "family":
        argv = [sub, "--family", family, "--n", size]
    else:
        path.write_bytes(draw(edge_list_files(fault == "file")))
        argv = [sub, "--in", str(path)] if source == "in" else [sub, "--family", "two-corona", "--base", str(path)]
    if sub == "eval":
        points = draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=3))
        if fault == "point":
            points[draw(st.integers(0, len(points) - 1))] = draw(st.sampled_from(BAD_POINTS))
        argv += ["--at", *points]
    return argv + draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))


@st.composite
def suite_requests(draw):
    """verify or scan on any suite of cli._SUITES, at its smallest orders."""
    sub = draw(st.sampled_from(sorted(cli._SUITES)))
    name = draw(st.sampled_from(sorted(cli._SUITES[sub])))
    suite = cli._SUITES[sub][name]
    order = suite.smallest + draw(st.integers(0, 1))
    argv = [sub, "--suite", name, "--n-max" if sub == "verify" else "--n", str(order)]
    if suite.trials:
        trials = suite.fewest_trials + draw(st.integers(0, 2))
        argv += ["--trials", str(trials), "--seed", draw(st.sampled_from(["0", "7", "-3"]))]
    return argv + (draw(st.sampled_from([[], ["--format", "csv"]])) if sub == "scan" else [])


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(st.data())
def test_any_request_exits_cleanly(tmp_path_factory, data):
    # whatever the request, the exit code is a documented one, a refused
    # request prints nothing, and every failure ends in one error line
    fault = data.draw(st.none() | st.sampled_from(FAULTS), label="fault")
    path = tmp_path_factory.getbasetemp() / "request-graph.txt"
    kinds = [graph_requests(fault, path)] + ([suite_requests()] if fault in (None, "value", "option") else [])
    argv = data.draw(st.one_of(kinds), label="request")
    if fault == "value":
        values = [i for i in range(2, len(argv)) if argv[i - 1].startswith("--")]
        argv[data.draw(st.sampled_from(values))] = data.draw(st.sampled_from(BAD_VALUES))
    elif fault == "option":
        argv += data.draw(st.sampled_from(REMOVED_OPTIONS))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    if code in (2, 3):
        assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    if code:
        assert "error:" in err.getvalue().splitlines()[-1]
