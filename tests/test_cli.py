"""End-to-end tests of the command-line interface.

Everything goes through main(argv) so exit codes and emitted bytes are the
same ones a shell user would see.
"""

import json

import pytest

from tdpoly import cli
from tdpoly.errors import InternalConsistencyError
from tdpoly.graph import Graph, cycle_graph, path_graph
from tdpoly.polynomial import IntPoly
from tdpoly.reduction import cycle_tdp, path_tdp

from helpers import fraction_horner


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    _, auto_out, _ = run_cli(capsys, ["poly", "--family", "cycle", "--n", "6"])
    _, brute_out, _ = run_cli(capsys, ["poly", "--family", "cycle", "--n", "6", "--method", "brute"])
    assert json.loads(auto_out)["coeffs"] == json.loads(brute_out)["coeffs"]
    assert json.loads(auto_out)["method"] == "recurrence"
    assert json.loads(brute_out)["method"] == "brute"


def test_poly_byte_identity_across_runs(capsys):
    argv = ["poly", "--family", "cycle", "--n", "5"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_poly_timing_key_only_when_asked(capsys):
    _, plain, _ = run_cli(capsys, ["poly", "--family", "path", "--n", "5"])
    _, timed, _ = run_cli(capsys, ["poly", "--family", "path", "--n", "5", "--timing"])
    assert "timing_ms" not in json.loads(plain)
    timed_env = json.loads(timed)
    assert isinstance(timed_env["timing_ms"], float)
    # the rest of the envelope is unchanged
    del timed_env["timing_ms"]
    assert timed_env == json.loads(plain)


def test_envelope_round_trip(capsys):
    _, out, _ = run_cli(capsys, ["poly", "--family", "path", "--n", "4"])
    assert cli.envelope_to_poly(json.loads(out)) == path_tdp(4)


def test_poly_long_path_uses_tree_engine(capsys):
    # 1500 vertices is past Python's default recursion limit of 1000
    code, out, _ = run_cli(capsys, ["poly", "--family", "path", "--n", "1500"])
    assert code == 0
    env = json.loads(out)
    assert env["method"] == "tree"
    assert cli.envelope_to_poly(env) == path_tdp(1500)


def test_compute_poly_method_resolution():
    assert cli.compute_poly(path_graph(5), "auto")[1] == "tree"
    assert cli.compute_poly(cycle_graph(5), "auto")[1] == "recurrence"
    k4 = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert cli.compute_poly(k4, "auto")[1] == "brute"
    assert cli.compute_poly(path_graph(6), "recurrence")[1] == "recurrence"


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


def test_parse_point_forms():
    assert cli.parse_point("2") == 2 and isinstance(cli.parse_point("2"), int)
    assert cli.parse_point("-1") == -1
    assert cli.parse_point("0.5") == 0.5 and isinstance(cli.parse_point("0.5"), float)
    assert cli.parse_point("1+2i") == complex(1, 2)
    assert cli.parse_point("i") == 1j
    assert cli.parse_point("-i") == -1j
    assert cli.parse_point("2.5i") == 2.5j
    assert cli.parse_point("1 + 2i") == complex(1, 2)
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


def test_scan_byte_identity_for_fixed_seed(capsys):
    argv = ["scan", "--suite", "degree2", "--n", "7", "--trials", "5"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


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


def test_both_sources_exit_2(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("n 2\n0 1\n")
    code, _, err = run_cli(capsys, ["poly", "--in", str(f), "--family", "path", "--n", "3"])
    assert code == 2
    assert "not both" in err


def test_two_corona_with_both_parameters_exit_2(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("n 2\n0 1\n")
    code, _, _ = run_cli(
        capsys, ["poly", "--family", "two-corona", "--n", "3", "--base", str(f)]
    )
    assert code == 2


def test_unparseable_file_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("oops\n")
    code, _, err = run_cli(capsys, ["poly", "--in", str(f)])
    assert code == 2
    assert "line 1" in err


def test_missing_file_exit_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, ["poly", "--in", str(tmp_path / "absent.txt")])
    assert code == 2


def test_budget_exhaustion_exit_3(capsys):
    code, _, err = run_cli(
        capsys, ["poly", "--family", "path", "--n", "27", "--method", "brute"]
    )
    assert code == 3
    assert "error" in err


def test_internal_error_exit_4(capsys, monkeypatch):
    def explode(g, method):
        raise InternalConsistencyError("sanity check failed")

    monkeypatch.setattr(cli, "compute_poly", explode)
    code, _, err = run_cli(capsys, ["poly", "--family", "path", "--n", "3"])
    assert code == 4
    assert "sanity check failed" in err


def test_unexpected_error_exit_4_one_line(capsys, monkeypatch):
    def explode(g, method):
        raise RuntimeError("engine fell over")

    monkeypatch.setattr(cli, "compute_poly", explode)
    code, out, err = run_cli(capsys, ["poly", "--family", "path", "--n", "3"])
    assert code == 4
    assert out == ""
    assert err == "error: internal: RuntimeError: engine fell over\n"


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "poly" in out and "verify" in out and "scan" in out


def test_zero_poly_text_rendering(capsys, tmp_path):
    f = tmp_path / "k1.txt"
    f.write_text("n 1\n")
    code, out, _ = run_cli(capsys, ["poly", "--in", str(f), "--format", "text"])
    assert code == 0
    assert "D_t = 0" in out
