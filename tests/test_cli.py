"""End-to-end tests of the command-line interface.

Everything goes through main(argv) so exit codes and emitted bytes are the
same ones a shell user would see.
"""

import hashlib
import json

import pytest

from tdpoly import cli, closedform, extremal, reduction
from tdpoly.errors import InternalConsistencyError
from tdpoly.graph import Graph, cycle_graph, path_graph
from tdpoly.polynomial import IntPoly
from tdpoly.reduction import cycle_tdp, path_tdp

from helpers import envelope_to_poly, fraction_horner


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
    assert envelope_to_poly(json.loads(out)) == path_tdp(4)


def test_poly_long_path_uses_tree_engine(capsys):
    # 1500 vertices is past Python's default recursion limit of 1000
    code, out, _ = run_cli(capsys, ["poly", "--family", "path", "--n", "1500"])
    assert code == 0
    env = json.loads(out)
    assert env["method"] == "tree"
    assert envelope_to_poly(env) == path_tdp(1500)


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


@pytest.mark.parametrize("suite", ["tree-bound", "minimal-tree"])
def test_tree_scans_refuse_orders_outside_the_cap(capsys, suite):
    code, out, err = run_cli(capsys, ["scan", "--suite", suite, "--n", "10"])
    assert code == 3 and out == ""
    assert err == f"error: scan --suite {suite} is capped at n <= 9, got n = 10\n"
    code, out, err = run_cli(capsys, ["scan", "--suite", suite, "--n", "1"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("suite", ["tree-bound", "minimal-tree"])
def test_wrong_automorphism_count_exits_4(capsys, monkeypatch, suite):
    """Dropping the swap of a symmetric bicentre breaks Cayley's count."""
    honest = extremal.tree_signature

    def forgets_swap(n, edges):
        form, aut = honest(n, edges)
        halves = form[1:-1]
        symmetric = form.startswith("[") and halves[: len(halves) // 2] == halves[len(halves) // 2:]
        return form, aut // 2 if symmetric else aut

    monkeypatch.setattr(extremal, "tree_signature", forgets_swap)
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

# sha256 of the stdout of requests built on many small oracle calls, graph
# builds and polynomial sums, frozen before the kernel's pure-int path, the
# oracle's early zero and the unchecked graph derivations, (the last three)
# before the trusted graph and polynomial constructors, and (the first three)
# before graphs kept only their adjacency, so none of these changes a byte;
# the closedform entries before its path and cycle checks became one loop.
# "{graph20}" names a file holding GRAPH_20.
SMALL_CALL_DIGESTS = {
    "verify --suite closedform":
        "e40899421e08e0850ad1a652855cf94afa543ef65da5892c868a70fcdd862bb4",
    "verify --suite closedform --n-max 60":
        "62160d2925914c4c757d48675d3369e5637b6f32610cbaf4998abbeefd3a5468",
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
    "verify --suite minus-one --trials 60 --seed 5":
        "91ec1fc125235a1356e6cb405d220f671efa9805d0c01b738f09659597f2d7dd",
    "poly --in {graph20}":
        "ddb2dec692458104d2b382f9b5140c3c9b9378f53d862c5825ee2817192c9a16",
    "eval --family path --n 40 --at -1 2 0.5":
        "5b13196b8d294f10b28ba779c90cb794c95d8f992f3dccab819cdee9eeda4ef3",
}


@pytest.mark.parametrize("argv", sorted(SMALL_CALL_DIGESTS))
def test_small_call_suites_bytes_frozen(capsys, tmp_path, argv):
    graph20 = tmp_path / "graph20.txt"
    graph20.write_text(GRAPH_20)
    code, out, err = run_cli(capsys, argv.format(graph20=graph20).split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SMALL_CALL_DIGESTS[argv]


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
    honest = reduction.path_tdp
    monkeypatch.setattr(reduction, "path_tdp", lambda n: honest(n) + IntPoly.monomial(n + 1))
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


def test_budget_exhaustion_exit_3(capsys, tmp_path):
    # the oracle's cap is on the whole graph: three disjoint P_10 (n = 30)
    # are refused too, although each component is small
    f = tmp_path / "three-p10.txt"
    f.write_text("n 30\n" + "".join(f"{10 * k + i} {10 * k + i + 1}\n" for k in range(3) for i in range(9)))
    for argv in (["--family", "path", "--n", "27"], ["--in", str(f)]):
        code, _, err = run_cli(capsys, ["poly", *argv, "--method", "brute"])
        assert code == 3
        assert err.startswith("error: brute-force enumeration capped at 26 vertices")


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


def test_out_of_memory_exit_3_one_line(capsys, monkeypatch):
    # running out of memory is a resource limit, not a defect: exit 3, not 4
    def exhaust(n):
        raise MemoryError()

    monkeypatch.setattr(cli, "cycle_tdp", exhaust)
    code, out, err = run_cli(capsys, ["eval", "--family", "cycle", "--n", "7", "--at", "-1"])
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
        ["poly", "--family", "star", "--n", "5", "--method", "recurrence"],
    ]
    separate = []
    for argv in requests:
        cli._build_parser.cache_clear()
        separate.append(run_cli(capsys, argv)[:2])
    shared = [run_cli(capsys, argv)[:2] for argv in requests + requests]
    assert shared == separate + separate
    assert [code for code, _ in separate] == [0, 2, 0, 0, 0, 0, 2]


def test_zero_poly_text_rendering(capsys, tmp_path):
    f = tmp_path / "k1.txt"
    f.write_text("n 1\n")
    code, out, _ = run_cli(capsys, ["poly", "--in", str(f), "--format", "text"])
    assert code == 0
    assert "D_t = 0" in out
