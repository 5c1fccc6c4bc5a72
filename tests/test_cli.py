import ast
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import zeromix
from zeromix.cli import main

P3 = "3\n0 1\n1 2\n"
K2 = "2\n0 1\n"
K1 = "1\n"
C5 = "5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
STAR = "4\n0 1\n0 2\n0 3\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_exact_z_json(files, capsys):
    g = files("g.txt", K2)
    code, out = run(capsys, ["exact-z", "--graph", g, "--activity", "1", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 2
    assert payload["Z"] == [3.0, 0.0]


def test_exact_z_csv_and_complex_activity(files, capsys):
    g = files("g.txt", C5)
    code, out = run(capsys, ["exact-z", "--graph", g, "--activity", "0.5+0.25j"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "activity_re,activity_im,Z_re,Z_im"
    assert len(lines) == 2


def test_ratio_series_csv(files, capsys):
    g = files("g.txt", P3)
    code, out = run(
        capsys,
        ["ratio-series", "--graph", g, "--vertex", "1", "--order", "3", "--method", "division"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,re,im"
    res = [float(line.split(",")[1]) for line in lines[1:]]
    assert res == [0.0, 1.0, -3.0, 8.0]


def test_ratio_series_methods_agree(files, capsys):
    g = files("g.txt", C5)
    _, a = run(capsys, ["ratio-series", "--graph", g, "--vertex", "0", "--order", "5"])
    _, b = run(
        capsys,
        ["ratio-series", "--graph", g, "--vertex", "0", "--order", "5", "--method", "division"],
    )
    for la, lb in zip(a.splitlines()[1:], b.splitlines()[1:]):
        ka, ra, ia = la.split(",")
        kb, rb, ib = lb.split(",")
        assert ka == kb
        assert abs(float(ra) - float(rb)) <= 1e-9
        assert abs(float(ia) - float(ib)) <= 1e-9


def test_approx_prob_json(files, capsys):
    g = files("g.txt", P3)
    b = files("b.txt", "0 1\n")
    code, out = run(
        capsys,
        [
            "approx-prob",
            "--graph", g,
            "--vertex", "2",
            "--boundary", b,
            "--activity", "1.0",
            "--eps-target", "1e-4",
            "--output", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "errorBound", "depthUsed", "boundM", "rateR"}
    assert abs(payload["value"] - 0.5) <= payload["errorBound"] <= 1e-4
    assert payload["depthUsed"] >= 1


def test_ssm_scan_csv_header(files, capsys):
    code, out = run(
        capsys,
        [
            "ssm-scan",
            "--family", "path",
            "--params", '{"n": 8}',
            "--activity", "1.0",
            "--trials", "12",
            "--max-distance", "3",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph_id,vertex,distance,gap"
    assert len(lines) > 1
    assert lines[1].startswith("path-0,")


def test_ssm_scan_seed_determinism(files, capsys):
    argv = [
        "ssm-scan",
        "--family", "path",
        "--params", '{"n": 8}',
        "--activity", "1.0",
        "--trials", "12",
        "--max-distance", "3",
        "--seed", "4",
    ]
    _, a = run(capsys, argv)
    _, b = run(capsys, argv)
    assert a == b
    _, c = run(capsys, argv[:-1] + ["5"])
    assert a != c


def test_zero_scan_json(files, capsys):
    g = files("g.txt", K1)
    code, out = run(
        capsys,
        [
            "zero-scan",
            "--graph", g,
            "--rect=-1.37,-0.61,-0.41,0.39",  # '=' keeps argparse from eating the minus
            "--resolution", "2",
            "--output", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 1
    assert payload["counts"][0][1] == 1
    assert payload["inconclusive"] == []


def test_roots_clawfree(files, capsys):
    g = files("g.txt", C5)
    code, out = run(capsys, ["roots", "--graph", g, "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_real_negative"] is True
    assert len(payload["roots"]) == 2


def test_roots_rejects_claw(files, capsys):
    g = files("g.txt", STAR)
    code, _ = run(capsys, ["roots", "--graph", g])
    assert code == 2


def test_ratio_scan_ok(files, capsys):
    code, out = run(
        capsys,
        [
            "ratio-scan",
            "--family", "path",
            "--params", '{"sizes": [2, 3]}',
            "--activities", "0.1,0.5",
            "--output", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_evaluations"] == 10
    assert payload["violations"] == []
    assert abs(payload["max_abs_ratio"] - 3 / 11) <= 1e-12


def test_ratio_scan_violation_exit_code(files, capsys):
    code, out = run(
        capsys,
        [
            "ratio-scan",
            "--family", "path",
            "--params", '{"n": 1}',
            "--activities", "-1",
            "--output", "json",
        ],
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["violations"][0]["kind"] == "zero_Z"


def test_hom_prob(files, capsys):
    g = files("g.txt", K2)
    m = files("m.json", "[[2, 1], [1, 1]]")
    code, out = run(
        capsys,
        [
            "hom-prob",
            "--graph", g,
            "--vertex", "0",
            "--color", "0",
            "--matrix", m,
            "--output", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["ratio"][0] - 0.6) <= 1e-12
    assert payload["ratio"][1] == 0.0


def test_hom_series(files, capsys):
    g = files("g.txt", K2)
    m = files("m.json", "[[1, 1], [1, 2]]")
    code, out = run(
        capsys,
        [
            "hom-series",
            "--graph", g,
            "--vertex", "0",
            "--color", "1",
            "--matrix", m,
            "--order", "3",
            "--output", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][0] == [0.5, 0.0]
    assert payload["coefficients"][1] == [0.125, 0.0]


def test_hom_check_zero_mode(files, capsys):
    g = files("g.txt", P3)
    m = files("m.json", "[[1.05, 1], [1, 1.05]]")
    code, out = run(
        capsys,
        ["hom-check", "--mode", "zero", "--graph", g, "--matrix", m, "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hypothesis_ok"] is True
    assert payload["zero_free"] is True


def test_hom_check_zero_mode_without_samples_is_valid_json(files, capsys):
    g = files("g.txt", P3)
    m = files("m.json", "[[1.05, 1], [1, 1.05]]")
    code, out = run(
        capsys,
        ["hom-check", "--mode", "zero", "--graph", g, "--matrix", m,
         "--samples", "0", "--output", "json"],
    )
    assert code == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    payload = json.loads(out, parse_constant=reject)
    assert payload["edge_samples"] == 0
    assert payload["min_edge_abs_Z"] is None


def test_hom_check_bounded_mode_without_samples_is_usage_error(files, capsys):
    g = files("g.txt", "4\n0 1\n1 2\n2 3\n")
    m = files("m.json", "[[1.005, 1], [1, 1.005]]")
    code = main(
        ["hom-check", "--mode", "bounded", "--graph", g, "--matrix", m,
         "--vertex", "0", "--color", "0", "--samples", "0"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: need at least one sample, got 0\n"


def test_hom_check_zero_mode_rejects_far_matrix(files, capsys):
    g = files("g.txt", C5)
    m = files("m.json", "[[1, -1], [-1, 1]]")
    code, out = run(
        capsys,
        ["hom-check", "--mode", "zero", "--graph", g, "--matrix", m, "--output", "json"],
    )
    assert code == 2
    assert json.loads(out)["hypothesis_ok"] is False


def test_hom_check_bounded_mode(files, capsys):
    g = files("g.txt", "4\n0 1\n1 2\n2 3\n")
    b = files("b.txt", "3 1\n")
    m = files("m.json", "[[1.005, 1], [1, 1.005]]")
    code, out = run(
        capsys,
        [
            "hom-check",
            "--mode", "bounded",
            "--graph", g,
            "--matrix", m,
            "--boundary", b,
            "--vertex", "0",
            "--color", "0",
            "--eta", "0.5",
            "--eps", "0.5",
            "--samples", "8",
            "--output", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hypothesis_ok"] is True
    assert payload["n_violations"] == 0
    assert payload["max_identity_residual"] <= 1e-9


def test_hom_check_bounded_needs_vertex(files, capsys):
    g = files("g.txt", P3)
    m = files("m.json", "[[1, 1], [1, 1]]")
    code, _ = run(capsys, ["hom-check", "--mode", "bounded", "--graph", g, "--matrix", m])
    assert code == 1


def test_missing_graph_file_is_usage_error(files, capsys):
    code, _ = run(capsys, ["exact-z", "--graph", "/nonexistent/g.txt", "--activity", "1"])
    assert code == 1


def test_bad_matrix_entry_is_usage_error(files, capsys):
    g = files("g.txt", K2)
    m = files("m.json", '[["x", 1], [1, 1]]')
    code, _ = run(
        capsys, ["hom-prob", "--graph", g, "--vertex", "0", "--color", "0", "--matrix", m]
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["hom-prob", "--vertex", "0", "--color", "0"],
        ["hom-series", "--vertex", "0", "--color", "0"],
        ["hom-check", "--mode", "zero"],
    ],
    ids=["hom-prob", "hom-series", "hom-check"],
)
def test_non_symmetric_matrix_is_usage_error(files, capsys, argv):
    g = files("g.txt", P3)
    m = files("m.json", "[[1, 0], [1, 1]]")
    assert main(argv + ["--graph", g, "--matrix", m]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: symbol matrix must be symmetric\n"


@pytest.mark.parametrize("entry", ["Infinity", "NaN"])
@pytest.mark.parametrize(
    "argv",
    [
        ["hom-prob", "--vertex", "0", "--color", "0"],
        ["hom-series", "--vertex", "0", "--color", "0"],
        ["hom-check", "--mode", "zero"],
    ],
    ids=["hom-prob", "hom-series", "hom-check"],
)
def test_non_finite_matrix_is_one_error_line(files, capsys, argv, entry):
    # Python's JSON parser reads both; Infinity gave a NaN ratio with exit 0,
    # and NaN was refused as not symmetric
    g = files("g.txt", P3)
    m = files("m.json", f"[[{entry}, 1], [1, 1]]")
    assert main(argv + ["--graph", g, "--matrix", m, "--output", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: symbol matrix entries must be finite\n"


def test_unknown_command_is_usage_error(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_missing_required_argument_is_usage_error(files, capsys):
    assert main(["exact-z", "--activity", "1"]) == 1
    capsys.readouterr()


def test_out_file(files, capsys, tmp_path):
    g = files("g.txt", K2)
    dest = tmp_path / "out.json"
    code, out = run(
        capsys,
        [
            "exact-z",
            "--graph", g,
            "--activity", "1",
            "--output", "json",
            "--out-file", str(dest),
        ],
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["Z"] == [3.0, 0.0]


def test_zero_scan_rejects_three_part_resolution(files, capsys):
    g = files("g.txt", K1)
    code = main(["zero-scan", "--graph", g, "--rect=-1.37,-0.61,-0.41,0.39", "--resolution", "2,3,4"])
    assert code == 1
    assert "--resolution" in capsys.readouterr().err


def test_out_of_range_vertex_is_usage_error(files, capsys):
    g = files("g.txt", P3)
    b = files("b.txt", "0 1\n")
    m = files("m.json", "[[2, 1], [1, 1]]")
    for argv in (
        ["approx-prob", "--graph", g, "--vertex", "99", "--boundary", b,
         "--activity", "1.0", "--eps-target", "1e-4"],
        ["hom-series", "--graph", g, "--vertex", "99", "--color", "0", "--matrix", m],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertex 99 not in graph with n=3\n"


@pytest.mark.parametrize("command", [
    ["ssm-scan", "--activity", "1.0", "--trials", "4", "--max-distance", "2"],
    ["ratio-scan", "--activities", "0.5"],
])
@pytest.mark.parametrize("family,params", [
    ("path", '{"m": 3}'),
    ("grid", '{"rows": 3}'),
    ("path", "[3]"),
    ("path", '{"n": "3"}'),
    ("grid", '{"rows": 2, "cols": 2.5}'),
    # no such regular graph: these once died in networkx with a traceback
    ("random_regular", '{"degree": 3, "n": 5}'),
    ("random_regular", '{"degree": 7, "n": 4}'),
    ("line_graph_of_random_regular", '{"degree": 3, "n": 5}'),
    ("line_graph_of_random_regular", '{"degree": 7, "n": 4}'),
])
def test_bad_family_params_is_usage_error(capsys, command, family, params):
    assert main(command + ["--family", family, "--params", params]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {family} family: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [
    ["ratio-series", "--vertex", "1"],
    ["ratio-series", "--vertex", "1", "--method", "division"],
    ["hom-series", "--vertex", "0", "--color", "0"],
])
def test_negative_order_is_usage_error(files, capsys, command):
    g = files("g.txt", P3)
    m = files("m.json", "[[2, 1], [1, 1]]")
    argv = command + ["--graph", g, "--order", "-1"]
    if command[0] == "hom-series":
        argv += ["--matrix", m]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["hom-check", "--mode", "zero", "--graph", "G", "--matrix", "M", "--samples", "-3"],
         "samples must be >= 0, got -3"),
        (["approx-prob", "--graph", "G", "--vertex", "2", "--boundary", "B", "--activity", "1.0",
          "--eps-target", "1e-4", "--max-depth", "-5"], "max_depth must be >= 1, got -5"),
        (["approx-prob", "--graph", "G", "--vertex", "2", "--boundary", "B", "--activity", "1.0",
          "--eps-target", "1e-4", "--max-depth", "0"], "max_depth must be >= 1, got 0"),
        (["ssm-scan", "--family", "path", "--params", '{"n": 5}', "--activity", "0.5",
          "--max-distance", "0"], "max_distance must be >= 1, got 0"),
        (["ssm-scan", "--family", "path", "--params", '{"n": 5}', "--activity", "-1",
          "--trials", "-5", "--output", "json"], "trials must be >= 1, got -5"),
        (["ssm-scan", "--family", "path", "--params", '{"n": 5}', "--activity", "0.5",
          "--trials", "0"], "trials must be >= 1, got 0"),
        (["ssm-scan", "--family", "path", "--params", '{"n": 5}', "--activity", "0.5",
          "--max-distance", str(2**63)], f"max_distance must be <= {2**63 - 1}, got {2**63}"),
    ],
    ids=["hom-check --samples -3", "approx-prob --max-depth -5", "approx-prob --max-depth 0",
         "ssm-scan --max-distance 0", "ssm-scan --trials -5", "ssm-scan --trials 0",
         "ssm-scan --max-distance 2^63"],
)
def test_bad_count_is_usage_error_naming_it(files, capsys, argv, message):
    paths = {"G": files("g.txt", P3), "B": files("b.txt", "0 1\n"),
             "M": files("m.json", "[[1.05, 1], [1, 1.05]]")}
    assert main([paths.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["exact-z", "--graph", "G", "--activity", "1"],
        ["approx-prob", "--graph", "G", "--vertex", "750", "--boundary", "B", "--activity", "1",
         "--eps-target", "1e-6", "--output", "json"],
    ],
    ids=["exact-z", "approx-prob"],
)
def test_a_value_past_the_float64_range_is_one_error_line(files, capsys, argv):
    # the coefficients of Z(P1500) pass 2^1024; this was an OverflowError
    # traceback
    p1500 = "1500\n" + "".join(f"{u} {u + 1}\n" for u in range(1499))
    paths = {"G": files("g.txt", p1500), "B": files("b.txt", "")}
    assert main([paths.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "beyond the float64 range" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ratio-scan", "--family", "path", "--params", '{"n": 3}', "--activities", "nan"],
         "activity must be finite, got (nan+0j)"),
        (["ratio-scan", "--family", "path", "--params", '{"n": 3}', "--activities", "0.5,inf"],
         "activity must be finite, got (inf+0j)"),
        (["hom-prob", "--graph", "G", "--vertex", "0", "--color", "0", "--matrix", "M", "--z", "nan"],
         "z must be finite, got (nan+0j)"),
        (["zero-scan", "--graph", "G", "--rect=-inf,0,-1,1"], "rect re_min must be finite, got -inf"),
        (["zero-scan", "--graph", "G", "--rect=-1,0,-1,inf"], "rect im_max must be finite, got inf"),
        (["exact-z", "--graph", "G", "--activity", "nan"], "activity must be finite, got (nan+0j)"),
    ],
    ids=["ratio-scan-nan", "ratio-scan-inf", "hom-prob", "zero-scan-re_min", "zero-scan-im_max", "exact-z"],
)
def test_a_non_finite_input_is_one_error_line_naming_it(files, capsys, argv, message):
    # these exited 0 with NaN or a clean sweep, warned and failed on a NaN
    # cast, or blamed the float64 range
    paths = {"G": files("g.txt", P3), "M": files("m.json", "[[2, 1], [1, 1]]")}
    assert main([paths.get(a, a) for a in argv + ["--output", "json"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_negative_seed_is_usage_error_naming_it(capsys):
    argv = ["ssm-scan", "--family", "path", "--params", '{"n": 5}', "--activity", "0.5",
            "--seed", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("eps_region", ["-1", "0"])
def test_bad_eps_region_names_the_flag(files, capsys, eps_region):
    g = files("g.txt", P3)
    b = files("b.txt", "0 1\n")
    argv = ["approx-prob", "--graph", g, "--vertex", "2", "--boundary", b, "--activity", "1.0",
            "--eps-target", "1e-4", "--eps-region", eps_region]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --eps-region must be positive, got {float(eps_region)}\n"


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--eps-region", "inf", "--eps-region inf: eps must be positive and finite, got inf"),
        ("--eps-region", "0.02", "--eps-region 0.02: eps = 0.02 gives r = 1.0 in float64; need r > 1"),
        ("--eps-target", "inf", "error target must be positive and finite, got inf"),
    ],
)
def test_a_degenerate_region_or_target_is_usage_error(files, capsys, flag, value, message):
    # the region once ended in a ZeroDivisionError traceback and the target
    # in "error: math domain error"
    g = files("g.txt", P3)
    b = files("b.txt", "")
    argv = ["approx-prob", "--graph", g, "--vertex", "1", "--boundary", b, "--activity", "0.5",
            "--eps-target", "1e-4", flag, value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_an_error_target_below_the_float64_floor_is_usage_error(files, capsys):
    g = files("g.txt", "3\n0 1\n")
    b = files("b.txt", "")
    argv = ["approx-prob", "--graph", g, "--vertex", "0", "--boundary", b, "--activity", "0.5",
            "--eps-target", "1e-300", "--max-depth", "1000000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: error target 1e-300 is below the float64 floor 2.22e-16\n"


def test_importing_the_package_loads_neither_scipy_nor_sympy():
    # sympy is imported lazily where it is needed; scipy alone more than
    # doubles the resident memory of a run
    code = (
        "import sys, zeromix, zeromix.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'sympy')))"
    )
    # the child imports the same copy of the package as this process
    src = os.path.dirname(os.path.dirname(zeromix.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"


# public names that nothing inside the package calls, and why each stays
KEPT_WITHOUT_A_CALLER = {
    "format_graph": "the bench writes its graph files with it",
    "hom_Z_poly": "the bench calls it",
    "hom_ssm_experiment": "the bench calls it",
    "cond_prob_hardcore": "the exact probability that approx_cond_prob is certified against",
    "logZ_series": "the paper's own formula, kept against the fast routes",
    "hom_Z_via_polymers": "the paper's own formula, kept against the fast routes",
    "shearer_radius": "ROADMAP item 10 gives it a caller",
    "weitz_lambda_c": "ROADMAP item 6 gives it a caller",
    "gap_bound_hardcore": "ROADMAP item 3 gives it a caller",
}


def _names_read_in_the_package():
    """Every name the package's modules but __init__ read, each outside its
    own definition."""
    read = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in inside:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in pathlib.Path(zeromix.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return read


def test_every_public_name_has_a_caller_or_a_reason():
    read = _names_read_in_the_package()
    public = {n for n in zeromix.__all__ if not isinstance(getattr(zeromix, n), types.ModuleType)}
    uncalled = public - read
    assert uncalled - set(KEPT_WITHOUT_A_CALLER) == set()
    # and the list holds no name that is gone or has found a caller
    assert set(KEPT_WITHOUT_A_CALLER) <= uncalled


@pytest.mark.parametrize(
    "argv",
    [
        ["ssm-scan", "--family", "path", "--params", '{"n": 4}', "--activity", "0.5", "--trials", "3"],
        ["ratio-scan", "--family", "path", "--params", '{"n": 4}', "--activities", "0.5"],
        ["hom-check", "--mode", "zero", "--graph", "G", "--matrix", "M", "--samples", "2"],
    ],
    ids=["ssm-scan", "ratio-scan", "hom-check"],
)
def test_the_commands_that_draw_take_a_seed(files, capsys, argv):
    paths = {"G": files("g.txt", P3), "M": files("m.json", "[[1.0, 0.9], [0.9, 1.0]]")}
    argv = [paths.get(a, a) for a in argv]
    first = run(capsys, argv + ["--seed", "3"])
    assert first[0] == 0
    assert run(capsys, argv + ["--seed", "3"]) == first


def test_a_command_that_draws_nothing_refuses_a_seed(files, capsys):
    g = files("g.txt", P3)
    assert main(["exact-z", "--graph", g, "--activity", "1", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --seed 1\n")


# "inf" and "1e400" once made approx-prob exit 2, as if every strip disk held
# a zero, and ssm-scan exit 0 with "gap": NaN, which is not JSON
@pytest.mark.parametrize("activity", ["0", "-1", "inf", "1e400"])
def test_nonpositive_activity_is_usage_error(files, capsys, activity):
    g = files("g.txt", P3)
    b = files("b.txt", "0 1\n")
    argv = ["approx-prob", "--graph", g, "--vertex", "2", "--boundary", b, "--activity", activity,
            "--eps-target", "1e-4", "--eps-region", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: activity must be a positive real, got {float(activity)}\n"


@pytest.mark.parametrize("activity", ["0", "-1", "inf", "1e400"])
def test_ssm_scan_nonpositive_activity_is_usage_error(capsys, activity):
    argv = ["ssm-scan", "--family", "path", "--params", '{"n": 5}', "--activity", activity,
            "--output", "json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: activity must be a positive real, got {float(activity)}\n"


@pytest.mark.parametrize(
    "params, message",
    [('{"sizes": []}', "no graphs to scan"), ('{"sizes": [3, 0]}', "graph path-1 has no vertex to scan")],
    ids=["no graphs", "a graph with no vertex"],
)
def test_ssm_scan_with_nothing_to_draw_is_an_error_naming_it(capsys, params, message):
    assert main(["ssm-scan", "--family", "path", "--params", params, "--activity", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_exact_z_has_no_vertex_cap(files, capsys):
    # Z(P_n, 1) is the Fibonacci number F(n + 2), and F(47) = 2971215073
    g = files("g.txt", "45\n" + "".join(f"{k} {k + 1}\n" for k in range(44)))
    code, out = run(capsys, ["exact-z", "--graph", g, "--activity", "1", "--output", "json"])
    assert code == 0
    assert json.loads(out)["Z"] == [2971215073.0, 0.0]


# (argv, exit code, CSV header, JSON top-level keys) for every command; a
# (name, text) pair in argv stands for a file holding the text
SCHEMAS = [
    (
        ["exact-z", "--graph", ("g", K2), "--activity", "1"],
        0,
        "activity_re,activity_im,Z_re,Z_im",
        ["vertices", "activity", "Z"],
    ),
    (
        ["ratio-series", "--graph", ("g", P3), "--vertex", "1", "--order", "3"],
        0,
        "k,re,im",
        ["vertex", "order", "method", "coefficients"],
    ),
    (
        ["approx-prob", "--graph", ("g", P3), "--vertex", "2", "--boundary", ("b", "0 1\n"),
         "--activity", "1.0", "--eps-target", "1e-4"],
        0,
        "value,error_bound,depth_used,bound_M,rate_r",
        ["value", "errorBound", "depthUsed", "boundM", "rateR"],
    ),
    (
        ["ssm-scan", "--family", "path", "--params", '{"n": 8}', "--activity", "1.0",
         "--trials", "12", "--max-distance", "3"],
        0,
        "graph_id,vertex,distance,gap",
        ["records", "fit"],
    ),
    (
        ["zero-scan", "--graph", ("g", K1), "--rect=-1.37,-0.61,-0.41,0.39", "--resolution", "2"],
        0,
        "i,j,count",
        ["rect", "resolution", "counts", "total", "inconclusive", "min_abs_Z"],
    ),
    (
        ["roots", "--graph", ("g", C5)],
        0,
        "re,im",
        ["roots", "all_real_negative", "max_imag_residual"],
    ),
    (
        ["ratio-scan", "--family", "path", "--params", '{"n": 1}', "--activities", "-1"],
        2,
        "kind,graph_id,vertex,activity_re,activity_im",
        ["max_abs_ratio", "witness", "n_evaluations", "violations"],
    ),
    (
        ["hom-prob", "--graph", ("g", K2), "--vertex", "0", "--color", "0",
         "--matrix", ("m", "[[2, 1], [1, 1]]")],
        0,
        "ratio_re,ratio_im",
        ["vertex", "color", "z", "ratio"],
    ),
    (
        ["hom-series", "--graph", ("g", K2), "--vertex", "0", "--color", "1",
         "--matrix", ("m", "[[1, 1], [1, 2]]"), "--order", "3"],
        0,
        "k,re,im",
        ["vertex", "order", "method", "coefficients"],
    ),
    (
        ["hom-check", "--mode", "zero", "--graph", ("g", P3),
         "--matrix", ("m", "[[1.05, 1], [1, 1.05]]")],
        0,
        "mode,delta,max_deviation,hypothesis_ok,abs_Z,zero_free,edge_samples,min_edge_abs_Z",
        ["mode", "delta", "max_deviation", "hypothesis_ok", "abs_Z", "zero_free",
         "edge_samples", "min_edge_abs_Z"],
    ),
    (
        ["hom-check", "--mode", "bounded", "--graph", ("g", "4\n0 1\n1 2\n2 3\n"),
         "--matrix", ("m", "[[1.005, 1], [1, 1.005]]"), "--boundary", ("b", "3 1\n"),
         "--vertex", "0", "--color", "0", "--eps", "0.5", "--samples", "8"],
        0,
        "mode,delta,box_limit,max_deviation,hypothesis_ok,ratio_cap,max_abs_ratio,"
        "n_violations,max_identity_residual",
        ["mode", "delta", "box_limit", "max_deviation", "hypothesis_ok", "ratio_cap",
         "max_abs_ratio", "n_violations", "max_identity_residual"],
    ),
]


@pytest.mark.parametrize(
    "argv, code, header, keys",
    SCHEMAS,
    ids=[argv[0] + (f"-{argv[2]}" if argv[0] == "hom-check" else "") for argv, *_ in SCHEMAS],
)
def test_output_schema(files, capsys, argv, code, header, keys):
    argv = [files(*a) if isinstance(a, tuple) else a for a in argv]
    got_code, out = run(capsys, argv)
    assert got_code == code
    assert out.splitlines()[0] == header
    got_code, out = run(capsys, argv + ["--output", "json"])
    assert got_code == code
    assert list(json.loads(out)) == keys
