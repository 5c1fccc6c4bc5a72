import networkx as nx
import pytest

from zeromix import (
    FAMILY_KINDS,
    cycle_graph,
    generate_family,
    grid_graph,
    is_claw_free,
    line_graph_of_random_regular,
    path_graph,
    random_regular_graph,
)


def test_path_shape():
    g = path_graph(5)
    assert g.n == 5
    assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert path_graph(1).num_edges() == 0


def test_cycle_shape():
    g = cycle_graph(5)
    assert g.n == 5
    assert g.num_edges() == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_grid_shape():
    g = grid_graph(3, 4)
    assert g.n == 12
    # rows*(cols-1) + cols*(rows-1)
    assert g.num_edges() == 3 * 3 + 4 * 2
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs[0] == 2 and degs[-1] <= 4


def test_random_regular_degrees():
    g = random_regular_graph(3, 12, seed=0)
    assert g.n == 12
    assert all(g.degree(v) == 3 for v in range(12))


def test_random_regular_seed_determinism():
    a = random_regular_graph(3, 14, seed=5)
    b = random_regular_graph(3, 14, seed=5)
    c = random_regular_graph(3, 14, seed=6)
    assert a.edges() == b.edges()
    assert a.edges() != c.edges()  # overwhelmingly likely


def test_random_regular_rejects_odd_product():
    with pytest.raises(nx.NetworkXError):
        random_regular_graph(3, 7, seed=0)


def test_line_graph_of_cubic():
    g = line_graph_of_random_regular(3, 10, seed=1)
    # 3n/2 edges in the base graph become vertices here
    assert g.n == 15
    assert all(g.degree(v) == 4 for v in range(g.n))
    assert is_claw_free(g) == (True, None)


def test_generate_family_kinds():
    assert set(FAMILY_KINDS) == {
        "path",
        "cycle",
        "grid",
        "random_regular",
        "line_graph_of_random_regular",
    }
    (p,) = generate_family("path", {"n": 4})
    assert p.edges() == path_graph(4).edges()
    assert generate_family("path", {"sizes": [3, 5]})[1].n == 5
    (c,) = generate_family("cycle", {"n": 6})
    assert c.num_edges() == 6
    (gr,) = generate_family("grid", {"rows": 2, "cols": 3})
    assert gr.n == 6
    rrs = generate_family("random_regular", {"degree": 3, "n": 10, "count": 2}, seed=2)
    assert len(rrs) == 2
    assert rrs[0].edges() == random_regular_graph(3, 10, seed=2).edges()
    assert rrs[1].edges() == random_regular_graph(3, 10, seed=3).edges()
    (lg,) = generate_family("line_graph_of_random_regular", {"degree": 3, "n": 10}, seed=2)
    assert lg.n == 15


def test_generate_family_unknown_kind():
    with pytest.raises(ValueError):
        generate_family("torus", {"n": 4})


# (kind, params, the key the error names)
BAD_PARAMS = [
    ("path", {"m": 3}, "'n'"),
    ("grid", {"rows": 3}, "'cols'"),
    ("path", [3], "JSON object"),
    ("path", {"n": "3"}, "'n'"),
    ("grid", {"rows": 2, "cols": 2.5}, "'cols'"),
    ("grid", {"rows": 2, "sizes": [3]}, "'cols'"),
]


@pytest.mark.parametrize("kind,params,key", BAD_PARAMS)
def test_generate_family_rejects_bad_params(kind, params, key):
    with pytest.raises(ValueError) as exc:
        generate_family(kind, params)
    msg = str(exc.value)
    assert msg.startswith(f"{kind} family: ")
    assert key in msg
    assert msg.endswith("accepted keys: n, sizes" if kind == "path" else "accepted keys: rows, cols")
