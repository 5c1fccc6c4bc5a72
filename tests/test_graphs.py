import math

import numpy as np
import pytest

from zeromix import (
    BoundaryError,
    GraphParseError,
    HardcoreBoundary,
    SpinBoundary,
    ball,
    cycle_graph,
    dist_to_disagreement,
    format_graph,
    from_edges,
    grid_graph,
    is_claw_free,
    parse_graph,
    path_graph,
)
from zeromix.exact import _ind_poly_cached
from zeromix.graphs import _all_vertices, _ball_mask, _bfs, _hardcore_keep
from helpers import random_graph


def test_parse_single_edge():
    g = parse_graph("2\n0 1\n")
    assert g.n == 2
    assert g.edges() == [(0, 1)]


def test_parse_isolated_vertex():
    g = parse_graph("1\n")
    assert g.n == 1
    assert g.edges() == []


def test_parse_collapses_duplicate_edges():
    g = parse_graph("3\n0 1\n1 2\n1 0\n")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_skips_blank_lines():
    g = parse_graph("\n3\n\n0 1\n\n1 2\n")
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_errors_name_the_line():
    with pytest.raises(GraphParseError) as e:
        parse_graph("3\n0 1\n0 7\n")
    assert e.value.line == 3
    with pytest.raises(GraphParseError) as e:
        parse_graph("3\n1 1\n")
    assert e.value.line == 2
    with pytest.raises(GraphParseError):
        parse_graph("")
    with pytest.raises(GraphParseError):
        parse_graph("2\n0 1 2\n")
    with pytest.raises(GraphParseError):
        parse_graph("x\n")


def test_format_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 9)))
        assert parse_graph(format_graph(g)) == g


def test_from_edges_validation():
    with pytest.raises(GraphParseError):
        from_edges(2, [(0, 2)])
    with pytest.raises(GraphParseError):
        from_edges(2, [(1, 1)])
    with pytest.raises(GraphParseError):
        from_edges(-1, [])


def test_degrees_and_neighbors():
    g = from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert g.degree(1) == 3
    assert g.degree(0) == 1
    assert g.max_degree() == 3
    assert g.adj[1] == (0, 2, 3)
    assert 1 in g.adj[3]
    assert 2 not in g.adj[0]
    assert g.num_edges() == 3


def test_bfs_and_ball_on_path():
    g = path_graph(3)
    assert _bfs(g, 0, _all_vertices(g)) == {0: 0, 1: 1, 2: 2}
    assert ball(g, 0, 1) == {0, 1}
    assert ball(g, 0, 5) == {0, 1, 2}


def test_ball_on_cycle():
    g = cycle_graph(4)
    assert ball(g, 0, 1) == {0, 1, 3}


def test_bfs_unreachable_is_inf():
    g = from_edges(3, [(0, 1)])
    assert 2 not in _bfs(g, 0, _all_vertices(g))
    s, t = HardcoreBoundary({2: 1}), HardcoreBoundary({2: 0})
    assert dist_to_disagreement(g, 0, s, t) == math.inf


def test_connected_components():
    # with no radius the walk spans v's component, the cut approx_cond_prob makes
    g = from_edges(6, [(0, 1), (2, 3), (3, 4)])
    comps = {_ball_mask(g, v, _all_vertices(g)) for v in range(6)}
    assert comps == {0b11, 0b11100, 0b100000}


SPIN_PAIR = (SpinBoundary({5: 0}, q=2), SpinBoundary({5: 1}, q=2))


@pytest.mark.parametrize("source", [-1, 6])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, v: ball(g, v, 1),
        lambda g, v: dist_to_disagreement(g, v, *SPIN_PAIR),
        lambda g, v: dist_to_disagreement(g, v, SPIN_PAIR[0], SPIN_PAIR[0]),
        lambda g, v: _bfs(g, v, _all_vertices(g)),
    ],
    ids=["ball", "dist_to_disagreement", "dist_to_agreement", "_bfs"],
)
def test_out_of_range_source_is_rejected(call, source):
    # -1 read distances from vertex n - 1, and ball(g, -1, 1) held -1
    with pytest.raises(ValueError, match=f"^vertex {source} not in graph with n=6$"):
        call(grid_graph(2, 3), source)


def test_bfs_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="^radius must be >= 0, got -1$"):
        ball(path_graph(3), 0, -1)


def test_hardcore_boundary_validation():
    g = path_graph(3)
    HardcoreBoundary({0: 1, 2: 1}).validate(g)
    with pytest.raises(BoundaryError):
        HardcoreBoundary({0: 1, 1: 1}).validate(g)  # adjacent in-vertices
    with pytest.raises(BoundaryError):
        HardcoreBoundary({0: 2})
    with pytest.raises(BoundaryError):
        HardcoreBoundary({5: 1}).validate(g)


def _kept(g, sigma):
    """The vertices the occupancy boundary sigma leaves free in g."""
    keep = _hardcore_keep(g, *sigma._masks())
    return [u for u in range(g.n) if keep >> u & 1]


def test_apply_boundary_in_vertex_blocks_neighbor():
    assert _kept(path_graph(3), HardcoreBoundary({0: 1})) == [2]


def test_apply_boundary_out_vertex_only_removes_itself():
    assert _kept(path_graph(3), HardcoreBoundary({0: 0})) == [1, 2]


def test_apply_boundary_can_empty_the_graph():
    assert _kept(cycle_graph(4), HardcoreBoundary({0: 1, 2: 1})) == []


def test_dist_to_disagreement():
    g = path_graph(4)
    s = HardcoreBoundary({3: 1})
    t = HardcoreBoundary({3: 0})
    assert dist_to_disagreement(g, 0, s, t) == 3
    assert dist_to_disagreement(g, 0, s, s) == math.inf


def test_dist_to_disagreement_star():
    g = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    s = HardcoreBoundary({1: 0, 2: 0})
    t = HardcoreBoundary({1: 1, 2: 0})
    assert dist_to_disagreement(g, 0, s, t) == 1


def test_dist_to_disagreement_rejects_a_region_outside_the_graph():
    g = path_graph(4)
    with pytest.raises(BoundaryError, match="^boundary vertex 9 not in graph with n=4$"):
        dist_to_disagreement(g, 0, HardcoreBoundary({9: 1}), HardcoreBoundary({9: 0}))


def test_dist_to_disagreement_region_mismatch():
    g = path_graph(4)
    with pytest.raises(BoundaryError):
        dist_to_disagreement(g, 0, HardcoreBoundary({3: 1}), HardcoreBoundary({2: 1}))


def test_spin_boundary():
    b = SpinBoundary({0: 1}, q=3)
    assert b.region == frozenset({0})
    with pytest.raises(BoundaryError):
        SpinBoundary({0: 3}, q=3)
    with pytest.raises(BoundaryError):
        SpinBoundary({}, q=0)


def test_claw_free_detection():
    claw = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ok, witness = is_claw_free(claw)
    assert not ok
    center, leaves = witness
    assert center == 0 and sorted(leaves) == [1, 2, 3]
    for g in (path_graph(6), cycle_graph(5), cycle_graph(8)):
        ok, witness = is_claw_free(g)
        assert ok and witness is None


def test_line_graph_of_petersen_is_claw_free():
    import networkx as nx

    lg = nx.line_graph(nx.petersen_graph())
    nodes = sorted(lg.nodes())
    idx = {u: k for k, u in enumerate(nodes)}
    g = from_edges(len(nodes), [(idx[a], idx[b]) for a, b in lg.edges()])
    ok, _ = is_claw_free(g)
    assert ok


def test_equal_graphs_built_apart_hash_alike_and_share_a_cache_entry():
    g = grid_graph(5, 5)
    h = from_edges(25, reversed(g.edges()))
    assert g is not h and g == h
    assert hash(g) == hash(h) == hash((g.n, g.adj))
    _ind_poly_cached.cache_clear()
    assert _ind_poly_cached(g, _all_vertices(g)) == _ind_poly_cached(h, _all_vertices(h))
    info = _ind_poly_cached.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
