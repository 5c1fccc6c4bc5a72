import math
import re
import tracemalloc

import numpy as np
import pytest

from zeromix import (
    HypothesisViolationError,
    clawfree_root_check,
    cond_prob_hardcore,
    cycle_graph,
    dist_to_disagreement,
    from_edges,
    grid_graph,
    line_graph_of_random_regular,
    path_graph,
    ratio_bound_scan,
    shearer_radius,
    ssm_scan,
    zero_scan,
)
from zeromix import harness
from zeromix.harness import GAP_FLOOR, MIN_RECORDS_PER_DISTANCE, SSMRecord
from helpers import disjoint_union, per_cell_zero_scan, per_trial_ssm_records

K2 = from_edges(2, [(0, 1)])
K1 = from_edges(1, [])
STAR = from_edges(4, [(0, 1), (0, 2), (0, 3)])


def test_ssm_scan_deterministic():
    g = path_graph(9)
    a, fit_a = ssm_scan([g], 0.8, trials=40, max_distance=4, seed=11)
    b, fit_b = ssm_scan([g], 0.8, trials=40, max_distance=4, seed=11)
    assert a == b
    assert fit_a == fit_b
    c, _ = ssm_scan([g], 0.8, trials=40, max_distance=4, seed=12)
    assert a != c


def test_ssm_records_recompute_exactly():
    # each record matches the public route: both boundaries fit the graph,
    # the gap is the exact conditional-probability difference and the
    # distance is the disagreement distance
    graphs = [
        path_graph(10),
        grid_graph(4, 4),
        grid_graph(3, 5),
        cycle_graph(9),
        line_graph_of_random_regular(3, 12),
    ]
    records, _ = ssm_scan(
        graphs, 1.0, trials=150, max_distance=4, seed=3, collect_boundaries=True
    )
    assert {rec.graph_id for rec in records} == {f"g{k}" for k in range(len(graphs))}
    blocked = 0
    for rec in records:
        g = graphs[int(rec.graph_id[1:])]
        rec.sigma.validate(g)
        rec.tau.validate(g)
        want = abs(
            cond_prob_hardcore(g, rec.vertex, rec.sigma, 1.0)
            - cond_prob_hardcore(g, rec.vertex, rec.tau, 1.0)
        )
        assert rec.gap == want
        assert rec.distance == dist_to_disagreement(g, rec.vertex, rec.sigma, rec.tau)
        ins = rec.sigma.in_vertices() | rec.tau.in_vertices()
        blocked += rec.distance == 1 and bool(ins & set(g.adj[rec.vertex]))
    # distance-1 trials where an in-vertex blocks v are among them
    assert blocked


# (vertex, distance, repr(gap)) of ssm_scan([g], 1.0, 40, 3, seed=17): pins
# how the trials consume the three streams spawned from SeedSequence(17),
# which comparing a scan with itself cannot catch
GOLDEN_GRID_4X4 = [
    (14, 2, "0.0"), (11, 1, "0.0"), (13, 2, "0.3"), (8, 1, "0.0"),
    (14, 2, "0.3888888888888889"), (1, 1, "0.0"), (8, 3, "0.09941520467836257"),
    (12, 3, "0.0"), (4, 2, "0.16666666666666669"), (12, 2, "0.0"),
    (3, 3, "0.18095238095238092"), (0, 3, "0.08571428571428569"), (7, 2, "0.0"),
    (12, 1, "0.5"), (7, 3, "0.023809523809523808"), (13, 2, "0.16666666666666669"),
    (1, 2, "0.3888888888888889"), (2, 3, "0.14102564102564105"),
    (11, 3, "0.0888888888888889"), (1, 2, "0.16666666666666669"), (9, 3, "0.0"),
    (0, 2, "0.0"), (1, 2, "0.1333333333333333"), (4, 3, "0.09941520467836257"),
    (2, 1, "0.0"), (1, 1, "0.0"), (4, 1, "0.0"), (1, 3, "0.0888888888888889"),
    (6, 3, "0.09956709956709955"), (5, 2, "0.3"), (13, 2, "0.3"), (2, 1, "0.0"),
    (5, 2, "0.3"), (0, 1, "0.5"), (5, 1, "0.0"), (14, 1, "0.0"), (12, 1, "0.0"),
    (7, 3, "0.14102564102564105"), (3, 1, "0.0"), (13, 3, "0.0"),
]
GOLDEN_CUBIC_LINE_12 = [
    (16, 2, "0.1333333333333333"), (13, 1, "0.0"), (15, 2, "0.19047619047619047"),
    (9, 1, "0.0"), (16, 2, "0.0"), (1, 1, "0.0"), (9, 3, "0.05522914218566391"),
    (14, 3, "0.0024844720496894346"), (4, 2, "0.16666666666666669"),
    (13, 2, "0.35714285714285715"), (3, 3, "0.10990990990990993"),
    (0, 3, "0.016470588235294126"), (8, 2, "0.19047619047619047"), (13, 1, "0.0"),
    (8, 3, "0.030772065597936243"), (15, 2, "0.04999999999999999"), (1, 2, "0.4"),
    (3, 3, "0.0380952380952381"), (13, 3, "0.09375"), (1, 2, "0.0"),
    (11, 3, "0.006892230576441116"), (0, 2, "0.19047619047619047"),
    (1, 2, "0.08333333333333331"), (4, 3, "0.05034013605442178"), (2, 1, "0.0"),
    (1, 1, "0.0"), (4, 1, "0.0"), (2, 3, "0.0038461538461538602"),
    (7, 3, "0.023809523809523808"), (6, 2, "0.0"), (15, 2, "0.1333333333333333"),
    (2, 1, "0.0"), (6, 2, "0.1333333333333333"), (0, 1, "0.0"), (6, 1, "0.0"),
    (16, 1, "0.0"), (13, 1, "0.0"), (8, 3, "0.10987654320987653"), (4, 1, "0.0"),
    (15, 3, "0.04714016341923319"),
]


@pytest.mark.parametrize(
    "g, want",
    [
        (grid_graph(4, 4), GOLDEN_GRID_4X4),
        (line_graph_of_random_regular(3, 12, seed=0), GOLDEN_CUBIC_LINE_12),
    ],
    ids=["grid 4x4", "cubic line graph n=12"],
)
def test_ssm_scan_golden_records(g, want):
    records, _ = ssm_scan([g], 1.0, 40, 3, seed=17)
    assert [(rec.vertex, rec.distance, repr(rec.gap)) for rec in records] == want
    direct, _ = per_trial_ssm_records([g], 1.0, 40, 3, 17)
    assert [(rec.vertex, rec.distance, repr(rec.gap)) for rec in direct] == want


# a disconnected graph; a path; the 4x4 grid, whose spheres past distance 4
# are empty around its inner vertices; the 12-vertex cubic line graph
PER_TRIAL_CASES = [
    ([disjoint_union(path_graph(4), cycle_graph(5))], 3),
    ([path_graph(10)], 4),
    ([grid_graph(4, 4)], 5),
    ([line_graph_of_random_regular(3, 12, seed=0)], 3),
]


@pytest.mark.parametrize(
    "graphs, max_distance", PER_TRIAL_CASES, ids=["disconnected", "path 10", "grid 4x4", "cubic line graph n=12"]
)
def test_ssm_scan_matches_the_per_trial_route(graphs, max_distance):
    # the scan draws every vertex and distance in one pass each, reads the
    # in-set uniforms in blocks and conditions once per free ball; the
    # records and skipped trials must be those of scalar draws, one random
    # call per attempt and a whole-graph conditioning per draw.  Two
    # activities in a row: each call equals a fresh one
    blocking = 0
    for lam, seed in ((1.0, 5), (0.4, 2**64 + 5)):
        records, fit = ssm_scan(graphs, lam, 120, max_distance, seed=seed, collect_boundaries=True)
        want, skipped = per_trial_ssm_records(graphs, lam, 120, max_distance, seed)
        assert repr(records) == repr(want)
        assert fit is None or fit.n_skipped_trials == skipped
        for rec in records:
            ins = rec.sigma.in_vertices() | rec.tau.in_vertices()
            blocking += rec.distance == 1 and bool(ins & set(graphs[0].adj[rec.vertex]))
    # distance-1 draws that block v are among them
    assert blocking


def test_ssm_scan_records_are_prefix_stable_in_trials():
    # trial t's draws do not depend on the trial count, so the first records
    # of a longer run are a shorter run's, skipped trials included (the path
    # has no sphere at distance 4 around most vertices); without boundaries
    # the records are the same
    graphs = [path_graph(6), grid_graph(4, 4)]
    short, _ = ssm_scan(graphs, 1.0, 40, 4, seed=9, collect_boundaries=True)
    long, fit = ssm_scan(graphs, 1.0, 120, 4, seed=9, collect_boundaries=True)
    assert repr(long[: len(short)]) == repr(short)
    assert len(long) > len(short) and fit.n_skipped_trials > 0
    bare, _ = ssm_scan(graphs, 1.0, 120, 4, seed=9)
    assert bare == [SSMRecord(rec.graph_id, rec.vertex, rec.distance, rec.gap) for rec in long]


@pytest.mark.parametrize("block", [1, 3])
def test_ssm_scan_records_do_not_depend_on_the_uniform_block(monkeypatch, block):
    # the in-set uniforms are read in stream order, whatever the block the
    # scan draws them in; spheres of the 5x5 grid hold up to 8 vertices
    graphs = [grid_graph(5, 5)]
    want = ssm_scan(graphs, 1.0, 120, 4, seed=4, collect_boundaries=True)
    monkeypatch.setattr(harness, "_UNIFORM_BLOCK", block)
    assert repr(ssm_scan(graphs, 1.0, 120, 4, seed=4, collect_boundaries=True)) == repr(want)


def test_ssm_scan_draws_each_vertex_below_its_own_graph_size():
    # the vertex draw runs over each trial's graph size, round robin: the
    # 3-vertex path never gets a grid vertex, and the grid gets vertices
    # past 2
    graphs = [path_graph(3), grid_graph(5, 5)]
    records, _ = ssm_scan(graphs, 1.0, 200, 2, seed=6, collect_boundaries=True)
    for k, g in enumerate(graphs):
        drawn = {rec.vertex for rec in records if rec.graph_id == f"g{k}"}
        assert drawn and max(drawn) < g.n
    assert max(rec.vertex for rec in records) >= 3
    want, _ = per_trial_ssm_records(graphs, 1.0, 200, 2, 6)
    assert repr(records) == repr(want)


def test_ssm_scan_builds_no_sphere_past_the_last_one():
    # spheres stop at v's eccentricity, so a huge max_distance builds no
    # layer per distance (it once took seconds and hundreds of MiB); a drawn
    # distance past the last sphere is an empty sphere and its trial skipped
    g = path_graph(5)
    for v, eccentricity in ((0, 4), (2, 2)):
        assert len(harness._spheres(g, v, 10**6)) == eccentricity + 1
        assert harness._spheres(g, v, 10**6) == harness._spheres(g, v, eccentricity)
    assert len(harness._spheres(g, 0, 2)) == 3
    assert ssm_scan([g], 0.5, 3, 10**6, seed=1) == ([], None)
    assert per_trial_ssm_records([g], 0.5, 3, 10**6, 1) == ([], 3)


def test_scans_run_on_the_10x10_grid():
    g = grid_graph(10, 10)
    records, fit = ssm_scan([g], 1.0, 20, 4, seed=1)
    assert len(records) == 20
    assert fit is not None
    rep = zero_scan(g, (0.1, 1.0, -0.5, 0.5), 4)
    assert rep.total == 0
    assert rep.inconclusive == ()


def test_ssm_scan_skips_unreachable_distances():
    records, fit = ssm_scan([K2], 0.5, trials=20, max_distance=5, seed=0)
    # only distance 1 exists on K2, so no fit is possible
    assert fit is None
    assert all(rec.distance == 1 for rec in records)


def test_ssm_fit_decay_on_path():
    g = path_graph(14)
    records, fit = ssm_scan([g], 1.0, trials=400, max_distance=6, seed=7)
    assert fit is not None
    assert fit.r > 1.0
    means = list(fit.mean_gap_by_distance.values())
    assert all(a > b for a, b in zip(means, means[1:]))
    assert fit.n_records == len(records)
    # cover_C dominates every fitted record
    kept = set(fit.mean_gap_by_distance)
    for rec in records:
        if rec.gap > GAP_FLOOR and rec.distance in kept:
            assert rec.gap <= fit.cover_C * fit.r ** -rec.distance * (1 + 1e-12)


def test_ssm_fit_matches_recomputation():
    g = path_graph(12)
    records, fit = ssm_scan([g], 0.9, trials=200, max_distance=5, seed=21)
    usable = [rec for rec in records if rec.gap > GAP_FLOOR]
    by_d = {}
    for rec in usable:
        by_d.setdefault(rec.distance, []).append(rec.gap)
    kept = {d for d, gaps in by_d.items() if len(gaps) >= MIN_RECORDS_PER_DISTANCE}
    pts = [(rec.distance, math.log(rec.gap)) for rec in usable if rec.distance in kept]
    slope, intercept = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)
    assert fit.r == pytest.approx(math.exp(-slope), rel=1e-12)
    assert fit.C == pytest.approx(math.exp(intercept), rel=1e-12)
    assert fit.n_fit == len(pts)


def test_zero_scan_k1():
    # Z = 1 + lam, single root at -1
    rep = zero_scan(K1, (-1.37, -0.61, -0.41, 0.39), 2)
    assert rep.total == 1
    assert rep.counts[0][1] == 1
    assert rep.inconclusive == ()
    assert rep.min_abs_Z > 0


def test_zero_scan_c4():
    # Z = 1 + 4 lam + 2 lam^2, roots -1 +/- 1/sqrt(2)
    rep = zero_scan(cycle_graph(4), (-1.93, -0.11, -0.37, 0.41), (2, 2))
    assert rep.total == 2
    assert rep.counts[0][0] == 1
    assert rep.counts[1][0] == 1


def test_zero_scan_partition_additivity():
    # im range chosen so no interior cell edge lands on the real axis,
    # where both roots of C5 live
    g = cycle_graph(5)
    rect = (-0.95, -0.05, -0.37, 0.43)
    coarse = zero_scan(g, rect, 1)
    fine = zero_scan(g, rect, (3, 2))
    assert coarse.total == fine.total == 2
    assert coarse.inconclusive == fine.inconclusive == ()
    assert fine.counts[0][0] == 1 and fine.counts[2][0] == 1


def test_zero_scan_flags_inconclusive_cells(monkeypatch):
    # an absurd tolerance forces every contour below it
    monkeypatch.setattr(harness, "CONTOUR_TOL", 1e9)
    monkeypatch.setattr(harness, "MAX_DOUBLINGS", 0)
    rep = zero_scan(K1, (-1.5, -0.5, -0.5, 0.5), 2)
    assert rep.total == 0
    assert len(rep.inconclusive) == 4
    assert all(c == -1 for row in rep.counts for c in row)


def test_zero_scan_exact_zero_on_a_contour():
    # the first midpoint of the bottom side of cell (0, 0) is exactly -1,
    # the zero of 1 + lam: that cell reads (None, 0.0), and its doublings
    # straddle the zero, so it never settles.  Cell (0, 1) shares its array
    # pass and must neither warn nor change
    rect = (-1.0078125, -0.0078125, 0.0, 1.0)
    rep = zero_scan(K1, rect, (1, 2))
    assert rep.counts == ((-1, 0),)
    assert rep.inconclusive == ((0, 0),)
    assert rep.min_abs_Z == 0.0
    assert repr(rep) == repr(per_cell_zero_scan(K1, rect, (1, 2)))


def test_zero_scan_memory_does_not_grow_with_the_resolution():
    # 10 000 cells: a doubling round is evaluated in blocks of at most 2^16
    # contour points, not in one array of all 2.56 million
    g = cycle_graph(5)
    tracemalloc.start()
    try:
        rep = zero_scan(g, (-1.4, -0.3, -0.5, 0.5), 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.counts) == 100 and all(len(row) == 100 for row in rep.counts)
    assert peak < 16 * 2**20


def test_zero_scan_validates_input():
    with pytest.raises(ValueError):
        zero_scan(K1, (0.5, -0.5, -0.5, 0.5), 2)
    with pytest.raises(ValueError):
        zero_scan(K1, (-0.5, 0.5, -0.5, 0.5), 0)


def test_zero_scan_shearer_square_is_clear():
    # inscribed square inside the degree-2 radius 1/4: no zeros for C5
    g = cycle_graph(5)
    s = 0.99 * shearer_radius(2) / math.sqrt(2)
    rep = zero_scan(g, (-s, s, -s, s), 2)
    assert rep.total == 0
    assert rep.inconclusive == ()
    # and the roots really are outside the open disk
    roots = clawfree_root_check(g).roots
    assert min(abs(z) for z in roots) >= shearer_radius(2)


def test_clawfree_roots_c5():
    rep = clawfree_root_check(cycle_graph(5))
    assert rep.all_real_negative
    assert rep.max_imag_residual <= 1e-7
    want = ((-5 - math.sqrt(5)) / 10, (-5 + math.sqrt(5)) / 10)
    assert rep.roots[0].real == pytest.approx(want[0], abs=1e-9)
    assert rep.roots[1].real == pytest.approx(want[1], abs=1e-9)
    # Vieta: product of the roots is a_0 / a_k = 1/5
    prod = 1.0
    for z in rep.roots:
        prod *= z
    assert abs(prod) == pytest.approx(0.2, rel=1e-6)


def test_clawfree_roots_k2():
    rep = clawfree_root_check(K2)
    assert rep.roots == (complex(-0.5),)
    assert rep.all_real_negative


def test_clawfree_verdict_is_exact():
    # np.roots leaves imaginary parts above 1e-7 on these real-rooted paths
    for n in (42, 45, 60):
        assert clawfree_root_check(path_graph(n)).all_real_negative is True
    # (1 + 2x)^2 has one distinct root of multiplicity two
    assert clawfree_root_check(from_edges(4, [(0, 1), (2, 3)])).all_real_negative is True


def test_clawfree_rejects_star():
    with pytest.raises(HypothesisViolationError) as e:
        clawfree_root_check(STAR)
    assert e.value.witness == (0, (1, 2, 3))


def test_ratio_bound_scan_frozen_max():
    rep = ratio_bound_scan([K2, path_graph(3)], [0.1, 0.5])
    assert rep.n_evaluations == 10
    assert rep.violations == ()
    # endpoint vertex of P3 at lam = 0.5: 0.5 * 1.5 / 2.75
    assert rep.max_abs_ratio == pytest.approx(3 / 11, rel=1e-12)
    gid, v, lam = rep.witness
    assert gid == "g1"
    assert v in (0, 2)
    assert lam == 0.5


def test_ratio_bound_scan_zero_partition_function():
    rep = ratio_bound_scan([K1], [-1.0], graph_ids=["k1"])
    kinds = [viol[0] for viol in rep.violations]
    assert kinds == ["zero_Z"]
    assert rep.violations[0][1] == "k1"


def test_ratio_bound_scan_at_zero_activity():
    rep = ratio_bound_scan([path_graph(3)], [0.0])
    assert rep.max_abs_ratio == 0.0
    assert rep.violations == ()


def test_ratio_bound_scan_checks_graph_ids():
    with pytest.raises(ValueError):
        ratio_bound_scan([path_graph(3), path_graph(4)], [0.5], graph_ids=["a"])


def test_scans_share_the_graph_ids_check():
    graphs = [path_graph(3), path_graph(4)]
    for scan in (
        lambda ids: ssm_scan(graphs, 0.5, 4, 2, graph_ids=ids),
        lambda ids: ratio_bound_scan(graphs, [0.5], graph_ids=ids),
    ):
        with pytest.raises(ValueError, match="^graph_ids must match graphs$"):
            scan(["a"])


@pytest.mark.parametrize(
    "scan",
    [lambda: ssm_scan([], 0.5, 4, 2), lambda: ratio_bound_scan([], [0.5])],
    ids=["ssm_scan", "ratio_bound_scan"],
)
def test_scans_refuse_an_empty_graph_list(scan):
    with pytest.raises(ValueError, match="^no graphs to scan$"):
        scan()


def test_ssm_scan_names_a_graph_with_no_vertex():
    # up front, before any trial draws a vertex from it
    with pytest.raises(ValueError, match="^graph g1 has no vertex to scan$"):
        ssm_scan([path_graph(3), from_edges(0, [])], 0.5, 4, 2)
    with pytest.raises(ValueError, match="^graph empty has no vertex to scan$"):
        ssm_scan([from_edges(0, [])], 0.5, 4, 2, graph_ids=["empty"])


@pytest.mark.parametrize("max_distance", [0, -2])
def test_ssm_scan_names_a_bad_max_distance(max_distance):
    with pytest.raises(ValueError, match=f"^max_distance must be >= 1, got {max_distance}$"):
        ssm_scan([path_graph(5)], 0.5, 4, max_distance)


@pytest.mark.parametrize("trials", [0, -5])
def test_ssm_scan_names_a_bad_trial_count(trials):
    with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
        ssm_scan([path_graph(5)], 0.5, trials, 2)


@pytest.mark.parametrize("seed", [None, "3", True, 1.5, -1], ids=["None", "str", "bool", "float", "negative"])
def test_ssm_scan_names_a_bad_seed(seed):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
        ssm_scan([path_graph(5)], 0.5, 4, 2, seed=seed)


@pytest.mark.parametrize(
    "name, value",
    [("trials", True), ("trials", 2.5), ("max_distance", True), ("max_distance", 2.5)],
    ids=["trials bool", "trials float", "max_distance bool", "max_distance float"],
)
def test_ssm_scan_names_a_non_integer_count(name, value):
    counts = {"trials": 4, "max_distance": 2, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        ssm_scan([path_graph(5)], 0.5, **counts)


def test_ssm_scan_takes_numpy_integers():
    got = ssm_scan([path_graph(6)], 1.0, np.int64(30), np.int64(3), seed=np.int64(4))
    assert repr(got) == repr(ssm_scan([path_graph(6)], 1.0, 30, 3, seed=4))


@pytest.mark.parametrize("lam", [0, -1.0, 0.5j])
def test_ssm_scan_rejects_a_bad_activity_up_front(lam):
    # before any trial runs, so a scan that draws no query still refuses it
    with pytest.raises(ValueError, match=f"^activity must be a positive real, got {re.escape(repr(lam))}$"):
        ssm_scan([K1], lam, 4, 2)


def test_scans_apply_no_vertex_cap():
    # graphs of 49 and 45 vertices: no scan applies a vertex cap
    records, fit = ssm_scan([grid_graph(7, 7)], 0.5, 50, 3, seed=1)
    assert len(records) == 50
    assert fit is not None
    big = path_graph(45)
    rep = zero_scan(big, (0.1, 1.0, 0.1, 1.0), 1)
    assert rep.total == 0 and rep.inconclusive == ()
    assert ratio_bound_scan([big], [0.5]).n_evaluations == 45
    assert clawfree_root_check(big).all_real_negative is True
