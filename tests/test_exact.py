import itertools
import math
import re
import time

import numpy as np
import pytest

from zeromix import (
    FloatRangeError,
    HardcoreBoundary,
    NearZeroDenominatorError,
    SpinBoundary,
    approx_cond_prob,
    cond_prob_hardcore,
    cycle_graph,
    edge_matrix_Z,
    eval_Z,
    eval_poly,
    from_edges,
    grid_graph,
    hom_Z,
    hom_Z_poly,
    hom_ratio,
    hom_ratio_series,
    ind_poly,
    multivariate_Z,
    path_graph,
    ratio_bound_scan,
    ratio_P,
    ratio_R,
    ratio_series_cluster,
    ratio_series_division,
    zero_scan,
)
from helpers import (
    binary_tree,
    binary_tree_root_occupation,
    brute_cond_prob,
    brute_hom_Z,
    brute_ind_poly,
    brute_multivariate_Z,
    brute_Z,
    disjoint_union,
    grid_transfer_hom_Z,
    grid_transfer_ind_poly,
    nx_induced,
    path_occupation,
    pinned_grid_centre,
    random_graph,
    tree_ind_poly,
)
from zeromix.exact import _frontier_width, _odds_polys, _sweep_order

J2 = [[1, 1], [1, 1]]


def test_ind_poly_hand_values():
    assert ind_poly(from_edges(1, [])).coeffs == (1, 1)
    assert ind_poly(from_edges(2, [(0, 1)])).coeffs == (1, 2)
    assert ind_poly(path_graph(3)).coeffs == (1, 3, 1)
    assert ind_poly(cycle_graph(4)).coeffs == (1, 4, 2)
    assert ind_poly(cycle_graph(5)).coeffs == (1, 5, 5)
    k4 = from_edges(4, [(u, w) for u in range(4) for w in range(u + 1, 4)])
    assert ind_poly(k4).coeffs == (1, 4)


def test_ind_poly_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(1, 10)), p=float(rng.uniform(0.1, 0.7)))
        assert ind_poly(g).coeffs == brute_ind_poly(g)


def test_ind_poly_coefficients_are_ints():
    g = grid_graph(3, 3)
    assert all(isinstance(c, int) for c in ind_poly(g).coeffs)


@pytest.mark.parametrize("side", [8, 10])
def test_ind_poly_large_grid_matches_transfer_matrix(side):
    assert ind_poly(grid_graph(side, side)).coeffs == grid_transfer_ind_poly(side, side)


def _spider(k):
    # root 0, middles 1..k, leaves k+1..2k
    return [0] * k + list(range(1, k + 1))


@pytest.mark.parametrize(
    "parents",
    [_spider(30), [(v - 1) // 2 for v in range(1, 127)], [v // 3 for v in range(150)]],
    ids=["spider-30", "binary-127", "ternary-151"],
)
def test_ind_poly_trees_match_rooted_recursion(parents):
    # breadth first puts every neighbor of a hub on the frontier at once;
    # the sweep must walk these trees in a narrow order
    g = from_edges(len(parents) + 1, [(u, v + 1) for v, u in enumerate(parents)])
    assert _frontier_width(g.adj, _sweep_order(g)) <= 12
    assert ind_poly(g).coeffs == tree_ind_poly(parents)
    lam = 0.3 + 0.1j
    assert multivariate_Z(g, [lam] * g.n) == pytest.approx(ind_poly(g)(lam), rel=1e-12)


def test_odds_polys_drop_the_cancelled_top_coefficient():
    # I(P3) = 1 + 3x + x^2 and x I(P3 - N[0]) = x + x^2: the top terms
    # cancel, and I(P3 - 0) = I(P2) = 1 + 2x has degree 1
    assert _odds_polys(path_graph(3), 0) == ((0, 1, 1), (1, 2))
    assert ratio_R(path_graph(3), 0, 0.5) == 0.5 * 1.5 / 2.0


def test_tree_ind_poly_spider_closed_form():
    # with the root empty each leg is a free edge, 1 + 2x; with it occupied
    # the middles are empty and the leaves free: (1 + 2x)^k + x (1 + x)^k
    k = 30
    want = [math.comb(k, i) * 2**i for i in range(k + 1)] + [0]
    for i in range(k + 1):
        want[i + 1] += math.comb(k, i)
    assert tree_ind_poly(_spider(k)) == tuple(want)


def test_eval_Z_values():
    assert eval_Z(from_edges(2, [(0, 1)]), 1) == 3
    assert eval_Z(from_edges(1, []), -1) == 0
    assert eval_Z(cycle_graph(4), 1j) == -1 + 4j


# each was answered with NaN, a clean sweep or an unrelated error
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda x: eval_Z(path_graph(3), x), "activity must be finite"),
        (lambda x: hom_ratio(path_graph(3), 0, 0, SpinBoundary({}, 2), J2, x), "z must be finite"),
        (lambda x: ratio_bound_scan([path_graph(3)], [0.5, x]), "activity must be finite"),
        (lambda x: zero_scan(path_graph(3), (x, 0.0, -1.0, 1.0), 2), "rect re_min must be finite"),
        (lambda x: zero_scan(path_graph(3), (-1.0, 0.0, -1.0, x), 2), "rect im_max must be finite"),
    ],
    ids=["eval_Z", "hom_ratio", "ratio_bound_scan", "zero_scan-re_min", "zero_scan-im_max"],
)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_input_is_refused_by_name(call, message, x):
    with pytest.raises(ValueError, match=f"^{message}, got "):
        call(x)


def test_eval_Z_matches_brute(seed=12):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        g = random_graph(rng, 7)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(eval_Z(g, lam) - brute_Z(g, lam)) <= 1e-9 * (1 + abs(brute_Z(g, lam)))


def test_multivariate_Z():
    g = from_edges(2, [(0, 1)])
    assert multivariate_Z(g, [2.0, 3.0]) == 1 + 2 + 3
    p3 = path_graph(3)
    assert multivariate_Z(p3, [1.0, 1.0, 1.0]) == 5
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_graph(rng, 7)
        w = [complex(a, b) for a, b in rng.standard_normal((7, 2))]
        got = multivariate_Z(g, w)
        want = brute_multivariate_Z(g, w)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_multivariate_specializes_to_uniform():
    rng = np.random.default_rng(14)
    for _ in range(10):
        g = random_graph(rng, 8)
        lam = float(rng.uniform(0.1, 2.0))
        assert abs(multivariate_Z(g, [lam] * 8) - eval_Z(g, lam)) <= 1e-9


def test_multivariate_Z_splits_at_a_vertex():
    # Z_G = Z_{G-v} + w_v * Z_{G minus N[v]} with per-vertex weights
    rng = np.random.default_rng(15)
    for _ in range(15):
        g = random_graph(rng, 8)
        w = [complex(a, b) for a, b in rng.standard_normal((8, 2))]
        v = int(rng.integers(8))
        minus_v, m1 = nx_induced(g, [u for u in range(8) if u != v])
        closed, m2 = nx_induced(g, [u for u in range(8) if u != v and u not in g.adj[v]])
        z = multivariate_Z(g, w)
        z1 = multivariate_Z(minus_v, [w[u] for u in sorted(m1)])
        z2 = multivariate_Z(closed, [w[u] for u in sorted(m2)])
        assert abs(z - (z1 + w[v] * z2)) <= 1e-9 * (1 + abs(z))


def test_ratio_values():
    g1 = from_edges(1, [])
    assert abs(ratio_P(g1, 0, 0.7) - 0.7 / 1.7) <= 1e-15
    assert abs(ratio_R(g1, 0, 0.7) - 0.7) <= 1e-15
    k2 = from_edges(2, [(0, 1)])
    assert abs(ratio_P(k2, 0, 1.0) - 1 / 3) <= 1e-15
    assert abs(ratio_R(k2, 0, 1.0) - 1 / 2) <= 1e-15
    assert abs(ratio_P(path_graph(3), 1, 1.0) - 0.2) <= 1e-15


def test_ratio_identity_P_from_R():
    rng = np.random.default_rng(16)
    for _ in range(30):
        g = random_graph(rng, 8)
        v = int(rng.integers(8))
        lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        try:
            p = ratio_P(g, v, lam)
            r = ratio_R(g, v, lam)
        except NearZeroDenominatorError:
            continue
        assert abs(p - r / (1 + r)) <= 1e-12


def test_ratio_zero_denominator():
    g = from_edges(1, [])
    with pytest.raises(NearZeroDenominatorError):
        ratio_P(g, 0, -1.0)


def test_cond_prob_boundary_examples():
    g = path_graph(3)
    assert abs(cond_prob_hardcore(g, 2, HardcoreBoundary({0: 1}), 1.0) - 0.5) <= 1e-15
    assert abs(cond_prob_hardcore(g, 2, HardcoreBoundary({0: 0}), 1.0) - 1 / 3) <= 1e-15
    # v adjacent to an occupied boundary vertex is forced out
    assert cond_prob_hardcore(g, 1, HardcoreBoundary({0: 1}), 1.0) == 0.0


def test_cond_prob_methods_agree():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = random_graph(rng, 9)
        v = int(rng.integers(9))
        others = [u for u in range(9) if u != v]
        k = int(rng.integers(0, 4))
        lam = float(rng.uniform(0.1, 1.5))
        picks = list(rng.choice(others, size=k, replace=False)) if k else []
        sigma = None
        for _attempt in range(20):
            cand = {int(u): int(rng.integers(2)) for u in picks}
            try:
                b = HardcoreBoundary(cand)
                b.validate(g)
                sigma = b
                break
            except Exception:
                continue
        if sigma is None:
            sigma = HardcoreBoundary({})
        a = cond_prob_hardcore(g, v, sigma, lam)
        b = brute_cond_prob(g, v, sigma, lam)
        assert abs(a - b) <= 1e-12


def test_cond_prob_ignores_other_components():
    sigma = HardcoreBoundary({})
    union = disjoint_union(path_graph(3), grid_graph(3, 3))
    assert repr(cond_prob_hardcore(union, 1, sigma, 0.5)) == repr(cond_prob_hardcore(path_graph(3), 1, sigma, 0.5))


def test_cond_prob_sweeps_only_inside_a_pinned_sphere():
    # pinning the distance-3 sphere cuts the ball of radius 2 off the grid
    want = cond_prob_hardcore(*pinned_grid_centre(8, 3), 1.0)
    start = time.perf_counter()
    got = cond_prob_hardcore(*pinned_grid_centre(100, 3), 1.0)
    assert time.perf_counter() - start < 2.0
    assert repr(got) == repr(want)


def test_cond_prob_rejects_bad_activity():
    g = path_graph(3)
    with pytest.raises(ValueError):
        cond_prob_hardcore(g, 0, HardcoreBoundary({}), -0.5)
    with pytest.raises(ValueError):
        cond_prob_hardcore(g, 0, HardcoreBoundary({}), 1 + 1j)


@pytest.mark.parametrize(
    "lam", [math.inf, True, 10**400], ids=["inf", "True", "int-beyond-float"]
)
def test_cond_prob_rejects_a_non_finite_or_bool_activity(lam):
    # inf once gave nan, True answered as lam = 1 and 10**400 raised a bare
    # OverflowError
    message = f"^activity must be a positive real, got {re.escape(repr(lam))}$"
    with pytest.raises(ValueError, match=message):
        cond_prob_hardcore(path_graph(3), 0, HardcoreBoundary({}), lam)


def test_cond_prob_past_the_float_range_is_exact():
    # Z(10) of the depth-8 tree passes 2^1024, so float Horner gave NaN;
    # the coefficients of Z(P1500) pass it, and Horner raised OverflowError
    tree, path = binary_tree(8), path_graph(1500)
    for g, lam in ((tree, 10.0), (path, 1)):
        with pytest.raises(FloatRangeError, match="float64 range"):
            eval_Z(g, lam)
    want = binary_tree_root_occupation(8, 10.0)
    assert cond_prob_hardcore(tree, 0, HardcoreBoundary({}), 10.0) == float(want)
    want = path_occupation(1500, 750, 1)
    assert cond_prob_hardcore(path, 750, HardcoreBoundary({}), 1) == float(want)


def test_hom_Z_hand_values():
    k2 = from_edges(2, [(0, 1)])
    assert abs(hom_Z(k2, J2) - 4) <= 1e-12
    a = 0.3
    A = [[1, 1], [1, 1 + a]]
    assert abs(hom_Z(k2, A) - (3 + (1 + a))) <= 1e-12
    A2 = [[1, 1], [1, 2]]
    assert abs(hom_Z(k2, A2) - 5) <= 1e-12


def test_hom_Z_fully_pinned_is_single_summand():
    g = path_graph(3)
    A = np.array([[1.0, 0.5], [0.5, 2.0]])
    xi = [[1.0, 2.0], [3.0, 1.0], [1.0, 1.0]]
    sigma = SpinBoundary({0: 1, 1: 0, 2: 1}, q=2)
    want = xi[0][1] * xi[1][0] * xi[2][1] * A[1, 0] * A[0, 1]
    assert abs(hom_Z(g, A, xi=xi, sigma=sigma) - want) <= 1e-12


def test_hom_Z_matches_brute():
    rng = np.random.default_rng(18)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, p=0.5)
        q = int(rng.integers(2, 4))
        A = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        A = (A + A.T) / 2
        xi = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        npin = int(rng.integers(0, n + 1))
        pins = {int(u): int(rng.integers(q)) for u in rng.choice(n, size=npin, replace=False)}
        sigma = SpinBoundary(pins, q=q) if pins else None
        got = hom_Z(g, A, xi=xi.tolist(), sigma=sigma)
        want = brute_hom_Z(g, A, xi=xi.tolist(), sigma=sigma)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_hom_Z_path_of_3_to_the_16_colorings():
    # 3^16 colorings, past the 2^24 cap that the coloring enumeration had
    A = [[1, 1, 1], [1, 1, 1], [1, 1, 2]]
    g = from_edges(16, [(i, i + 1) for i in range(15)])
    power = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(15):
        power = [[sum(power[i][k] * A[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    want = sum(map(sum, power))
    assert abs(hom_Z(g, A) - want) <= 1e-12 * want


@pytest.mark.parametrize("rows, cols, q", [(8, 8, 2), (5, 5, 3)])
def test_hom_Z_large_grid_matches_transfer_matrix(rows, cols, q):
    rng = np.random.default_rng(rows * 10 + q)
    A = rng.uniform(0.5, 1.5, (q, q)) + 0.2j * rng.standard_normal((q, q))
    A = (A + A.T) / 2
    want = grid_transfer_hom_Z(rows, cols, A)
    assert abs(hom_Z(grid_graph(rows, cols), A) - want) <= 1e-12 * abs(want)


def test_edge_matrix_Z_all_J():
    g = path_graph(3)
    mats = {e: np.ones((2, 2)) for e in g.edges()}
    assert abs(edge_matrix_Z(g, mats) - 2**3) <= 1e-12


def test_edge_matrix_Z_single_edge():
    g = from_edges(2, [(0, 1)])
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert abs(edge_matrix_Z(g, {(0, 1): B}) - B.sum()) <= 1e-12


def test_edge_matrix_Z_requires_all_edges():
    g = path_graph(3)
    with pytest.raises(ValueError):
        edge_matrix_Z(g, {(0, 1): np.ones((2, 2))})


def test_edge_matrix_Z_refuses_mixed_stack_sizes():
    g = path_graph(3)
    cases = (
        ((2, 2, 2), (3, 2, 2), "a stack of 2, a stack of 3"),
        ((2, 2, 2), (2, 2), "a stack of 2, one matrix"),
    )
    for first, second, sizes in cases:
        mats = {(0, 1): np.ones(first), (1, 2): np.ones(second)}
        with pytest.raises(ValueError, match=f"^edge matrices mix stack sizes: {sizes}$"):
            edge_matrix_Z(g, mats)
    with pytest.raises(ValueError, match="stack of square matrices, got shape"):
        edge_matrix_Z(g, {(0, 1): np.ones((1, 2, 2, 2)), (1, 2): np.ones((1, 2, 2, 2))})


def test_edge_matrix_Z_matches_hom_Z_when_uniform():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, p=0.6)
        if not g.edges():
            continue
        q = 2
        A = rng.standard_normal((q, q))
        A = (A + A.T) / 2
        mats = {e: A for e in g.edges()}
        got = edge_matrix_Z(g, mats)
        want = brute_hom_Z(g, A)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_hom_ratio_values():
    k2 = from_edges(2, [(0, 1)])
    A = [[2, 1], [1, 1]]  # A_{1,1}=2 after relabeling colors (1-indexed in docs)
    # enumerate: num = colorings with c0=i; spec example uses the color with
    # the self-weight 2: (2+1)/(2+1+1+1) = 3/5
    sigma = SpinBoundary({}, q=2)
    assert abs(hom_ratio(k2, 0, 0, sigma, A, 1.0) - 3 / 5) <= 1e-12
    # z=0 collapses every matrix to J
    assert abs(hom_ratio(k2, 0, 0, sigma, A, 0.0) - 0.5) <= 1e-12
    assert abs(hom_ratio(k2, 0, 1, sigma, [[1, 1], [1, 1]], 0.77) - 0.5) <= 1e-12


def test_hom_Z_poly_matches_pointwise():
    rng = np.random.default_rng(20)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, p=0.5)
        q = int(rng.integers(2, 4))
        A = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        A = (A + A.T) / 2
        npin = int(rng.integers(0, n))
        pins = {int(u): int(rng.integers(q)) for u in rng.choice(n, size=npin, replace=False)}
        sigma = SpinBoundary(pins, q=q) if pins else None
        coeffs = hom_Z_poly(g, A, sigma=sigma)
        assert len(coeffs) == g.num_edges() + 1
        for z in (0.0, 1.0, 0.3 + 0.4j):
            J = np.ones((q, q))
            M = J + z * (np.asarray(A) - J)
            want = brute_hom_Z(g, M, sigma=sigma)
            got = eval_poly(coeffs, z)
            assert abs(got - want) <= 1e-9 * (1 + abs(want))


# with A != A^T the sum over colorings would depend on the vertex labels:
# these two labellings of the path on three vertices (plus an isolated
# vertex) give 2 and 0 when each edge is read from its lower label
SKEW = [[0, 0], [1, 0]]
P3_CENTER_LAST = from_edges(4, [(0, 2), (1, 2)])
P3_CENTER_MIDDLE = from_edges(4, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "call",
    [
        lambda g: hom_Z(g, SKEW),
        lambda g: hom_Z_poly(g, SKEW),
        lambda g: hom_ratio(g, 0, 0, SpinBoundary({}, 2), SKEW, 1.0),
    ],
    ids=["hom_Z", "hom_Z_poly", "hom_ratio"],
)
def test_non_symmetric_matrix_is_rejected(call):
    for g in (P3_CENTER_LAST, P3_CENTER_MIDDLE):
        with pytest.raises(ValueError, match="symbol matrix must be symmetric"):
            call(g)


def test_edge_matrix_Z_keeps_edge_orientation():
    # per-edge matrices are read from the lower to the higher label, as documented
    skew = np.array(SKEW)
    assert edge_matrix_Z(P3_CENTER_LAST, {e: skew for e in P3_CENTER_LAST.edges()}) == 2
    assert edge_matrix_Z(P3_CENTER_MIDDLE, {e: skew for e in P3_CENTER_MIDDLE.edges()}) == 0


def test_eval_poly_horner():
    assert eval_poly([1, 2, 3], 2.0) == 1 + 4 + 12
    assert eval_poly([5], 100.0) == 5


@pytest.mark.parametrize("v", [99, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, v: approx_cond_prob(g, v, HardcoreBoundary({}), 0.1, 1e-6),
        lambda g, v: cond_prob_hardcore(g, v, HardcoreBoundary({}), 0.5),
        lambda g, v: ratio_P(g, v, 0.5),
        lambda g, v: ratio_R(g, v, 0.5),
        lambda g, v: ratio_series_cluster(g, v, 3),
        lambda g, v: ratio_series_division(g, v, 3),
        lambda g, v: hom_ratio_series(g, v, 0, SpinBoundary({}, 2), [[2, 1], [1, 1]], order=2),
    ],
    ids=[
        "approx_cond_prob",
        "cond_prob_hardcore",
        "ratio_P",
        "ratio_R",
        "ratio_series_cluster",
        "ratio_series_division",
        "hom_ratio_series",
    ],
)
def test_out_of_range_vertex_is_rejected(call, v):
    # -1 would index from the end and 99 read as a blocked vertex
    with pytest.raises(ValueError, match=f"vertex {v} not in graph with n=4"):
        call(path_graph(4), v)
