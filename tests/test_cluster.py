import collections
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from zeromix import (
    SizeLimitError,
    SpinBoundary,
    cycle_graph,
    eval_poly,
    from_edges,
    grid_graph,
    hom_ratio_series,
    ind_poly,
    logZ_series,
    path_graph,
    ratio_series_cluster,
    ratio_series_division,
    shearer_radius,
    weitz_lambda_c,
)
from zeromix.cluster import _blowup_ursell, _canonical_form, _connected_sets, _unpack
from zeromix.exact import _neighbor_masks
from zeromix.series import _padded
from helpers import (
    blowup_ursell,
    brute_connected,
    horner_compose,
    nx_induced,
    pattern_bits,
    random_graph,
    series_exp,
    ursell,
)


def complete(k):
    return from_edges(k, list(itertools.combinations(range(k), 2)))


def star(leaves):
    return from_edges(leaves + 1, [(0, u) for u in range(1, leaves + 1)])


K34_MATCHED = from_edges(7, [(u, w) for u in range(3) for w in range(3, 7)] + [(3, 6), (4, 5)])


def seq_blowup_ursell(g, seq):
    """Ursell function of the interaction graph of a vertex sequence: nodes
    are sequence positions, joined when the vertices are equal or adjacent."""
    k = len(seq)
    edges = [
        (a, b)
        for a in range(k)
        for b in range(a + 1, k)
        if seq[a] == seq[b] or seq[b] in g.adj[seq[a]]
    ]
    return ursell(from_edges(k, edges))


def seq_logZ_coefficient(g, k):
    """Reference: sum over all vertex sequences of length k of phi/k!."""
    total = 0
    for seq in itertools.product(range(g.n), repeat=k):
        total += seq_blowup_ursell(g, seq)
    return total / math.factorial(k)


def seq_ratio_coefficient(g, v, k):
    """Reference: sequences of length k whose first entry is v, phi/(k-1)!."""
    total = 0
    for rest in itertools.product(range(g.n), repeat=k - 1):
        total += seq_blowup_ursell(g, (v,) + rest)
    return total / math.factorial(k - 1)


def test_ursell_hand_values():
    assert ursell(complete(1)) == 1
    assert ursell(complete(2)) == -1
    assert ursell(complete(3)) == 2
    assert ursell(path_graph(3)) == 1
    assert ursell(path_graph(4)) == -1
    assert ursell(cycle_graph(4)) == -3
    assert ursell(complete(4)) == -6
    assert ursell(from_edges(4, [(0, 1), (0, 2), (0, 3)])) == -1


def test_ursell_complete_graph_formula():
    for k in range(1, 7):
        assert ursell(complete(k)) == (-1) ** (k - 1) * math.factorial(k - 1)


def test_ursell_disconnected_is_zero():
    assert ursell(from_edges(2, [])) == 0
    assert ursell(from_edges(4, [(0, 1), (2, 3)])) == 0


def test_ursell_blowup_dp_matches_subset_scan():
    rng = np.random.default_rng(30)
    for _ in range(40):
        k = int(rng.integers(1, 7))
        h = random_graph(rng, k, p=float(rng.uniform(0.3, 0.9)))
        bits = pattern_bits(h, tuple(range(k)))
        assert _blowup_ursell(bits, k, (1,) * k) == ursell(h)


def test_ursell_blowup_with_multiplicities():
    # blowing K_2 up with multiplicities (2, 1) gives the triangle
    k2 = from_edges(2, [(0, 1)])
    bits = pattern_bits(k2, (0, 1))
    assert _blowup_ursell(bits, 2, (2, 1)) == 2
    # K_1 with multiplicity m is the complete graph K_m
    one = pattern_bits(from_edges(1, []), (0,))
    for m in range(1, 7):
        assert _blowup_ursell(one, 1, (m,)) == (-1) ** (m - 1) * math.factorial(m - 1)


def test_canonical_key_separates_k33_from_prism():
    # both are 3-regular on 6 vertices, so colour refinement alone cannot
    # tell them apart
    k33 = from_edges(6, [(u, w) for u in range(3) for w in range(3, 6)])
    prism = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    keys = []
    for h, phi in ((k33, -31), (prism, -26)):
        key, _ = _canonical_form(pattern_bits(h, tuple(range(6))), 6)
        keys.append(key)
        assert ursell(h) == phi
        assert _blowup_ursell(key, 6, (1,) * 6) == phi
    assert keys[0] != keys[1]


@pytest.mark.parametrize(
    "h, mults",
    [
        (complete(7), (2, 1, 1, 1, 3, 1, 1)),
        (complete(8), (1,) * 8),
        (complete(8), (1, 1, 2, 1, 1, 1, 1, 1)),
        (star(7), (1, 2, 1, 1, 1, 2, 1, 1)),
        (star(8), (1,) * 9),
        (star(8), (2, 1, 1, 1, 1, 1, 1, 1, 1)),
        # K_{3,4} with a perfect matching on the side of 4 is 4-regular, so
        # refinement leaves one cell, which holds two orbits
        (K34_MATCHED, (1,) * 7),
        (K34_MATCHED, (1, 1, 2, 1, 2, 1, 1)),
    ],
)
def test_canonical_key_of_symmetric_patterns(h, mults):
    # every vertex of a clique, and every leaf of a star, is a twin of the
    # others: the search must not try each of their orders, and must still
    # try a vertex of each class of twins; phi is read on the canonical form
    # with the multiplicities in the order of its leaf
    k = sum(mults)
    want = blowup_ursell(h, mults)
    if len(h.edges()) == h.n * (h.n - 1) // 2:
        # the blowup of a clique is the clique K_k
        assert want == (-1) ** (k - 1) * math.factorial(k - 1)
    every = tuple(range(h.n))
    key, order = _canonical_form(pattern_bits(h, every), h.n)
    assert _blowup_ursell(key, h.n, tuple(mults[u] for u in order)) == want
    rng = np.random.default_rng(37)
    for _ in range(5):
        perm = [int(u) for u in rng.permutation(h.n)]
        moved = from_edges(h.n, [(perm[u], perm[w]) for u, w in h.edges()])
        moved_mults = [0] * h.n
        for u in range(h.n):
            moved_mults[perm[u]] = mults[u]
        moved_key, moved_order = _canonical_form(pattern_bits(moved, every), h.n)
        assert moved_key == key
        assert _blowup_ursell(key, h.n, tuple(moved_mults[u] for u in moved_order)) == want


def test_cluster_series_of_clique_and_star_at_order_9():
    # the bound catches a canonical form that tries every order of twins
    # (10! on K10); with one vertex per class of twins the series take about
    # a second.  The Petersen graph and K_{5,5} at order 10 add many
    # isomorphic patterns with many independent sets
    start = time.perf_counter()
    k9 = complete(9)
    # the independent sets of K_k are the empty set and the singletons
    for k in (9, 10):
        want = [0] + [(-1) ** (j + 1) * k**j / j for j in range(1, k + 1)]
        assert np.allclose(logZ_series(complete(k), order=k).coeffs, want, rtol=1e-12, atol=0)
    s8 = star(8)
    petersen = from_edges(
        10,
        [(u, (u + 1) % 5) for u in range(5)]
        + [(u, u + 5) for u in range(5)]
        + [(5 + u, 5 + (u + 2) % 5) for u in range(5)],
    )
    k55 = from_edges(10, [(u, w) for u in range(5) for w in range(5, 10)])
    z = _padded(ind_poly(s8).coeffs, 9, complex)
    assert np.allclose(series_exp(logZ_series(s8, order=9).coeffs), z, rtol=1e-12, atol=1e-9)
    for g in (petersen, k55):
        log_z = logZ_series(g, order=10)
        z = _padded(ind_poly(g).coeffs, 10, complex)
        # exp cancels coefficients of log Z up to 8e7 (K_{5,5}) down to Z's
        # zeros past degree 5, so the error scales with the largest of them
        scale = max(map(abs, log_z.coeffs))
        assert np.allclose(series_exp(log_z.coeffs), z, rtol=1e-12, atol=1e-12 * scale)
    for g, v, order in ((k9, 4, 9), (s8, 0, 9), (s8, 5, 9), (petersen, 0, 10), (k55, 7, 10)):
        got = ratio_series_cluster(g, v, order=order).coeffs
        assert np.allclose(got, ratio_series_division(g, v, order=order).coeffs, rtol=1e-9, atol=1e-9)
    assert time.perf_counter() - start < 10


def connected_subsets(g, max_size, containing=None):
    """The subsets _connected_sets grows, as sorted tuples."""
    found = _connected_sets(_neighbor_masks(g), max_size, containing=containing)
    return [tuple(sorted(members)) for members, _ in found]


def test_connected_subsets_counts():
    p3 = path_graph(3)
    subs = connected_subsets(p3, 2)
    assert sorted(subs) == [(0,), (0, 1), (1,), (1, 2), (2,)]
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert len(connected_subsets(star, 4)) == 11


def test_connected_subsets_matches_brute():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_graph(rng, 7, p=0.4)
        max_size = int(rng.integers(1, 8))
        got = set(connected_subsets(g, max_size))
        want = set()
        for k in range(1, max_size + 1):
            for comb in itertools.combinations(range(7), k):
                if brute_connected(g, comb):
                    want.add(comb)
        assert got == want


def test_connected_subsets_containing():
    rng = np.random.default_rng(32)
    for _ in range(10):
        g = random_graph(rng, 7, p=0.4)
        v = int(rng.integers(7))
        got = set(connected_subsets(g, 4, containing=(v,)))
        want = {s for s in connected_subsets(g, 4) if v in s}
        assert got == want
        # grown from their least member in the set given, each set once
        pair = (v, (v + 3) % 7)
        got = connected_subsets(g, 4, containing=pair)
        assert sorted(got) == sorted({s for s in connected_subsets(g, 4) if set(s) & set(pair)})



def test_connected_sets_against_brute_force():
    # sizes 1..3: the budget cuts sets by total size, not by count
    rng = np.random.default_rng(34)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.6)))
        masks = _neighbor_masks(g)
        sizes = [int(s) for s in rng.integers(1, 4, size=n)]
        budget = int(rng.integers(1, 11))
        for containing in (None, (int(rng.integers(n)),), tuple(int(u) for u in rng.integers(n, size=2))):
            anchors = set(range(n) if containing is None else containing)
            want = collections.Counter(
                frozenset(c)
                for k in range(1, n + 1)
                for c in itertools.combinations(range(n), k)
                if sum(sizes[u] for u in c) <= budget and brute_connected(g, c) and anchors & set(c)
            )
            found = list(_connected_sets(masks, budget, sizes, containing))
            # every set once: a Counter shows a duplicate that a set would hide
            assert collections.Counter(frozenset(m) for m, _ in found) == want
            for members, bits in found:
                assert members[0] == min(anchors & set(members))
                # each member joins next to an earlier one, and the pattern
                # is the induced subgraph in join order
                for p, u in enumerate(members[1:], 1):
                    assert set(g.adj[u]) & set(members[:p])
                nbr = [sum(1 << j for j, w in enumerate(members) if w in g.adj[u]) for u in members]
                assert _unpack(bits, len(members)) == nbr
            total = len(found)
            assert len(list(_connected_sets(masks, budget, sizes, containing, max_count=total))) == total
            if total:
                with pytest.raises(SizeLimitError, match=f"more than {total - 1} connected sets"):
                    list(_connected_sets(masks, budget, sizes, containing, max_count=total - 1))


def test_connected_subsets_rejects_vertices_outside_the_graph():
    p4 = path_graph(4)
    for v in (-1, 4, 9):
        with pytest.raises(ValueError, match=f"vertex {v} not in graph with n=4"):
            ratio_series_cluster(p4, v, order=3)


@pytest.mark.parametrize("max_size", [0, -1])
def test_connected_subsets_of_nonpositive_size_is_empty(max_size):
    p4 = path_graph(4)
    assert connected_subsets(p4, max_size) == []
    assert connected_subsets(p4, max_size, containing=(2,)) == []


@pytest.mark.parametrize(
    "series",
    [
        lambda g: logZ_series(g, order=-1),
        lambda g: ratio_series_cluster(g, 0, order=-1),
        lambda g: ratio_series_division(g, 0, order=-1),
        lambda g: hom_ratio_series(g, 0, 0, SpinBoundary({}, q=2), [[2, 1], [1, 1]], order=-1),
    ],
)
def test_negative_order_is_rejected(series):
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
        series(path_graph(3))


def test_logZ_series_hand_values():
    k1 = from_edges(1, [])
    s = logZ_series(k1, order=3)
    assert np.allclose(s.coeffs, [0, 1, -0.5, 1 / 3], atol=1e-12)
    k2 = from_edges(2, [(0, 1)])
    s = logZ_series(k2, order=2)
    assert np.allclose(s.coeffs, [0, 2, -2], atol=1e-12)
    empty = from_edges(5, [])
    assert np.allclose(logZ_series(empty, order=1).coeffs, [0, 5], atol=1e-12)


def test_logZ_series_matches_log_of_ind_poly():
    rng = np.random.default_rng(33)
    for _ in range(15):
        g = random_graph(rng, 7, p=0.5)
        order = 6
        s = logZ_series(g, order=order)
        z = _padded(ind_poly(g).coeffs, order, complex)
        got = series_exp(s.coeffs)
        assert np.allclose(got, z, atol=1e-9)


def test_logZ_series_matches_sequence_reference():
    graphs = [
        path_graph(3),
        cycle_graph(3),
        from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        random_graph(np.random.default_rng(34), 5, p=0.5),
    ]
    for g in graphs:
        s = logZ_series(g, order=4)
        for k in range(1, 5):
            assert abs(s.coeffs[k] - seq_logZ_coefficient(g, k)) <= 1e-9


def test_ratio_series_cluster_hand_values():
    k1 = from_edges(1, [])
    assert np.allclose(ratio_series_cluster(k1, 0, order=3).coeffs, [0, 1, -1, 1], atol=1e-12)
    k2 = from_edges(2, [(0, 1)])
    assert np.allclose(ratio_series_cluster(k2, 0, order=3).coeffs, [0, 1, -2, 4], atol=1e-12)
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert np.allclose(ratio_series_cluster(star, 0, order=2).coeffs, [0, 1, -4], atol=1e-12)


def test_ratio_series_cluster_matches_sequence_reference():
    graphs = [
        path_graph(4),
        cycle_graph(4),
        from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    ]
    for g in graphs:
        for v in range(g.n):
            s = ratio_series_cluster(g, v, order=4)
            for k in range(1, 5):
                assert abs(s.coeffs[k] - seq_ratio_coefficient(g, v, k)) <= 1e-9


def test_ratio_series_division_hand_values():
    k2 = from_edges(2, [(0, 1)])
    assert np.allclose(ratio_series_division(k2, 0, order=3).coeffs, [0, 1, -2, 4], atol=1e-12)
    p3 = path_graph(3)
    assert np.allclose(
        ratio_series_division(p3, 1, order=4).coeffs, [0, 1, -3, 8, -21], atol=1e-12
    )


def test_ratio_series_division_keeps_digits_on_long_path():
    # 1 / Z of the path has coefficients growing like 4^k; num * (1 / den)
    # cancelled them and lost about four digits at order 30
    g = path_graph(45)
    order = 30
    # the radius-30 ball around vertex 22 is the whole path
    pad = (0,) * order
    den = ind_poly(g).coeffs + pad
    num = (0,) + ind_poly(from_edges(42, [(i, i + 1) for i in range(41) if i != 20])).coeffs + pad
    exact = []
    for k in range(order + 1):
        acc = Fraction(num[k])
        for j in range(1, k + 1):
            acc -= den[j] * exact[k - j]
        exact.append(acc / den[0])
    got = ratio_series_division(g, 22, order=order).coeffs
    assert got[0] == 0
    err = max(abs(got[k] - float(exact[k])) / abs(float(exact[k])) for k in range(1, order + 1))
    assert err <= 1e-8


def test_ratio_series_methods_agree_small():
    rng = np.random.default_rng(35)
    for _ in range(15):
        g = random_graph(rng, 6, p=0.5, max_degree=4)
        v = int(rng.integers(6))
        a = ratio_series_cluster(g, v, order=5)
        b = ratio_series_division(g, v, order=5)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-9)


def test_ratio_series_coefficient_locality():
    # coefficient k only sees the radius-(k-1) ball around v
    from zeromix import ball

    rng = np.random.default_rng(36)
    for _ in range(10):
        g = random_graph(rng, 8, p=0.35)
        v = int(rng.integers(8))
        order = 4
        full = ratio_series_cluster(g, v, order=order)
        for k in range(1, order + 1):
            sub, mapping = nx_induced(g, ball(g, v, k - 1))
            local = ratio_series_cluster(sub, mapping[v], order=k)
            assert abs(full.coeffs[k] - local.coeffs[k]) <= 1e-12


def test_division_ball_radius_override():
    g = path_graph(10)
    a = ratio_series_division(g, 0, order=3)
    b = ratio_series_division(g, 0, order=3, ball_radius=2)
    assert np.allclose(a.coeffs, b.coeffs, atol=1e-12)


def test_ratio_series_division_ball_of_large_grid():
    # the order-8 ball of the 100x100 grid's centre is the whole 17x17 grid
    # around its own centre, with other labels: the series reads the ball
    # alone, in the order the large grid gives it
    big = ratio_series_division(grid_graph(100, 100), 50 * 100 + 50, order=8)
    small = ratio_series_division(grid_graph(17, 17), 8 * 17 + 8, order=8)
    assert big.coeffs == small.coeffs


def test_shearer_radius_values():
    assert shearer_radius(2) == 1 / 4
    assert shearer_radius(3) == 4 / 27
    assert shearer_radius(4) == 27 / 256
    assert all(shearer_radius(d + 1) < shearer_radius(d) for d in range(2, 10))
    with pytest.raises(ValueError):
        shearer_radius(1)


def test_weitz_lambda_c_values():
    # (d-1)^(d-1) / (d-2)^d
    assert weitz_lambda_c(3) == 4.0
    assert weitz_lambda_c(4) == 27 / 16
    assert weitz_lambda_c(5) == 256 / 243
    with pytest.raises(ValueError):
        weitz_lambda_c(2)


def test_ratio_series_composed_with_map_matches_rational_evaluation():
    # order-20 truncation of P(lam * g(x)) against the exact rational function
    from zeromix import StripSpec

    k2 = from_edges(2, [(0, 1)])
    lam = 0.25
    spec = StripSpec(0.5)
    order = 20
    p = ratio_series_division(k2, 0, order=order)
    scaled = [c * lam**k for k, c in enumerate(p.coeffs)]
    comp = horner_compose(scaled, spec.coeffs(order))
    x = 0.3
    w = lam * spec.point(x)
    exact = w * 1 / (1 + 2 * w)
    assert abs(eval_poly(comp, x) - exact) <= 1e-9
