import dataclasses
import itertools
import math

import numpy as np
import pytest

from zeromix import (
    BoundaryError,
    HypothesisViolationError,
    NearZeroDenominatorError,
    Polymer,
    SpinBoundary,
    barvinok_zero_check,
    bounded_ratio_check,
    build_edge_matrices,
    cycle_graph,
    delta_Delta,
    edge_matrix_Z,
    enumerate_polymers,
    from_edges,
    grid_graph,
    hom_Z,
    hom_Z_poly,
    hom_ratio_series,
    hom_ssm_experiment,
    hom_Z_via_polymers,
    hom_ratio,
    path_graph,
    polymer_graph,
)
from zeromix import polymers
from helpers import brute_hom_Z, brute_polymer_weight, random_graph, series_quotient


def box_matrix(rng, q, radius):
    """Symmetric matrix with entries uniform in the closed disk of `radius`
    around 1."""
    rad = radius * np.sqrt(rng.uniform(size=(q, q)))
    ang = rng.uniform(0, 2 * math.pi, size=(q, q))
    A = 1.0 + rad * np.exp(1j * ang)
    return (A + A.T) / 2


def test_enumerate_polymers_counts():
    k2 = from_edges(2, [(0, 1)])
    assert len(enumerate_polymers(k2)) == 1
    p3 = path_graph(3)
    assert len(enumerate_polymers(p3)) == 3
    k3 = cycle_graph(3)
    assert len(enumerate_polymers(k3, max_edges=3)) == 7
    p4 = path_graph(4)
    assert len(enumerate_polymers(p4, max_edges=2)) == 5
    # a polymer has at least one edge
    assert enumerate_polymers(p4, max_edges=0) == []


def test_enumerate_polymers_matches_brute():
    rng = np.random.default_rng(50)
    from helpers import brute_connected

    for _ in range(10):
        g = random_graph(rng, 6, p=0.5)
        edges = g.edges()
        max_edges = int(rng.integers(1, 5))
        want = set()
        for k in range(1, max_edges + 1):
            for F in itertools.combinations(edges, k):
                verts = {u for e in F for u in e}
                sub = from_edges(6, F)
                if brute_connected(sub, verts):
                    want.add(tuple(sorted(F)))
        got = {p.edges for p in enumerate_polymers(g, max_edges=max_edges)}
        assert got == want


def test_polymer_graph_adjacency():
    p3 = path_graph(3)
    polymers = enumerate_polymers(p3)
    gamma = polymer_graph(polymers)
    # all three polymers pairwise share vertex 1
    assert gamma.num_edges() == 3


def test_polymer_graph_disjoint_polymers_not_adjacent():
    g = path_graph(5)  # edges 01,12,23,34
    polymers = enumerate_polymers(g, max_edges=1)
    gamma = polymer_graph(polymers)
    idx = {p.edges: k for k, p in enumerate(polymers)}
    a = idx[((0, 1),)]
    b = idx[((3, 4),)]
    assert b not in gamma.adj[a]
    c = idx[((1, 2),)]
    assert c in gamma.adj[a]


def polymer_weight(p, A, z, pins=None, xi=None):
    """The weight both polymer routes use: _shape_weight of p's _shape."""
    rows = None if xi is None else np.asarray(xi, dtype=complex)[list(p.vertices)]
    C = np.asarray(A, dtype=complex) - 1.0
    return polymers._shape_weight(C, *polymers._shape(p, pins or {}), rows, z)


def test_polymer_weight_single_edge():
    p = Polymer.from_edge_set([(0, 1)])
    A = np.array([[1.0, 1.0], [1.0, 2.0]])
    w = polymer_weight(p, A, 0.3)
    assert abs(w - 0.3 * 1.0 / 4.0) <= 1e-15
    assert abs(w - brute_polymer_weight(p, A, 0.3)) <= 1e-15
    # a path polymer away from vertex 0, with a pin and vertex weights
    p = Polymer.from_edge_set([(1, 2), (2, 4)])
    A = np.array([[1.2, 0.9 + 0.1j, 1.0], [0.9 + 0.1j, 0.7, 1.3j], [1.0, 1.3j, 1.1]])
    xi = 0.5 + np.arange(15).reshape(5, 3) / 7 + 0.2j
    want = brute_polymer_weight(p, A, 0.4 - 0.2j, SpinBoundary({4: 2}, 3), xi)
    got = polymer_weight(p, A, 0.4 - 0.2j, {4: 2}, xi)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_polymer_weight_vanishes_at_J_and_z0():
    A = np.ones((2, 2))
    p = Polymer.from_edge_set([(0, 1)])
    assert polymer_weight(p, A, 0.7) == 0 == brute_polymer_weight(p, A, 0.7)
    B = np.array([[1.0, 0.5], [0.5, 2.0]])
    assert polymer_weight(p, B, 0.0) == 0 == brute_polymer_weight(p, B, 0.0)


def test_hom_Z_via_polymers_identity_seeded():
    rng = np.random.default_rng(51)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, p=0.6)
        q = int(rng.integers(2, 4))
        A = rng.standard_normal((q, q)) * 0.4 + 1.0 + 0.3j * rng.standard_normal((q, q))
        A = (A + A.T) / 2
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        xi = 0.5 + rng.uniform(size=(n, q))
        npin = int(rng.integers(0, n + 1))
        pins = {int(u): int(rng.integers(q)) for u in rng.choice(n, size=npin, replace=False)}
        sigma = SpinBoundary(pins, q=q) if pins else None
        got = hom_Z_via_polymers(g, A, z=z, sigma=sigma, xi=xi.tolist())
        J = np.ones((q, q))
        want = brute_hom_Z(g, J + z * (A - J), xi=xi.tolist(), sigma=sigma)
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_hom_Z_via_polymers_at_J_is_the_prefactor():
    g = path_graph(4)
    q = 2
    xi = [[1.0, 2.0], [1.0, 1.0], [3.0, 1.0], [1.0, 1.0]]
    sigma = SpinBoundary({1: 0}, q=2)
    got = hom_Z_via_polymers(g, np.ones((q, q)), z=0.9, sigma=sigma, xi=xi)
    want = brute_hom_Z(g, np.ones((q, q)), xi=xi, sigma=sigma)
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_hom_Z_via_polymers_rejects_xi_of_wrong_shape():
    # an extra color column would otherwise enter the free-vertex mass
    g = path_graph(3)
    for xi in (np.ones((3, 3)), np.ones((2, 2))):
        with pytest.raises(ValueError):
            hom_Z_via_polymers(g, np.ones((2, 2)), xi=xi)


def test_hom_Z_via_polymers_z0():
    g = cycle_graph(4)
    A = np.array([[1.0, 0.3], [0.3, 2.0]])
    assert abs(hom_Z_via_polymers(g, A, z=0.0) - 2**4) <= 1e-12


def test_hom_ratio_series_constant_term():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, p=0.5)
        q = int(rng.integers(2, 4))
        A = box_matrix(rng, q, 0.15)
        v = int(rng.integers(n))
        s = hom_ratio_series(g, v, int(rng.integers(q)), SpinBoundary({}, q=q), A, order=2)
        assert abs(s.coeffs[0] - 1 / q) <= 1e-15


def test_hom_ratio_series_k2_hand_value():
    k2 = from_edges(2, [(0, 1)])
    A = [[1, 1], [1, 2]]
    s = hom_ratio_series(k2, 0, 1, SpinBoundary({}, q=2), A, order=3)
    assert np.allclose(s.coeffs, [0.5, 0.125, -0.03125, 0.0078125], atol=1e-12)


def test_hom_ratio_series_matches_division_oracle():
    rng = np.random.default_rng(53)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, p=0.6)
        q = 2
        A = box_matrix(rng, q, 0.2)
        v = int(rng.integers(n))
        i = int(rng.integers(q))
        npin = int(rng.integers(0, n))
        pins = {
            int(u): int(rng.integers(q))
            for u in rng.choice([x for x in range(n) if x != v], size=min(npin, n - 1), replace=False)
        }
        sigma = SpinBoundary(pins, q=q)
        order = int(rng.integers(1, 5))
        s = hom_ratio_series(g, v, i, sigma, A, order=order)
        num = hom_Z_poly(g, A, sigma=SpinBoundary({**sigma.assignment, v: i}, sigma.q))
        den = hom_Z_poly(g, A, sigma=sigma)
        want = series_quotient(num, den, order)
        assert np.allclose(s.coeffs, want, atol=1e-9)



def test_a_large_polymer_sum_is_not_a_vanishing_mass():
    # the mass of K2 is 4 whatever A is; it was compared with the polymer's
    # sum of about 1e13 and refused
    k2 = from_edges(2, [(0, 1)])
    A = [[1e13, 1.0], [1.0, 1.0]]
    assert hom_Z(k2, A) == 1e13 + 3
    assert abs(hom_Z_via_polymers(k2, A) - (1e13 + 3)) <= 1e-15 * 1e13
    s = hom_ratio_series(k2, 0, 0, SpinBoundary({}, 2), A, order=2)
    num = hom_Z_poly(k2, A, sigma=SpinBoundary({0: 0}, 2))
    want = series_quotient(num, hom_Z_poly(k2, A), 2)
    assert np.allclose(s.coeffs, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "xi, pins",
    [([[1, 1], [1, -1], [1, 1]], {}), ([[1, 1], [1, 1], [0, 1]], {2: 0})],
    ids=["free-row-sums-to-zero", "pinned-entry-zero"],
)
def test_a_vanishing_vertex_factor_is_refused(xi, pins):
    sigma = SpinBoundary(pins, 2) if pins else None
    with pytest.raises(NearZeroDenominatorError, match="free-vertex mass vanishes"):
        hom_Z_via_polymers(path_graph(3), [[1.2, 1.0], [1.0, 0.9]], sigma=sigma, xi=xi)


@pytest.mark.parametrize("g", [cycle_graph(5), path_graph(4)], ids=["C5", "P4"])
@pytest.mark.parametrize("pins", [{}, {2: 1}], ids=["free", "pinned"])
@pytest.mark.parametrize("i", [0, 1])
def test_a_zero_weight_with_a_nonzero_derivative(g, pins, i):
    # C = A - J = diag(1, -1): a one-edge polymer weighs (1 - 1) / 4 = 0,
    # while its copy with v pinned weighs C_ii / 2 = +-1/2, so its
    # xi_{v,i} derivative is nonzero and cannot come from dividing by w
    A = [[2.0, 1.0], [1.0, 0.0]]
    sigma = SpinBoundary(pins, 2)
    s = hom_ratio_series(g, 0, i, sigma, A, order=4)
    num = hom_Z_poly(g, A, sigma=SpinBoundary({**pins, 0: i}, 2))
    want = series_quotient(num, hom_Z_poly(g, A, sigma=sigma), 4)
    assert np.allclose(s.coeffs, want, rtol=0, atol=1e-12)


def test_hom_ratio_series_locality():
    # coefficients 0..l are blind to anything beyond distance l from v
    base = path_graph(8)
    extended = from_edges(9, base.edges() + [(7, 8)])
    A = [[1.0, 0.8], [0.8, 1.3]]
    s1 = hom_ratio_series(base, 0, 0, SpinBoundary({}, q=2), A, order=4)
    s2 = hom_ratio_series(extended, 0, 0, SpinBoundary({}, q=2), A, order=4)
    assert s1.coeffs == s2.coeffs
    # pinning a far vertex is equally invisible
    s3 = hom_ratio_series(base, 0, 0, SpinBoundary({7: 1}, q=2), A, order=4)
    assert s1.coeffs == s3.coeffs


def test_hom_ratio_series_rejects_pinned_vertex():
    g = path_graph(3)
    with pytest.raises(BoundaryError):
        hom_ratio_series(g, 0, 0, SpinBoundary({0: 1}, q=2), [[1, 1], [1, 2]], order=2)


@pytest.mark.parametrize(
    "g, q", [(cycle_graph(8), 2), (cycle_graph(8), 3), (grid_graph(2, 4), 2)], ids=["C8-q2", "C8-q3", "2x4"]
)
def test_polymer_structure_caches_keep_draws_apart(g, q):
    # hom_Z_via_polymers keeps the polymers and their graph for the last
    # graph and hom_ratio_series memoizes shape weights within a call; what a
    # draw of (sigma, A, i) brings must not leak into the next draw,
    # whichever comes first and whether the cache is warm
    rng = np.random.default_rng(61)
    draws = [
        (SpinBoundary({5: int(rng.integers(q))}, q=q), box_matrix(rng, q, 0.2), int(rng.integers(q)))
        for _ in range(2)
    ]
    cache = polymers._polymer_structure
    assert cache.cache_info().maxsize is not None
    for call in (
        lambda sigma, A, i: hom_ratio_series(g, 1, i, sigma, A, order=4).coeffs,
        lambda sigma, A, i: hom_Z_via_polymers(g, A, z=0.7 + 0.2j, sigma=sigma),
    ):
        first = [call(*d) for d in draws]
        assert [call(*d) for d in reversed(draws)] == first[::-1]
        cache.cache_clear()
        assert [call(*d) for d in draws] == first
        assert [call(*d) for d in draws] == first


def test_delta_Delta_pinned_value():
    ds = delta_Delta(3)
    assert abs(ds.delta - 0.18450436491409522) <= 1e-12
    assert 0 < ds.angle < 2 * math.pi / 9


def test_delta_Delta_monotone_and_scaled_floor():
    deltas = [delta_Delta(d).delta for d in range(3, 11)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert min(d * delta_Delta(d).delta for d in range(3, 65)) > 0.5


def test_delta_Delta_rejects_small_degree():
    with pytest.raises(ValueError):
        delta_Delta(2)


def test_barvinok_zero_check_in_box():
    rng = np.random.default_rng(54)
    for _ in range(10):
        g = random_graph(rng, 6, p=0.4, max_degree=3)
        q = int(rng.integers(2, 4))
        A = box_matrix(rng, q, 0.95 * delta_Delta(3).delta)
        rep = barvinok_zero_check(g, A, samples=3, seed=7)
        assert rep.hypothesis_ok
        assert rep.zero_free
        assert rep.abs_Z > 0
        assert rep.min_edge_abs_Z > 0
        assert rep.edge_samples == 3


def test_barvinok_zero_check_at_J():
    g = path_graph(4)
    sigma = SpinBoundary({0: 1}, q=2)
    rep = barvinok_zero_check(g, np.ones((2, 2)), sigma=sigma)
    assert rep.hypothesis_ok
    assert abs(rep.abs_Z - 2**3) <= 1e-9
    assert math.isnan(rep.min_edge_abs_Z)


@pytest.mark.parametrize("sigma, Z", [(None, 8.0), (SpinBoundary({0: 1}, 2), 4.0)])
def test_barvinok_zero_check_edgeless_samples_are_Z(sigma, Z):
    # with no edge to draw a matrix for, each sample's sum is Z itself: not
    # a sum over q = 1 colors, and no clash with the boundary's q
    rep = barvinok_zero_check(from_edges(3, []), np.ones((2, 2)), sigma=sigma, samples=1)
    assert rep.abs_Z == Z
    assert rep.min_edge_abs_Z == Z


def test_barvinok_zero_check_edge_samples_are_pinned():
    # the sampled matrices read the seeded stream edge by edge, q x q radii
    # then q x q angles; any other order changes this value
    g = grid_graph(3, 3)
    A = 1.0 + 0.15 * np.array([[0.3, 0.5j, -0.4], [0.5j, -0.7, 0.1 + 0.2j], [-0.4, 0.1 + 0.2j, 0.6]])
    rep = barvinok_zero_check(g, A, sigma=SpinBoundary({0: 2, 8: 1}, 3), samples=3, seed=2022)
    assert rep.hypothesis_ok
    assert repr(rep.min_edge_abs_Z) == "1947.9072030517561"


def test_barvinok_zero_check_outside_box_reports_without_failing():
    g = cycle_graph(6)
    sigma = SpinBoundary({0: 0, 3: 1}, q=2)
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])  # far outside any box
    rep = barvinok_zero_check(g, A, sigma=sigma)
    assert not rep.hypothesis_ok
    assert rep.abs_Z >= 0.0


def test_build_edge_matrices_telescopes():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, p=0.7)
        if not g.edges() or any(g.degree(u) == 0 for u in range(n)):
            continue
        q = 2
        A = box_matrix(rng, q, 0.3)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        xi = 0.5 + rng.uniform(size=(n, q)) + 1j * rng.uniform(size=(n, q)) * 0.3
        mats = build_edge_matrices(g, A, z, xi)
        got = edge_matrix_Z(g, mats)
        J = np.ones((q, q))
        want = brute_hom_Z(g, J + z * (A - J), xi=xi.tolist())
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_build_edge_matrices_is_the_per_edge_formula():
    # the triangle's vertex 3 is on no edge: its xi row, a 0 in it included,
    # is never read
    rng = np.random.default_rng(57)
    cases = [(cycle_graph(5), 3), (from_edges(4, [(0, 1), (1, 2), (0, 2)]), 2)]
    for g, q in cases:
        A = box_matrix(rng, q, 0.3)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        xi = 0.5 + rng.uniform(size=(g.n, q)) + 0.3j * rng.uniform(size=(g.n, q))
        if g.n == 4:
            xi[3, 0] = 0.0
        M = np.ones((q, q), dtype=complex) + z * (A - np.ones((q, q)))
        roots = {u: np.exp(np.log(xi[u]) / g.degree(u)) for u in range(g.n) if g.degree(u)}
        got = build_edge_matrices(g, A, z, xi)
        assert list(got) == g.edges()
        for u, w in g.edges():
            assert np.array_equal(got[u, w], M * np.outer(roots[u], roots[w]))
    assert build_edge_matrices(from_edges(2, []), np.ones((2, 2)), 0.5, np.ones((2, 2))) == {}


def test_bounded_ratio_check_in_box():
    g = path_graph(4)
    sigma = SpinBoundary({3: 1}, q=2)
    rng = np.random.default_rng(56)
    limit = delta_Delta(3).delta / ((1.5**3) * 1.5)
    A = box_matrix(rng, 2, 0.9 * limit)
    rep = bounded_ratio_check(g, 0, 0, sigma, A, eta=0.5, eps=0.5, samples=40, seed=3)
    assert rep.hypothesis_ok
    assert rep.box_limit == pytest.approx(limit)
    assert rep.violations == ()
    assert rep.max_abs_ratio <= 2.0
    assert rep.max_identity_residual <= 1e-9
    assert rep.identity_points == 4


def test_bounded_ratio_check_with_no_identity_point():
    # ratio = 1 / (2 + 1e12 z) is below 1e-9 once |z| > ~1e-3: no sample
    # qualifies, and the identity check reports nothing rather than failing
    g = path_graph(2)
    sigma = SpinBoundary({1: 0}, q=2)
    A = np.array([[1e12, 1.0], [1.0, 1.0]])
    rep = bounded_ratio_check(g, 0, 1, sigma, A, eta=0.5, eps=0.5, samples=16, seed=1)
    assert rep.identity_points == 0
    assert rep.max_identity_residual == 0.0


def test_report_float_fields_are_python_floats():
    g = path_graph(4)
    sigma = SpinBoundary({3: 1}, q=2)
    rng = np.random.default_rng(56)
    A = box_matrix(rng, 2, 0.9 * delta_Delta(3).delta / ((1.5**3) * 1.5))
    reports = (
        bounded_ratio_check(g, 0, 0, sigma, A, eta=0.5, eps=0.5, samples=8, seed=3),
        barvinok_zero_check(g, A, sigma=sigma, samples=2, seed=7),
    )
    for rep in reports:
        for f in dataclasses.fields(rep):
            if f.type is float:
                assert type(getattr(rep, f.name)) is float, (type(rep).__name__, f.name)


def test_bounded_ratio_check_validates_inputs():
    g = path_graph(4)
    sigma = SpinBoundary({3: 1}, q=2)
    with pytest.raises(ValueError):
        bounded_ratio_check(g, 0, 0, sigma, np.ones((2, 2)), eta=0.0, eps=0.5)
    lonely = from_edges(2, [])
    with pytest.raises(ValueError):
        bounded_ratio_check(
            lonely, 0, 0, SpinBoundary({}, q=2), np.ones((2, 2)), eta=0.5, eps=0.5
        )


def test_sampled_checks_reject_zero_samples():
    g = path_graph(4)
    sigma, tau = SpinBoundary({3: 0}, q=2), SpinBoundary({3: 1}, q=2)
    A = [[1.005, 1], [1, 1.005]]
    with pytest.raises(ValueError, match="need at least one sample, got 0"):
        hom_ssm_experiment(g, 0, 0, sigma, tau, A, 0.5, samples=0)
    with pytest.raises(ValueError, match="need at least one sample, got 0"):
        bounded_ratio_check(g, 0, 0, sigma, A, eta=0.5, eps=0.5, samples=0)
    # a negative count is reported as passed; barvinok_zero_check allows 0
    with pytest.raises(ValueError, match="^need at least one sample, got -1$"):
        hom_ssm_experiment(g, 0, 0, sigma, tau, A, 0.5, samples=-1)
    with pytest.raises(ValueError, match="^need at least one sample, got -1$"):
        bounded_ratio_check(g, 0, 0, sigma, A, eta=0.5, eps=0.5, samples=-1)
    with pytest.raises(ValueError, match="^samples must be >= 0, got -3$"):
        barvinok_zero_check(g, A, sigma=sigma, samples=-3)


@pytest.mark.parametrize("samples", [2.5, True])
def test_sampled_checks_reject_a_sample_count_that_is_not_an_int(samples):
    g = path_graph(4)
    sigma, tau = SpinBoundary({3: 0}, q=2), SpinBoundary({3: 1}, q=2)
    A = [[1.005, 1], [1, 1.005]]
    message = f"^samples must be an integer, got {samples!r}$"
    with pytest.raises(ValueError, match=message):
        hom_ssm_experiment(g, 0, 0, sigma, tau, A, 0.5, samples=samples)
    with pytest.raises(ValueError, match=message):
        bounded_ratio_check(g, 0, 0, sigma, A, eta=0.5, eps=0.5, samples=samples)
    with pytest.raises(ValueError, match=message):
        barvinok_zero_check(g, A, sigma=sigma, samples=samples)


HOM_ENTRY_POINTS = {
    "hom_ratio": lambda g, v, i, sigma, tau, A: hom_ratio(g, v, i, sigma, A, 0.5),
    "hom_ratio_series": lambda g, v, i, sigma, tau, A: hom_ratio_series(g, v, i, sigma, A, order=2),
    "bounded_ratio_check": lambda g, v, i, sigma, tau, A: bounded_ratio_check(
        g, v, i, sigma, A, eta=0.5, eps=0.5, samples=8
    ),
    "hom_ssm_experiment": lambda g, v, i, sigma, tau, A: hom_ssm_experiment(
        g, v, i, sigma, tau, A, 0.5, samples=8
    ),
}


@pytest.mark.parametrize(
    "v,i,error,message",
    [
        (-1, 0, ValueError, "vertex -1 not in graph with n=4"),
        (4, 0, ValueError, "vertex 4 not in graph with n=4"),
        (0, 2, ValueError, "color 2 not in 0..1"),
        (3, 0, BoundaryError, "vertex 3 is pinned by the boundary"),
    ],
    ids=["vertex -1", "vertex n", "color q", "pinned vertex"],
)
@pytest.mark.parametrize("entry", sorted(HOM_ENTRY_POINTS))
def test_bad_hom_query_gets_one_error_from_every_entry_point(entry, v, i, error, message):
    g = path_graph(4)
    sigma, tau = SpinBoundary({3: 0}, q=2), SpinBoundary({3: 1}, q=2)
    with pytest.raises(error) as e:
        HOM_ENTRY_POINTS[entry](g, v, i, sigma, tau, [[1.005, 1], [1, 1.005]])
    assert type(e.value) is error
    assert str(e.value) == message


def no_sums(*args, **kwargs):
    raise AssertionError("summed before the inputs were checked")


def test_bounded_ratio_check_rejects_an_isolated_vertex_before_sampling(monkeypatch):
    monkeypatch.setattr(polymers, "_hom_ratio_sums", no_sums)
    lonely = from_edges(2, [])
    with pytest.raises(ValueError, match=r"^identity check needs deg\(0\) >= 1$"):
        bounded_ratio_check(lonely, 0, 0, SpinBoundary({}, q=2), np.ones((2, 2)), eta=0.5, eps=0.5)
    # the patched route is the one a valid call sums through
    with pytest.raises(AssertionError, match="summed before"):
        bounded_ratio_check(path_graph(2), 0, 0, SpinBoundary({}, q=2), np.ones((2, 2)), eta=0.5, eps=0.5)


def test_hom_ssm_experiment_checks_both_boundaries_before_summing(monkeypatch):
    monkeypatch.setattr(polymers, "_hom_ratio_sums", no_sums)
    g, A = path_graph(4), np.ones((2, 2))
    sigma = SpinBoundary({3: 0}, q=2)
    with pytest.raises(BoundaryError, match="^vertex 0 is pinned by the boundary$"):
        hom_ssm_experiment(g, 0, 0, sigma, SpinBoundary({0: 1, 3: 1}, q=2), A, 0.5)
    with pytest.raises(BoundaryError, match="^boundary has q=3, matrix has q=2$"):
        hom_ssm_experiment(g, 0, 0, sigma, SpinBoundary({3: 1}, q=3), A, 0.5)
    # the patched route is the one a valid call sums through
    with pytest.raises(AssertionError, match="summed before"):
        hom_ssm_experiment(g, 0, 0, sigma, SpinBoundary({3: 1}, q=2), A, 0.5)


def test_hom_ssm_experiment_path():
    g = path_graph(6)
    eta = 0.5
    c = 0.9 * (1 - eta) * delta_Delta(3).delta
    A = [[1 + c, 1 - c], [1 - c, 1 + c]]
    sigma = SpinBoundary({5: 0}, q=2)
    tau = SpinBoundary({5: 1}, q=2)
    rep = hom_ssm_experiment(g, 0, 0, sigma, tau, A, eta)
    assert rep.hypothesis_ok
    assert rep.distance == 5
    assert rep.passed
    assert rep.gap <= rep.bound
    assert rep.bound == pytest.approx(rep.decay_C * (1 - eta) ** 5, rel=1e-12)


def test_hom_ssm_gap_shrinks_with_distance():
    eta = 0.5
    c = 0.9 * (1 - eta) * delta_Delta(3).delta
    A = [[1 + c, 1 - c], [1 - c, 1 + c]]
    gaps = []
    for n in (3, 5, 7):
        g = path_graph(n)
        sigma = SpinBoundary({n - 1: 0}, q=2)
        tau = SpinBoundary({n - 1: 1}, q=2)
        rep = hom_ssm_experiment(g, 0, 0, sigma, tau, A, eta)
        gaps.append(rep.gap)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_hom_ssm_equal_boundaries():
    g = path_graph(5)
    sigma = SpinBoundary({4: 1}, q=2)
    rep = hom_ssm_experiment(g, 0, 0, sigma, sigma, [[1.02, 1], [1, 1.02]], 0.5)
    assert math.isinf(rep.distance)
    assert rep.gap == 0.0
    assert rep.bound == 0.0
    assert rep.passed


def test_hom_ssm_at_J_gap_zero():
    g = path_graph(5)
    sigma = SpinBoundary({4: 0}, q=2)
    tau = SpinBoundary({4: 1}, q=2)
    rep = hom_ssm_experiment(g, 0, 0, sigma, tau, np.ones((2, 2)), 0.5)
    assert rep.gap == 0.0
    assert rep.passed


MATRIX_ENTRY_POINTS = pytest.mark.parametrize(
    "call",
    [
        lambda g, A: hom_Z_via_polymers(g, A),
        lambda g, A: hom_ratio_series(g, 0, 0, SpinBoundary({}, 2), A, order=2),
        lambda g, A: barvinok_zero_check(g, A),
        lambda g, A: build_edge_matrices(g, A, 1.0, np.ones((g.n, 2))),
        lambda g, A: bounded_ratio_check(g, 0, 0, SpinBoundary({2: 1}, 2), A, eta=0.5, eps=0.5),
        lambda g, A: hom_ssm_experiment(
            g, 0, 0, SpinBoundary({2: 0}, 2), SpinBoundary({2: 1}, 2), A, 0.5
        ),
    ],
    ids=[
        "hom_Z_via_polymers",
        "hom_ratio_series",
        "barvinok_zero_check",
        "build_edge_matrices",
        "bounded_ratio_check",
        "hom_ssm_experiment",
    ],
)


@MATRIX_ENTRY_POINTS
def test_non_symmetric_matrix_is_rejected(call):
    # an undirected graph gives no orientation to read A_{c(u), c(w)} by
    A = [[1.01, 1.0], [0.99, 1.0]]
    with pytest.raises(ValueError, match="symbol matrix must be symmetric"):
        call(path_graph(3), A)


@MATRIX_ENTRY_POINTS
@pytest.mark.parametrize("entry", [math.inf, math.nan, complex(1, math.inf)], ids=["inf", "nan", "complex-inf"])
def test_non_finite_matrix_is_rejected(call, entry):
    # an infinite entry gave NaN sums, and NaN was blamed on symmetry
    A = [[entry, 1.0], [1.0, 1.0]]
    with pytest.raises(ValueError, match="symbol matrix entries must be finite"):
        call(path_graph(3), A)
