"""Property tests for the exact kernels against the brute-force oracles in
helpers.py: the hard-core frontier sweep over both of its coefficient rings
(against brute force, a relabelled copy of the graph and a disjoint union),
the frontier sweep of the homomorphism sums (per-edge matrices, vertex weights
and pins against brute force; its z-polynomial against brute force and
against a relabelled copy of the graph), the polymer series of the color
ratio against division of those polynomials, the canonical key of the
Ursell memo and the cluster series against a relabelled copy of the pattern
or graph (and the key's Ursell value against the subset scan), series long
division and the series oracles against exact integer and Fraction
references, the array route that samples the tail bound M against per-point
scalar evaluation, and the reduction of a graph by a hard-core boundary,
which the sweep takes as a bit mask of kept vertices, against brute force
and against the relabelled subgraph, the masked, radius-limited
breadth-first search and the components built on it against networkx,
every certified approx_cond_prob, on the strip ladder and on a given sector
map, against cond_prob_hardcore within its error bound, the odds ratio's
deletion identity against a sweep of g - v, the three polynomials of the
sweep that leaves v open against one sweep each, and the two scans against
their direct routes in helpers.py: ssm_scan on random trees, cycles, cubic
graphs and unions, and zero_scan's batched contours, through its doubling
and inconclusive paths."""

import cmath
import math
from fractions import Fraction
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zeromix import (
    HardcoreBoundary,
    IndPoly,
    SectorSpec,
    SpinBoundary,
    StripSpec,
    TruncationDepthError,
    ZeroRegionViolationError,
    approx_cond_prob,
    build_edge_matrices,
    cond_prob_hardcore,
    cycle_graph,
    edge_matrix_Z,
    eval_poly,
    from_edges,
    hom_ratio,
    hom_ratio_series,
    hom_Z,
    hom_Z_poly,
    ind_poly,
    logZ_series,
    multivariate_Z,
    path_graph,
    ratio_series_cluster,
    ssm_scan,
    zero_scan,
)
from zeromix.cluster import _blowup_ursell, _canonical_form
from zeromix.exact import (
    NEAR_ZERO_REL,
    _free_component,
    _hardcore_query,
    _hom_ratio_sums,
    _ind_poly_cached,
    _near_zero,
    _odds_polys,
    _open_polys,
    _ratio_polys,
    _ratios,
)
from zeromix.graphs import _all_vertices, _bfs, _hardcore_keep
from zeromix import harness, interpolate
from zeromix.interpolate import EPS_LADDER, _sampled_M
from zeromix.series import _long_division
from helpers import (
    brute_cond_prob,
    brute_edge_matrix_Z,
    brute_hom_Z,
    brute_ind_poly,
    brute_multivariate_Z,
    cell_corners,
    cell_winding,
    component_M,
    disjoint_union,
    horner_compose,
    nx_induced,
    pattern_bits,
    per_cell_zero_scan,
    per_trial_ssm_records,
    series_exp,
    series_quotient,
    ursell,
)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

ENTRIES = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
NEAR_ZERO = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


def relabel(g, perm):
    return from_edges(g.n, [(perm[u], perm[w]) for u, w in g.edges()])


@PROPERTY
@given(graphs())
def test_hardcore_sweep_integer_ring(g):
    assert ind_poly(g).coeffs == brute_ind_poly(g)


@PROPERTY
@given(st.data())
def test_hardcore_sweep_complex_ring(data):
    g = data.draw(graphs())
    w = data.draw(st.lists(ENTRIES, min_size=g.n, max_size=g.n))
    want = brute_multivariate_Z(g, w)
    # the summed magnitudes bound any cancellation between the two orders
    scale = brute_multivariate_Z(g, [abs(x) for x in w]).real
    assert abs(multivariate_Z(g, w) - want) <= 1e-9 * (1 + scale)


@PROPERTY
@given(st.data())
def test_ind_poly_ignores_vertex_labels(data):
    # the sweep's order follows degrees and labels, so a relabelling
    # changes the frontiers but not one coefficient
    g = data.draw(graphs(max_n=14))
    perm = data.draw(st.permutations(range(g.n)))
    assert ind_poly(relabel(g, perm)).coeffs == ind_poly(g).coeffs


@PROPERTY
@given(st.data())
def test_ind_poly_of_disjoint_union_is_product(data):
    g = data.draw(graphs(max_n=8))
    h = data.draw(graphs(max_n=8))
    # interleave the two parts' labels
    perm = data.draw(st.permutations(range(g.n + h.n)))
    union = disjoint_union(g, h)
    a, b = ind_poly(g).coeffs, ind_poly(h).coeffs
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    assert ind_poly(relabel(union, perm)).coeffs == tuple(product)


@PROPERTY
@given(st.data())
def test_multivariate_Z_ignores_vertex_labels(data):
    g = data.draw(graphs(max_n=12))
    w = data.draw(st.lists(ENTRIES, min_size=g.n, max_size=g.n))
    perm = data.draw(st.permutations(range(g.n)))
    moved = [0j] * g.n
    for v, x in enumerate(w):
        moved[perm[v]] = x
    scale = multivariate_Z(g, [abs(x) for x in w]).real
    assert abs(multivariate_Z(relabel(g, perm), moved) - multivariate_Z(g, w)) <= 1e-12 * scale


@PROPERTY
@given(st.data())
def test_hom_Z_poly_matches_brute_hom_Z(data):
    g = data.draw(graphs(max_n=6))
    q = data.draw(st.integers(2, 3))
    A = np.array(data.draw(st.lists(ENTRIES, min_size=q * q, max_size=q * q))).reshape(q, q)
    # a symbol matrix must be symmetric
    A = (A + A.T) / 2
    pins = data.draw(st.dictionaries(st.integers(0, g.n - 1), st.integers(0, q - 1))) if g.n else {}
    sigma = SpinBoundary(pins, q) if pins else None
    coeffs = hom_Z_poly(g, A, sigma=sigma)
    assert len(coeffs) == g.num_edges() + 1
    J = np.ones((q, q))
    for z in (0.0, 1.0, -0.7, 0.3 + 0.4j):
        want = brute_hom_Z(g, J + z * (A - J), sigma=sigma)
        scale = brute_hom_Z(g, J + abs(z) * np.abs(A - J), sigma=sigma).real
        assert abs(eval_poly(coeffs, z) - want) <= 1e-9 * (1 + scale)


@PROPERTY
@given(st.data())
def test_edge_matrix_Z_matches_brute_sum(data):
    g = data.draw(graphs(max_n=9))
    # edge_matrix_Z reads q off the matrices
    assume(g.num_edges())
    # keep the brute-force sum to a few thousand colorings
    q = data.draw(st.integers(2, 3 if g.n <= 6 else 2))
    mats = {
        e: np.array(data.draw(st.lists(ENTRIES, min_size=q * q, max_size=q * q))).reshape(q, q)
        for e in g.edges()
    }
    xi = None
    if data.draw(st.booleans()):
        xi = np.array(data.draw(st.lists(ENTRIES, min_size=g.n * q, max_size=g.n * q))).reshape(g.n, q)
    pins = data.draw(st.dictionaries(st.integers(0, g.n - 1), st.integers(0, q - 1))) if g.n else {}
    sigma = SpinBoundary(pins, q) if pins else None
    want = brute_edge_matrix_Z(g, q, mats, xi=xi, sigma=sigma)
    abs_xi = None if xi is None else np.abs(xi)
    scale = brute_edge_matrix_Z(g, q, {e: np.abs(M) for e, M in mats.items()}, xi=abs_xi, sigma=sigma).real
    assert abs(edge_matrix_Z(g, mats, xi=xi, sigma=sigma) - want) <= 1e-12 * (1 + scale)


@PROPERTY
@given(st.data())
def test_batched_edge_matrix_Z_matches_single_sums(data):
    # each element of a batch is the sum of the matrices at its index, as
    # one single-matrix call and brute force give it
    g = data.draw(graphs(max_n=7))
    assume(g.num_edges())
    q = data.draw(st.integers(2, 3))
    b = data.draw(st.integers(1, 4))
    stacks = {
        e: np.array(data.draw(st.lists(ENTRIES, min_size=b * q * q, max_size=b * q * q))).reshape(b, q, q)
        for e in g.edges()
    }
    xi = None
    if data.draw(st.booleans()):
        xi = np.array(data.draw(st.lists(ENTRIES, min_size=g.n * q, max_size=g.n * q))).reshape(g.n, q)
    pins = data.draw(st.dictionaries(st.integers(0, g.n - 1), st.integers(0, q - 1)))
    sigma = SpinBoundary(pins, q) if pins else None
    got = edge_matrix_Z(g, stacks, xi=xi, sigma=sigma)
    assert got.shape == (b,)
    # the largest magnitudes over the batch bound every element's cancellation
    bound = {e: np.abs(S).max(axis=0) for e, S in stacks.items()}
    abs_xi = None if xi is None else np.abs(xi)
    scale = 1 + brute_edge_matrix_Z(g, q, bound, xi=abs_xi, sigma=sigma).real
    for k in range(b):
        mats = {e: S[k] for e, S in stacks.items()}
        assert abs(got[k] - edge_matrix_Z(g, mats, xi=xi, sigma=sigma)) <= 1e-12 * scale
        assert abs(got[k] - brute_edge_matrix_Z(g, q, mats, xi=xi, sigma=sigma)) <= 1e-12 * scale


@PROPERTY
@given(st.data())
def test_batched_build_edge_matrices_match_single_calls(data):
    g = data.draw(graphs(max_n=7))
    q = data.draw(st.integers(2, 3))
    b = data.draw(st.integers(1, 4))
    A = np.array(data.draw(st.lists(ENTRIES, min_size=q * q, max_size=q * q))).reshape(q, q)
    A = (A + A.T) / 2
    zs = np.array(data.draw(st.lists(ENTRIES, min_size=b, max_size=b)))
    # nonzero weights: build_edge_matrices takes their logarithms
    weights = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    xi = np.array(data.draw(st.lists(weights, min_size=b * g.n * q, max_size=b * g.n * q))).reshape(b, g.n, q)
    got = build_edge_matrices(g, A, zs, xi)
    assert list(got) == g.edges()
    for k in range(b):
        single = build_edge_matrices(g, A, zs[k], xi[k])
        for e, M in single.items():
            assert got[e].shape == (b, q, q)
            assert np.array_equal(got[e][k], M)


@PROPERTY
@given(st.data())
def test_hom_Z_poly_ignores_vertex_labels(data):
    # the sweep adds vertices in label order, so a relabelling changes every
    # frontier it passes through but not the sum
    g = data.draw(graphs(max_n=9))
    q = data.draw(st.integers(2, 3))
    A = np.array(data.draw(st.lists(ENTRIES, min_size=q * q, max_size=q * q))).reshape(q, q)
    # symmetric, since a relabelling may reverse an edge
    A = (A + A.T) / 2
    pins = data.draw(st.dictionaries(st.integers(0, g.n - 1), st.integers(0, q - 1))) if g.n else {}
    perm = data.draw(st.permutations(range(g.n)))
    h = relabel(g, perm)
    sigma = SpinBoundary(pins, q) if pins else None
    tau = SpinBoundary({perm[u]: c for u, c in pins.items()}, q) if pins else None
    # coefficients of the same sum over |A - J| bound every cancellation
    J = np.ones((q, q))
    scale = hom_Z_poly(g, J + np.abs(A - J), sigma=sigma).real
    diff = np.abs(hom_Z_poly(h, A, sigma=tau) - hom_Z_poly(g, A, sigma=sigma))
    assert np.all(diff <= 1e-12 * scale)


@PROPERTY
@given(st.data())
def test_hom_ratio_sums_match_two_pinned_sweeps(data):
    # one sweep with v's axis left open gives the pair of z-polynomials that
    # hom_Z_poly gives with v pinned and unpinned
    g = data.draw(graphs(max_n=8))
    assume(g.n)
    q = data.draw(st.integers(2, 3))
    A = np.array(data.draw(st.lists(ENTRIES, min_size=q * q, max_size=q * q))).reshape(q, q)
    A = (A + A.T) / 2
    v = data.draw(st.integers(0, g.n - 1))
    others = [u for u in range(g.n) if u != v]
    pins = data.draw(st.dictionaries(st.sampled_from(others), st.integers(0, q - 1))) if others else {}
    sigma = SpinBoundary(pins, q)
    i = data.draw(st.integers(0, q - 1))
    num, den = _hom_ratio_sums(g, v, i, A - 1.0, sigma, L=g.num_edges() + 1)
    # coefficients of the same sums over |A - J| bound every cancellation
    J = np.ones((q, q))
    for got, b in ((num, SpinBoundary({**sigma.assignment, v: i}, sigma.q)), (den, sigma)):
        assert got.shape == (g.num_edges() + 1,)
        scale = hom_Z_poly(g, J + np.abs(A - J), sigma=b).real
        assert np.all(np.abs(got - hom_Z_poly(g, A, sigma=b)) <= 1e-12 * scale)
    for z in (1.0, -0.6, 0.3 + 0.4j):
        M = J + z * (A - J)
        num, den = hom_Z(g, M, sigma=SpinBoundary({**sigma.assignment, v: i}, sigma.q)), hom_Z(g, M, sigma=sigma)
        # the summed magnitudes over |den| bound either route's rounding
        mass = hom_Z(g, np.abs(M), sigma=sigma).real
        assume(abs(den) > 1e-6 * mass and not _near_zero(num, den))
        assert abs(hom_ratio(g, v, i, sigma, A, z) - num / den) <= 1e-12 * mass / abs(den) * (1 + abs(num / den))


@PROPERTY
@given(st.data())
def test_hom_ratio_series_matches_division(data):
    # at most 10 edges: the polymer graph of a dense 7-vertex graph at order 4
    # has thousands of vertices
    n = data.draw(st.integers(1, 7))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True)) if pairs else []
    g = from_edges(n, edges)
    q = data.draw(st.integers(2, 3))
    A = 1.0 + np.array(data.draw(st.lists(NEAR_ZERO, min_size=q * q, max_size=q * q))).reshape(q, q)
    A = (A + A.T) / 2
    v = data.draw(st.integers(0, n - 1))
    i = data.draw(st.integers(0, q - 1))
    others = [u for u in range(n) if u != v]
    pins = data.draw(st.dictionaries(st.sampled_from(others), st.integers(0, q - 1))) if others else {}
    sigma = SpinBoundary(pins, q)
    order = data.draw(st.integers(0, 4))
    want = series_quotient(
        hom_Z_poly(g, A, sigma=SpinBoundary({**sigma.assignment, v: i}, sigma.q)), hom_Z_poly(g, A, sigma=sigma), order
    )
    assert np.allclose(hom_ratio_series(g, v, i, sigma, A, order=order).coeffs, want, rtol=0, atol=1e-9)


def blowup(h, mults):
    """m_u copies of each vertex u of h; two copies are joined when they
    copy the same vertex or adjacent ones."""
    copies = [u for u in range(h.n) for _ in range(mults[u])]
    return from_edges(
        len(copies),
        [
            (a, b)
            for a in range(len(copies))
            for b in range(a + 1, len(copies))
            if copies[a] == copies[b] or copies[b] in h.adj[copies[a]]
        ],
    )


@PROPERTY
@given(st.data())
def test_canonical_key_ignores_vertex_labels(data):
    h = data.draw(graphs(max_n=6).filter(lambda h: h.n > 0))
    mults = data.draw(st.lists(st.integers(1, 3), min_size=h.n, max_size=h.n))
    big = blowup(h, mults)
    assume(len(big.edges()) <= 20)
    perm = data.draw(st.permutations(range(h.n)))
    moved = relabel(h, perm)
    moved_mults = [0] * h.n
    for u in range(h.n):
        moved_mults[perm[u]] = mults[u]
    every = tuple(range(h.n))
    key, order = _canonical_form(pattern_bits(h, every), h.n)
    moved_key, moved_order = _canonical_form(pattern_bits(moved, every), h.n)
    assert moved_key == key
    want = ursell(big)
    assert _blowup_ursell(key, h.n, tuple(mults[u] for u in order)) == want
    assert _blowup_ursell(key, h.n, tuple(moved_mults[u] for u in moved_order)) == want


@PROPERTY
@given(st.data())
def test_cluster_series_ignore_vertex_labels(data):
    # the terms come in another order, but each coefficient is summed
    # exactly and rounded once, so not one bit moves
    g = data.draw(graphs(max_n=7).filter(lambda g: g.n > 0))
    perm = data.draw(st.permutations(range(g.n)))
    v = data.draw(st.integers(0, g.n - 1))
    order = data.draw(st.integers(0, 5))
    h = relabel(g, perm)
    assert logZ_series(h, order).coeffs == logZ_series(g, order).coeffs
    assert ratio_series_cluster(h, perm[v], order).coeffs == ratio_series_cluster(g, v, order).coeffs


def _exact_quotient(num, den, order):
    """series_quotient in Fractions, the inputs padded with exact zeros."""
    pad = [Fraction(0)] * (order + 1)
    return series_quotient([Fraction(c) for c in num] + pad, [Fraction(c) for c in den] + pad, order)


@PROPERTY
@given(st.data())
def test_cluster_series_are_the_correctly_rounded_exact_series(data):
    g = data.draw(graphs(max_n=7).filter(lambda g: g.n > 0))
    v = data.draw(st.integers(0, g.n - 1))
    order = data.draw(st.integers(0, 6))
    den = brute_ind_poly(g)
    rest, _ = nx_induced(g, [u for u in range(g.n) if u != v and u not in g.adj[v]])
    ratio = _exact_quotient((0,) + brute_ind_poly(rest), den, order)
    assert ratio_series_cluster(g, v, order).coeffs == tuple(complex(float(c)) for c in ratio)
    # c_k = [x^(k-1)] (I'/I) / k
    log_deriv = _exact_quotient([k * c for k, c in enumerate(den)][1:], den, order)
    want = [0.0] + [float(c / k) for k, c in enumerate(log_deriv[:order], 1)]
    assert logZ_series(g, order).coeffs == tuple(map(complex, want))


SMALL_INT = st.integers(-3, 3)


def _int_series(data, order, a0=SMALL_INT):
    return [data.draw(a0)] + data.draw(st.lists(SMALL_INT, min_size=order, max_size=order))


def _ref_mul(a, b):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _ref_exp(a):
    out = [Fraction(1)]
    for n in range(1, len(a)):
        out.append(sum(k * a[k] * out[n - k] for k in range(1, n + 1)) / n)
    return out


@PROPERTY
@given(st.data())
def test_power_series_matches_exact_reference(data):
    # integer coefficients in [-3, 3] up to order 8 keep every value far below
    # 2^53, so composition and division by a unit are exact in any summation
    # order
    order = data.draw(st.integers(0, 8))
    a = _int_series(data, order)
    inner = _int_series(data, order, a0=st.just(0))
    unit = _int_series(data, order, a0=st.sampled_from([1, -1]))

    composite = [0] * (order + 1)
    power = [1] + [0] * order
    for c in a:
        composite = [x + c * y for x, y in zip(composite, power)]
        power = _ref_mul(power, inner)
    assert list(horner_compose(a, inner)) == composite

    # the reciprocal 1 / unit and a general quotient a / unit, in float64 and
    # in complex arithmetic
    for num in ((1,), a):
        want = _exact_quotient(num, unit, order)
        assert list(_long_division(num, unit, order)) == want
        assert list(_long_division(np.array(num, dtype=complex), unit, order)) == want

    # exp is exact up to rounding of its divisions: compare relative to the
    # same series of |coefficients|, which bounds any cancellation
    tail = [0] + a[1:]
    want = _ref_exp(tail)
    scale = _ref_exp([abs(x) for x in tail])
    got = series_exp(tail)
    for g, w, s in zip(got, want, scale):
        assert abs(g - float(w)) <= 1e-12 * float(s)


# --- the power-table composition of approx_cond_prob -----------------------


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from(EPS_LADDER),
    st.floats(0.02, 5.0, exclude_min=True, exclude_max=True),
    st.lists(st.integers(0, 50), max_size=40).map(lambda p: [1, *p[1:], 1] if p else [1]),
    st.lists(st.integers(0, 50), max_size=41),
    st.integers(1, 256),
)
def test_power_table_composition_matches_horner(eps, lam, den, num, n):
    # den is a degree-<=40 polynomial with a unit constant term and num one of
    # no higher degree, as x * I(H - N[v]) and I(H) are; n up to 256 reaches
    # tables wider than the least width of 64
    num = num[: len(den)] or [0]
    spec = StripSpec(eps)
    shapes = []

    def spy(spec, lam, rows, cols):
        shapes.append((rows, cols))
        return power_table(spec, lam, rows, cols)

    power_table = interpolate._power_table
    with mock.patch.object(interpolate, "_power_table", spy):
        top, bottom = interpolate._composed(spec, lam, n, num, den)
    (rows, cols), = shapes
    degree = len(den[:n]) - 1
    assert degree + 1 <= rows <= 2 * (degree + 1) and cols >= n

    inner = lam * spec.coeffs(n - 1)
    for p, got in ((num, top), (den, bottom)):
        want = np.real(horner_compose(p, inner))
        assert got.dtype == np.float64 and got.shape == (n,)
        # every term is nonnegative, so both routes are accurate relative
        # to each coefficient
        assert (np.abs(got - want) <= 1e-13 * want).all()

    # den's zeros may lie near 0 here, unlike the ladder's, and the quotient
    # then grows like |nearest zero|^-k; 64 coefficients keep it finite
    m = min(n, 64)
    quotient = _long_division(top[:m], bottom[:m], m - 1)
    assert quotient.dtype == np.float64
    want = _long_division(top[:m].astype(complex), bottom[:m].astype(complex), m - 1)
    # each step's rounding scales with the largest coefficient so far
    scale = np.maximum.accumulate(np.abs(want))
    assert (np.abs(quotient - want) <= 1e-11 * scale).all()


# --- the companion-matrix roots of IndPoly ---------------------------------


@PROPERTY
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=13), st.booleans())
def test_ind_poly_roots_match_np_roots(coeffs, zero_constant):
    # degrees 0-12; a zero constant term goes through np.roots' own
    # handling of trailing zeros
    if zero_constant:
        coeffs[0] = 0
    got = IndPoly(tuple(coeffs)).roots()
    want = np.roots([float(c) for c in reversed(coeffs)])
    assert got.dtype == want.dtype and np.array_equal(got, want)


# --- the array route of the sampled bound M ---------------------------------

POINTS = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
INT_COEFFS = st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=12)
COMPLEX_COEFFS = st.lists(ENTRIES, min_size=1, max_size=12)


def _scale(coeffs, z):
    """sum_k |c_k| |z|^k, the size Horner's rounding error is measured in."""
    return sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))


@PROPERTY
@given(st.one_of(INT_COEFFS, COMPLEX_COEFFS), st.lists(POINTS, min_size=1, max_size=20))
def test_eval_poly_on_an_array_matches_each_point(coeffs, points):
    got = eval_poly(coeffs, np.array(points, dtype=complex))
    for z, val in zip(points, got):
        assert abs(val - eval_poly(coeffs, complex(z))) <= 1e-12 * _scale(coeffs, z)


UNIT_DISK = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(st.data())
def test_ratios_mark_the_points_the_scalar_route_finds_vanishing(data):
    num = data.draw(st.lists(ENTRIES, min_size=1, max_size=6))
    roots = data.draw(st.lists(UNIT_DISK, min_size=1, max_size=3))
    den = [complex(c) for c in np.poly(roots)[::-1]]
    points = data.draw(st.lists(UNIT_DISK, max_size=8))
    # points around a root of den at distances that put |den| on either
    # side of the near-zero threshold
    for _ in range(data.draw(st.integers(1, 8))):
        rho = data.draw(st.sampled_from(roots))
        t = 10.0 ** data.draw(st.floats(-16, -8)) * cmath.exp(1j * data.draw(st.floats(0, 6.3)))
        points.insert(data.draw(st.integers(0, len(points))), rho + t)
    zero = np.isnan(_ratios(num, den, np.array(points, dtype=complex)))
    compared = 0
    for z, got in zip(points, zero):
        a, b = eval_poly(num, z), eval_poly(den, z)
        threshold = NEAR_ZERO_REL * (1.0 + abs(a))
        # each route's Horner error is below 4 deg 2^-53 sum_k |c_k| |z|^k
        # at degree <= 3, so the two round |den| apart by less than this
        slack = 1e-9 * threshold + 1e-14 * _scale(den, z)
        if abs(abs(b) - threshold) > slack:
            assert got == _near_zero(a, b)
            compared += 1
    assert compared >= len(points) // 2


@PROPERTY
@given(st.data())
def test_sampled_M_on_an_array_stops_at_the_first_vanishing_point(data):
    # den = (z - c1)(z - c2) with dyadic roots, so it is exactly 0 at each
    c1, c2 = (data.draw(st.integers(-16, 16)) / 8 for _ in range(2))
    num = data.draw(st.lists(ENTRIES, min_size=1, max_size=5))
    den = (c1 * c2, -(c1 + c2), 1.0)
    points = [z for z in data.draw(st.lists(POINTS, min_size=1, max_size=12))
              if abs(eval_poly(den, z)) > 0.1]
    assume(points)
    for c in data.draw(st.lists(st.sampled_from([c1, c2]), max_size=3)):
        points.insert(data.draw(st.integers(0, len(points))), complex(c))
    first = next((z for z in points if _near_zero(eval_poly(num, z), eval_poly(den, z))), None)
    array = np.array(points, dtype=complex)
    if first is None:
        sizes = [abs(eval_poly(num, z) / eval_poly(den, z)) for z in points]
        want = 1.5 * max(sizes)
        # first-order bound on how far the quotients' rounding can move M
        tol = 1.5e-12 * max(
            (_scale(num, z) + m * _scale(den, z)) / abs(eval_poly(den, z))
            for z, m in zip(points, sizes)
        )
        assert abs(_sampled_M(num, den, array) - want) <= tol
    else:
        with pytest.raises(ZeroRegionViolationError) as e:
            _sampled_M(num, den, array)
        assert e.value.point == first
    with pytest.raises(ValueError, match="need at least one sample, got 0"):
        _sampled_M(num, den, array[:0])


@PROPERTY
@given(
    st.sampled_from([path_graph, cycle_graph]),
    st.integers(3, 10),
    st.floats(0.05, 2.0),
    st.floats(0.1, 0.9),
    st.sampled_from([16, 64, 256]),
)
def test_estimate_M_on_the_sector_map_matches_each_point(family, n, lam, frac, samples):
    # paths and cycles are line graphs: the zeros of Z are real and negative,
    # and the sector image scaled by lam misses reals <= -3 lam delta / 4
    g = family(n)
    v = n // 2
    nearest = min(abs(rho) for rho in ind_poly(g).roots())
    spec = SectorSpec(frac * 4.0 * nearest / (3.0 * lam))
    num, den = _ratio_polys(g, v)
    circle = [spec.r * cmath.exp(2j * math.pi * j / samples) for j in range(samples)]
    ws = [lam * spec.point(z) for z in circle]
    want = 1.5 * max(abs(eval_poly(num, w) / eval_poly(den, w)) for w in ws)
    assert abs(component_M(g, v, lam, spec, samples=samples) - want) <= 1e-12 * want


@st.composite
def pinned_graphs(draw, max_n=9):
    """A graph with at least two vertices, a vertex v of it and an occupancy
    boundary on other vertices whose in-set is independent."""
    g = draw(graphs(max_n=max_n).filter(lambda g: g.n >= 2))
    v = draw(st.integers(0, g.n - 1))
    others = [u for u in range(g.n) if u != v]
    region = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others)))
    values = {}
    for u in region:
        # a neighbor already pinned in forces u out
        free = all(values.get(w) != 1 for w in g.adj[u])
        values[u] = draw(st.integers(0, 1)) if free else 0
    return g, v, HardcoreBoundary(values)


def _mask_bits(g, mask):
    return [u for u in range(g.n) if mask >> u & 1]


@PROPERTY
@given(pinned_graphs(), st.floats(0.05, 4.0))
def test_cond_prob_hardcore_matches_brute_force(case, lam):
    g, v, sigma = case
    assert abs(cond_prob_hardcore(g, v, sigma, lam) - brute_cond_prob(g, v, sigma, lam)) <= 1e-12


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    graphs(),
    st.floats(0.02, 4.0, exclude_min=True, exclude_max=True),
    st.sampled_from([1e-4, 1e-5, 1e-6, 1e-7, 1e-8]),
    st.sampled_from([64, 128, 256]),
)
def test_approx_cond_prob_holds_its_bound_at_every_certified_vertex(g, lam, target, max_depth):
    sigma = HardcoreBoundary({})
    for v in range(g.n):
        try:
            res = approx_cond_prob(g, v, sigma, lam, target, max_depth=max_depth)
        except (TruncationDepthError, ZeroRegionViolationError):
            continue
        assert abs(res.value - cond_prob_hardcore(g, v, sigma, lam)) <= res.error_bound


def test_approx_cond_prob_on_the_sector_map_holds_its_bound():
    # a given SectorSpec runs through the same rung walker as the strip
    # ladder: each query certifies within its bound, up to the rounding of
    # the value, or raises one of the two ladder errors
    certified = []

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        graphs(),
        st.floats(0.02, 4.0, exclude_min=True, exclude_max=True),
        st.floats(0.01, 4.0),
    )
    def check(g, lam, delta):
        sigma = HardcoreBoundary({})
        for v in range(g.n):
            try:
                res = approx_cond_prob(g, v, sigma, lam, 1e-6, spec=SectorSpec(delta), max_depth=256)
            except (TruncationDepthError, ZeroRegionViolationError):
                continue
            exact = cond_prob_hardcore(g, v, sigma, lam)
            assert res.rate_r == SectorSpec(delta).r
            assert abs(res.value - exact) <= res.error_bound + 4 * 2.0**-52 * abs(exact)
            certified.append(v)

    check()
    assert certified


@PROPERTY
@given(pinned_graphs())
def test_hardcore_boundary_keeps_the_free_vertices(case):
    g, _, sigma = case
    ins = sigma.in_vertices()
    # a vertex stays unless it is pinned or next to an occupied pin
    want = [u for u in range(g.n) if u not in sigma.region and not ins & set(g.adj[u])]
    assert _mask_bits(g, _hardcore_keep(g, *sigma._masks())) == want


@PROPERTY
@given(pinned_graphs())
def test_hardcore_query_keeps_the_free_component_of_v(case):
    g, v, sigma = case
    ins = sigma.in_vertices()
    free = [u for u in range(g.n) if u not in sigma.region and not ins & set(g.adj[u])]
    got = _free_component(g, v, _hardcore_query(g, v, sigma, 1.0))
    if v not in free:
        assert got is None
        return
    h = nx.Graph()
    h.add_nodes_from(free)
    h.add_edges_from((u, w) for u, w in g.edges() if u in free and w in free)
    assert _mask_bits(g, got) == sorted(nx.node_connected_component(h, v))


@PROPERTY
@given(st.data())
def test_ratio_polys_under_a_mask_match_the_subgraph(data):
    g = data.draw(graphs(max_n=9).filter(lambda g: g.n >= 1))
    v = data.draw(st.integers(0, g.n - 1))
    keep = data.draw(st.integers(0, (1 << g.n) - 1)) | 1 << v
    h, mapping = nx_induced(g, _mask_bits(g, keep))
    vv = mapping[v]
    rest, _ = nx_induced(h, [u for u in range(h.n) if u != vv and u not in h.adj[vv]])
    got = _ratio_polys(g, v, keep)
    assert got == _ratio_polys(h, vv)
    assert got == ((0,) + brute_ind_poly(rest), brute_ind_poly(h))


@PROPERTY
@given(st.data())
def test_masked_bfs_matches_networkx_on_the_induced_subgraph(data):
    g = data.draw(graphs(max_n=12))
    assume(g.n > 0)
    kept = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    source = data.draw(st.integers(0, g.n - 1))
    kept[source] = True
    radius = data.draw(st.none() | st.integers(0, g.n))
    h = nx.Graph()
    h.add_nodes_from(u for u in range(g.n) if kept[u])
    h.add_edges_from((u, w) for u, w in g.edges() if kept[u] and kept[w])
    keep = sum(1 << u for u in range(g.n) if kept[u])
    got = _bfs(g, source, keep, radius)
    assert got == nx.single_source_shortest_path_length(h, source, cutoff=radius)
    # breadth first: the distances come in increasing order
    assert list(got.values()) == sorted(got.values())


@PROPERTY
@given(graphs(max_n=12))
def test_odds_polys_follow_the_deletion_identity(g):
    # I(g - v) = I(g) - x I(g - N[v]) on the integer coefficients, top
    # zeros dropped: the polynomial a sweep of g - v gives
    for v in range(g.n):
        num, den = _odds_polys(g, v)
        assert num == _ratio_polys(g, v)[0]
        assert den == _ind_poly_cached(g, _all_vertices(g) & ~(1 << v))


@PROPERTY
@given(st.data())
def test_open_sweep_matches_the_two_sweeps(data):
    # one sweep with v open gives x I(H - N[v]), I(H) and I(H - v), which
    # once took a sweep each; v may also be isolated in g or in the mask
    g = data.draw(graphs(max_n=12).filter(lambda g: g.n >= 1))
    v = data.draw(st.integers(0, g.n - 1))
    keep = data.draw(st.integers(0, (1 << g.n) - 1)) | 1 << v
    mode = data.draw(st.sampled_from(["mask", "isolated in g", "neighbors masked out"]))
    if mode == "isolated in g":
        g = from_edges(g.n, [e for e in g.edges() if v not in e])
    closed = sum(1 << w for w in g.adj[v]) | 1 << v
    if mode == "neighbors masked out":
        keep &= ~closed | 1 << v
    num, den = _ratio_polys(g, v, keep)
    assert (num, den) == ((0,) + _ind_poly_cached(g, keep & ~closed), _ind_poly_cached(g, keep))
    assert _open_polys(g, v, keep) == (_ind_poly_cached(g, keep & ~(1 << v)), num, den)
    whole = _all_vertices(g)
    want = (0,) + _ind_poly_cached(g, whole & ~closed), _ind_poly_cached(g, whole & ~(1 << v))
    assert _odds_polys(g, v) == want


def test_open_sweep_refuses_a_vertex_outside_the_mask():
    # its frontier bit would stay 0, and the sum with v would be all of Z
    with pytest.raises(ValueError, match="^open vertex 0 is not kept$"):
        _ratio_polys(path_graph(3), 0, 0b110)


# the smallest size of each kind of graph scan_pieces draws
PIECE_MIN = {"tree": 1, "cycle": 3, "cubic": 4}


@st.composite
def scan_pieces(draw, max_n):
    """A random tree, a cycle or a random cubic graph of at most max_n
    vertices."""
    kind = draw(st.sampled_from([k for k, m in PIECE_MIN.items() if m <= max_n]))
    n = draw(st.integers(PIECE_MIN[kind], max_n))
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "cubic":
        n -= n % 2
        return from_edges(n, nx.random_regular_graph(3, n, seed=draw(st.integers(0, 2**16))).edges())
    return from_edges(n, [(draw(st.integers(0, v - 1)), v) for v in range(1, n)])


@st.composite
def scan_graphs(draw, max_n=12):
    """A scan_pieces graph, or the disjoint union of two, of at most max_n
    vertices."""
    g = draw(scan_pieces(max_n))
    if g.n < max_n and draw(st.booleans()):
        g = disjoint_union(g, draw(scan_pieces(max_n - g.n)))
    return g


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.lists(scan_graphs(), min_size=1, max_size=2),
    st.floats(0.05, 4.0),
    st.integers(1, 6),
    st.integers(0, 2**40),
)
def test_ssm_scan_matches_the_per_trial_route_on_random_graphs(scanned, lam, max_distance, seed):
    # the scan conditions on each free ball inside the sphere with no
    # component search; the records must be those of a whole-graph
    # conditioning per draw
    records, fit = ssm_scan(scanned, lam, 40, max_distance, seed=seed, collect_boundaries=True)
    want, skipped = per_trial_ssm_records(scanned, lam, 40, max_distance, seed)
    assert repr(records) == repr(want)
    assert fit is None or fit.n_skipped_trials == skipped


@st.composite
def zero_scan_cases(draw):
    """A graph, a rectangle and a resolution of at most 6 x 6; half of the
    rectangles are drawn around a zero of the graph's Z."""
    g = draw(graphs())
    roots = [complex(r) for r in ind_poly(g).roots()]
    if roots and draw(st.booleans()):
        c = draw(st.sampled_from(roots))
    else:
        c = complex(draw(st.floats(-3.0, 1.0)), draw(st.floats(-2.0, 2.0)))
    a, b, d, e = (draw(st.floats(0.01, 2.0)) for _ in range(4))
    resolution = draw(st.integers(1, 6) | st.tuples(st.integers(1, 6), st.integers(1, 6)))
    return g, (c.real - a, c.real + b, c.imag - d, c.imag + e), resolution


# the cell (0, 0) has the zero -1 of 1 + lam as the first midpoint of its
# bottom side: an exact zero on a contour, next to a cell without one
@example((from_edges(1, []), (-1.0078125, -0.0078125, 0.0, 1.0), (1, 2)), harness.CONTOUR_TOL, harness.MAX_DOUBLINGS)
@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    zero_scan_cases(),
    st.sampled_from([harness.CONTOUR_TOL, 1e-2, 0.5, 1e9]),
    st.integers(0, harness.MAX_DOUBLINGS),
)
def test_zero_scan_matches_the_per_cell_route(case, tol, doublings):
    # the scan evaluates the open cells of a doubling round in one array
    # pass; a large CONTOUR_TOL forces cells through the doublings and few
    # doublings leave them inconclusive.  The windings themselves, which the
    # report only rounds, match the per-cell integrals bit for bit
    with mock.patch.object(harness, "CONTOUR_TOL", tol), mock.patch.object(harness, "MAX_DOUBLINGS", doublings):
        assert repr(zero_scan(*case)) == repr(per_cell_zero_scan(*case))
    g, rect, resolution = case
    poly = ind_poly(g)
    corners = list(cell_corners(rect, resolution if isinstance(resolution, tuple) else (resolution,) * 2).values())
    pts = harness.PTS_PER_SIDE << doublings
    want = [cell_winding(poly, c, pts) for c in corners]
    assert repr(list(harness._windings(poly, corners, pts))) == repr(want)
