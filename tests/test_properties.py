"""Property tests for the exact kernels against the brute-force oracles in
helpers.py: the hard-core frontier sweep over both of its coefficient rings
(against brute force, a relabelled copy of the graph and a disjoint union),
the frontier sweep of the homomorphism sums (per-edge matrices, vertex weights
and pins against brute force; its z-polynomial against brute force and
against a relabelled copy of the graph), the polymer series of the color
ratio against division of those polynomials, and PowerSeries arithmetic
against exact integer and Fraction references."""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zeromix import (
    PowerSeries,
    SpinBoundary,
    edge_matrix_Z,
    eval_poly,
    from_edges,
    hom_ratio_series,
    hom_Z_poly,
    ind_poly,
    multivariate_Z,
)
from helpers import (
    brute_edge_matrix_Z,
    brute_hom_Z,
    brute_ind_poly,
    brute_multivariate_Z,
    series_quotient,
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
    union = from_edges(g.n + h.n, g.edges() + [(u + g.n, w + g.n) for u, w in h.edges()])
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
        hom_Z_poly(g, A, sigma=sigma.extended(v, i)), hom_Z_poly(g, A, sigma=sigma), order
    )
    assert np.allclose(hom_ratio_series(g, v, i, sigma, A, order=order).coeffs, want, rtol=0, atol=1e-9)


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
    # 2^53, so mul, compose and reciprocal are exact in any summation order
    order = data.draw(st.integers(0, 8))
    a = _int_series(data, order)
    b = _int_series(data, order)
    inner = _int_series(data, order, a0=st.just(0))
    unit = _int_series(data, order, a0=st.sampled_from([1, -1]))

    assert PowerSeries(a).mul(PowerSeries(b)).coeffs == tuple(_ref_mul(a, b))

    composite = [0] * (order + 1)
    power = [1] + [0] * order
    for c in a:
        composite = [x + c * y for x, y in zip(composite, power)]
        power = _ref_mul(power, inner)
    assert PowerSeries(a).compose(PowerSeries(inner)).coeffs == tuple(composite)

    # 1/a0 = a0 for a0 = +-1
    recip = [unit[0]]
    for n in range(1, order + 1):
        recip.append(-unit[0] * sum(unit[k] * recip[n - k] for k in range(1, n + 1)))
    assert PowerSeries(unit).reciprocal().coeffs == tuple(recip)

    # exp is exact up to rounding of its divisions: compare relative to the
    # same series of |coefficients|, which bounds any cancellation
    tail = [0] + a[1:]
    want = _ref_exp(tail)
    scale = _ref_exp([abs(x) for x in tail])
    got = PowerSeries(tail).exp().coeffs
    for g, w, s in zip(got, want, scale):
        assert abs(g - float(w)) <= 1e-12 * float(s)
