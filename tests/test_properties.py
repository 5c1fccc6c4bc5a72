"""Property tests for the exact kernels against the brute-force oracles in
helpers.py: the hard-core frontier sweep over both of its coefficient rings
(against brute force, a relabelled copy of the graph and a disjoint union),
the frontier sweep of the homomorphism sums (per-edge matrices, vertex weights
and pins against brute force; its z-polynomial against brute force and
against a relabelled copy of the graph), the polymer series of the color
ratio against division of those polynomials, PowerSeries arithmetic
against exact integer and Fraction references, and the array route that
samples the tail bound M against per-point scalar evaluation."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zeromix import (
    PowerSeries,
    SectorSpec,
    SpinBoundary,
    ZeroRegionViolationError,
    cycle_graph,
    edge_matrix_Z,
    estimate_M,
    eval_poly,
    from_edges,
    h_point,
    hom_ratio_series,
    hom_Z_poly,
    ind_poly,
    multivariate_Z,
    path_graph,
)
from zeromix.exact import NEAR_ZERO_REL, _near_zero, _ratio_polys, _ratios
from zeromix.interpolate import _sampled_M
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
    ws = [lam * h_point(spec, z) for z in circle]
    want = 1.5 * max(abs(eval_poly(num, w) / eval_poly(den, w)) for w in ws)
    assert abs(estimate_M(g, v, lam, spec, samples=samples) - want) <= 1e-12 * want
