"""Polymer representation of homomorphism partition functions.

A polymer of G is a connected subgraph with at least one edge, identified
with its edge set.  Writing the edge symbol as J + z(A - J), expanding the
product over edges in z and regrouping by the support of the chosen edge
set turns Z^sigma_G into a hard-core partition function over polymers:

    Z^sigma_G(J + z(A - J), xi) = p^sigma(xi) * Z_Gamma(w^sigma)

where Gamma joins two polymers when their vertex sets intersect, w^sigma(H)
is z^{|F|} times the A - J homomorphism sum of H = (S, F) normalized by the
free-vertex mass, and p^sigma(xi) is the boundary-weighted vertex mass of
the whole graph.  The series of the conditional color ratio in z is the
cluster expansion of this hard-core model on Gamma, graded by polymer edge
count (the power of z) and differentiated in xi; it runs through the same
connected-set grower and Ursell-term loop as the vertex hard-core series in
cluster.py.  Its order-ell coefficient only involves polymers within
distance ell of the target vertex.  A polymer through the target vertex v
is weighed by one sum that leaves v's colour axis open: the total is its
weight, and column i gives its xi_{v,i} derivative.
"""

import cmath
import collections
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .cluster import _check_order, _cluster_terms, _connected_sets
from .errors import (
    NearZeroDenominatorError,
    SizeLimitError,
    ZeroRegionViolationError,
)
from .exact import (
    NEAR_ZERO_REL,
    _as_matrix,
    _as_xi,
    _check_count,
    _hom_ratio_sums,
    _hom_query,
    _hom_sum,
    _pins,
    _ratios,
    _sweep,
    edge_matrix_Z,
    eval_poly,
    hom_Z,
    multivariate_Z,
)
from .graphs import Graph, ball, dist_to_disagreement
from .interpolate import _check_samples, _circle, _sampled_M, gap_bound_hom
from .series import PowerSeries

DEFAULT_POLYMER_EDGES = 8
DEFAULT_POLYMER_CAP = 10**6
DEFAULT_SERIES_ORDER = 6
IDENTITY_POINTS = 4
# edge samples summed in one batch: peak memory does not grow with the count
_SAMPLE_BLOCK = 32


@dataclass(frozen=True)
class Polymer:
    """Connected subgraph with >= 1 edge, stored as sorted edge/vertex tuples."""

    edges: tuple
    vertices: tuple

    @classmethod
    def from_edge_set(cls, edges):
        es = tuple(sorted(tuple(sorted(e)) for e in edges))
        vs = tuple(sorted({v for e in es for v in e}))
        return cls(es, vs)

    @property
    def size(self):
        return len(self.edges)


def enumerate_polymers(g, max_edges=DEFAULT_POLYMER_EDGES, within=None):
    """All polymers of g with at most max_edges edges, optionally restricted
    to the vertex set `within`.  Deterministic order; SizeLimitError past
    DEFAULT_POLYMER_CAP polymers."""
    edges = g.edges()
    if within is not None:
        within = set(within)
        edges = [e for e in edges if e[0] in within and e[1] in within]
    line = _intersection_masks(edges)
    try:
        polys = [
            Polymer.from_edge_set(edges[a] for a in members)
            for members, _ in _connected_sets(line, max_edges, max_count=DEFAULT_POLYMER_CAP)
        ]
    except SizeLimitError:
        raise SizeLimitError(f"more than {DEFAULT_POLYMER_CAP} polymers") from None
    polys.sort(key=lambda p: (p.size, p.edges))
    return polys


def _intersection_masks(vertex_sets):
    """Neighbour bit masks of the intersection graph of the given vertex
    sets: bit b of mask a is set when sets a and b != a share a vertex.
    Mask a is the union, over a's vertices u, of the mask of the sets at u."""
    at = collections.defaultdict(int)
    for a, vs in enumerate(vertex_sets):
        for u in vs:
            at[u] |= 1 << a
    return [functools.reduce(operator.or_, map(at.get, vs), 0) & ~(1 << a) for a, vs in enumerate(vertex_sets)]


def polymer_graph(polymers):
    """Intersection graph of the given polymers: a polymer's neighbors are
    the polymers at its vertices, other than itself."""
    at = {}
    for a, p in enumerate(polymers):
        for u in p.vertices:
            at.setdefault(u, []).append(a)
    adj = tuple(tuple(sorted(set().union(*map(at.get, p.vertices)) - {a})) for a, p in enumerate(polymers))
    return Graph(len(polymers), adj)


def _shape(polymer, pins):
    """A polymer's vertex count, edges and pinned colors, relabeled to
    0..k-1 in vertex order: all that its weight reads but z, A and xi."""
    local = {u: a for a, u in enumerate(polymer.vertices)}
    edges = tuple((local[u], local[w]) for u, w in polymer.edges)
    return len(local), edges, tuple((local[u], pins[u]) for u in polymer.vertices if u in pins)


def _shape_weight(C, k, edges, fixed, rows=None, z=1.0, open_v=None):
    """Weight w^sigma(H) of a polymer of the given _shape: z^|F| times its
    (A - J)-sum over its free-vertex mass, from C = A - J and xi's rows for
    its vertices (all ones when None).  With open_v, the local index of a
    free vertex, the sum leaves that vertex's colour axis open, and the
    weight comes split by its colour: a list whose total is the weight.

    The mass is q^free without rows.  With rows, NearZeroDenominatorError
    when a vertex's factor vanishes against its own row: a free vertex's
    |sum_c xi_c| <= NEAR_ZERO_REL * sum_c |xi_c|, or a pinned entry of 0.
    """
    q, fixed = len(C), dict(fixed)
    if rows is None:
        norm = q ** (k - len(fixed))
    else:
        factors, scale = rows.sum(axis=1), NEAR_ZERO_REL * abs(rows).sum(axis=1)
        for a, c in fixed.items():
            factors[a], scale[a] = rows[a, c], 0.0
        norm = math.prod(factors.tolist())
        if (abs(factors) <= scale).any():
            raise NearZeroDenominatorError("free-vertex mass vanishes", abs_denominator=abs(norm), point=z)
    T = _sweep(k, edges, q, [C] * len(edges), rows, fixed, 1, open_v)[0]
    return (z ** len(edges) * T / norm).tolist()


@functools.lru_cache(maxsize=1)
def _polymer_structure(g):
    """Every polymer of g and their polymer graph, kept for the last graph
    only (21 MiB on K5), which is what repeated draws on one graph reuse."""
    polys = tuple(enumerate_polymers(g, max_edges=g.num_edges()))
    return polys, polymer_graph(polys)


def hom_Z_via_polymers(g, A, z=1.0, sigma=None, xi=None):
    """Z^sigma_g(J + z(A - J), xi) assembled from the polymer identity.

    Exponential in |E(g)|; a consistency route for small graphs, checked
    against hom_Z.  The polymers and their graph are kept for the last g.
    """
    A = _as_matrix(A)
    q = A.shape[0]
    pinned = _pins(sigma, q, g)
    xi = _as_xi(xi, g.n, q)
    polys, pg = _polymer_structure(g)
    C = A - 1.0
    weights = [
        _shape_weight(C, *_shape(p, pinned), None if xi is None else xi[list(p.vertices)], z)
        for p in polys
    ]
    zg = multivariate_Z(pg, weights)
    # times the boundary-weighted vertex mass
    return _hom_sum(g.n, [], q, [], xi, pinned) * zg


def hom_ratio_series(g, v, i, sigma, A, order=DEFAULT_SERIES_ORDER):
    """Taylor series in z of the conditional color ratio
    Z^{sigma, v->i}(J + z(A - J)) / Z^sigma(J + z(A - J)).

    Constant term 1/q; the rest is the xi_{v,i}-derivative of the cluster
    expansion of log Z_Gamma, the hard-core model on the polymer graph,
    graded by edge count: the order-ell coefficient sums, over connected
    multisets of polymers with total edge count ell that meet v, the
    Ursell function of the multiset's blowup times the derivative of its
    weight product.  Every polymer involved lies within distance ell of v,
    so the coefficient only depends on that ball.  A call weighs each
    polymer shape once, a polymer through v with one _shape_weight that
    splits its weight w by v's colour: the total is w, and column i - w / q
    (the open sum's (column i - total / q) / mass) is the xi_{v,i}
    derivative, which is nonzero even where w is 0.  Each term's derivative
    multiplies the weights' powers in place.
    """
    A = _hom_query(g, v, i, sigma, A)
    q = A.shape[0]
    _check_order(order)
    polys = enumerate_polymers(g, max_edges=order, within=ball(g, v, order))
    through = {a for a, p in enumerate(polys) if v in p.vertices}

    # per-polymer weight at xi = 1 and its xi_{v,i} derivative, which is
    # nonzero only on polymers through v
    C = A - 1.0
    weigh = functools.cache(lambda shape, a: _shape_weight(C, *shape, open_v=a))
    pins = dict(sigma.assignment)
    cols = [weigh(_shape(p, pins), p.vertices.index(v) if a in through else None) for a, p in enumerate(polys)]
    w = [sum(c) if a in through else c for a, c in enumerate(cols)]
    dw = {a: cols[a][i] - w[a] / q for a in through}

    coeffs = [0j] * (order + 1)
    coeffs[0] = 1.0 / q
    nbr = _intersection_masks([p.vertices for p in polys])
    clusters = _cluster_terms(nbr, order, [p.size for p in polys], through)
    for support, terms in clusters:
        ws = [w[a] for a in support]
        ds = [(pos, dw[a]) for pos, a in enumerate(support) if a in dw]
        for mults, ell, phi, denom in terms:
            # d/dxi_{v,i} of prod_a w_a^{m_a} at xi = 1
            deriv = 0
            for pos, d in ds:
                t = mults[pos] * d
                for p, x in enumerate(ws):
                    t *= x ** (mults[p] - (p == pos))
                deriv += t
            coeffs[ell] += phi * deriv / denom
    return PowerSeries(tuple(coeffs))


@dataclass(frozen=True)
class DeltaSpec:
    """Box radius delta(Delta) = max over 0 < a < 2 pi / (3 Delta) of
    sin(a/2) cos(a Delta / 2), with the maximizing angle."""

    degree: int
    angle: float
    delta: float


@functools.lru_cache(maxsize=64)
def delta_Delta(degree):
    """Zero-free box radius for graphs of maximum degree `degree` (>= 3),
    by golden-section maximization to 1e-12; cached for every box check."""
    if degree < 3:
        raise ValueError(f"need degree >= 3, got {degree}")

    def f(a):
        return math.sin(a / 2.0) * math.cos(a * degree / 2.0)

    lo, hi = 0.0, 2.0 * math.pi / (3.0 * degree)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-12:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    a = (lo + hi) / 2.0
    return DeltaSpec(degree, a, f(a))


def _box(g, A):
    """The zero-free box for g and the symbol matrix A: (delta(Delta),
    Delta, max |A_ij - 1|), with Delta = max(3, max degree of g)."""
    deg = max(3, g.max_degree())
    return delta_Delta(deg).delta, deg, float(np.max(np.abs(A - 1.0)))


@dataclass(frozen=True)
class BarvinokReport:
    delta: float
    max_deviation: float
    hypothesis_ok: bool
    abs_Z: float
    zero_free: bool
    edge_samples: int
    min_edge_abs_Z: float


def barvinok_zero_check(g, A, sigma=None, samples=0, seed=0):
    """Evaluate Z^sigma_g(A) exactly and report whether it is nonzero, along
    with whether A sits in the zero-free box for the graph's degree.

    With samples > 0, also draws per-edge matrices uniformly in the same box
    and exercises the edge-matrix sum; the hypothesis covers that case too.
    Each sample's radii and angles are one block of the stream, edge by edge,
    and the samples are summed in batches of up to _SAMPLE_BLOCK, one sweep
    each.
    """
    _check_count("samples", samples, least=0)
    A = _as_matrix(A)
    delta, _, dev = _box(g, A)
    hypothesis_ok = dev <= delta + 1e-15
    Z = hom_Z(g, A, sigma=sigma)
    q = A.shape[0]
    nfree = g.n - (len(sigma.assignment) if sigma is not None else 0)
    scale = q**nfree * (1.0 + dev) ** g.num_edges()
    zero_free = bool(abs(Z) > 1e-12 * scale)

    min_edge = math.inf
    rng = np.random.default_rng(seed)
    edges = g.edges()
    for start in range(0, samples, _SAMPLE_BLOCK):
        u = rng.random(size=(min(_SAMPLE_BLOCK, samples - start), len(edges), 2, q, q))
        radii = delta * np.sqrt(u[:, :, 0])
        angles = 2.0 * math.pi * u[:, :, 1]
        stacks = np.moveaxis(1.0 + radii * np.exp(1j * angles), 1, 0)
        Ze = edge_matrix_Z(g, dict(zip(edges, stacks)), sigma=sigma)
        # an array of sums; one complex when g has no edge to stack on
        min_edge = min(min_edge, *map(abs, np.ravel(Ze).tolist()))
    return BarvinokReport(
        delta=delta,
        max_deviation=dev,
        hypothesis_ok=hypothesis_ok,
        abs_Z=float(abs(Z)),
        zero_free=zero_free,
        edge_samples=samples,
        min_edge_abs_Z=min_edge if samples else math.nan,
    )


def build_edge_matrices(g, A, z, xi):
    """Per-edge matrices (J + z(A - J))_{ij} * xi_{u,i}^{1/deg u} *
    xi_{w,j}^{1/deg w} for each edge (u, w), u < w.

    Multiplying the factors of the deg(u) edges at u recovers xi_{u, c(u)}
    exactly once, so the edge-matrix sum equals the xi-weighted sum.
    Vertices on no edge never contribute; their xi rows must be all ones.

    A batch of b points takes z of shape (b,) and xi of shape (b, n, q),
    and gives each edge the stack of its b matrices, shape (b, q, q), from
    one numpy pass; each matrix is the one a call at its own point gives.
    """
    A = _as_matrix(A)
    q = A.shape[0]
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (*z.shape, g.n, q):
        raise ValueError(f"xi must have shape {(*z.shape, g.n, q)}, got {xi.shape}")
    M = np.ones((q, q), dtype=complex) + z[..., None, None] * (A - np.ones((q, q)))
    deg = np.array([g.degree(u) for u in range(g.n)])
    on = deg > 0
    powed = np.ones(xi.shape, dtype=complex)
    powed[..., on, :] = np.exp(np.log(xi[..., on, :]) / deg[on, None])
    edges = g.edges()
    u, w = np.array(edges, dtype=int).reshape(-1, 2).T
    P = M[..., None, :, :] * (powed[..., u, :, None] * powed[..., w, None, :])
    return dict(zip(edges, np.moveaxis(P, -3, 0)))


@dataclass(frozen=True)
class BoundedRatioReport:
    delta: float
    box_limit: float
    max_deviation: float
    hypothesis_ok: bool
    ratio_cap: float
    max_abs_ratio: float
    violations: tuple  # (z, |ratio|) pairs past the cap, or denominator zeros
    max_identity_residual: float
    identity_points: int


def bounded_ratio_check(
    g,
    v,
    i,
    sigma,
    A,
    eta,
    eps,
    samples=64,
    seed=0,
):
    """Check |ratio(z)| <= 1/eps over the disk |z| <= 1 + eta, given A inside
    the shrunken box delta / ((1 + eps)^Delta (1 + eta)).

    Also verifies the vanishing identity behind the bound at up to
    IDENTITY_POINTS sampled z: with xi_{v, i} = 1 - 1/ratio(z) and all other
    entries 1, the edge-matrix sum of the matrices from build_edge_matrices
    is zero.  The points are the first samples, in order, with a ratio of
    at least 1e-9, and one batched sweep sums them all.
    """
    if eta <= 0 or eps <= 0:
        raise ValueError("eta and eps must be positive")
    _check_samples(samples)
    A = _hom_query(g, v, i, sigma, A)
    if g.degree(v) == 0:
        raise ValueError(f"identity check needs deg({v}) >= 1")
    q = A.shape[0]
    delta, deg, dev = _box(g, A)
    box_limit = delta / ((1.0 + eps) ** deg * (1.0 + eta))
    hypothesis_ok = dev <= box_limit + 1e-15

    num_poly, den_poly = _hom_ratio_sums(g, v, i, A - 1.0, sigma, L=g.num_edges() + 1)

    rng = np.random.default_rng(seed)
    radius = 1.0 + eta
    # interior points uniform on the disk: a radius and an angle each
    u = rng.uniform(size=(samples - samples // 2, 2))
    interior = radius * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    points = np.concatenate([_circle(radius, samples // 2), interior])

    cap = 1.0 / eps
    max_ratio = 0.0
    violations, chosen = [], []
    ratios = _ratios(num_poly, den_poly, points)
    for z, ratio in zip(points.tolist(), ratios.tolist()):
        if cmath.isnan(ratio):
            violations.append((z, math.inf))
            continue
        max_ratio = max(max_ratio, abs(ratio))
        if abs(ratio) > cap * (1.0 + 1e-12):
            violations.append((z, abs(ratio)))
        if len(chosen) < IDENTITY_POINTS and abs(ratio) >= 1e-9:
            chosen.append((z, ratio))

    zs = np.array([z for z, _ in chosen], dtype=complex)
    xi = np.ones((len(chosen), g.n, q), dtype=complex)
    xi[:, v, i] = [1.0 - 1.0 / ratio for _, ratio in chosen]
    sums = edge_matrix_Z(g, build_edge_matrices(g, A, zs, xi), sigma=sigma).tolist()
    scales = [1.0 + abs(eval_poly(den_poly, z)) for z, _ in chosen]
    # folded from 0.0 as a running max would be, so a NaN residual is skipped
    max_residual = max([0.0, *(abs(s) / d for s, d in zip(sums, scales))])

    return BoundedRatioReport(
        delta=delta,
        box_limit=box_limit,
        max_deviation=dev,
        hypothesis_ok=hypothesis_ok,
        ratio_cap=cap,
        max_abs_ratio=max_ratio,
        violations=tuple(violations),
        max_identity_residual=float(max_residual),
        identity_points=len(chosen),
    )


@dataclass(frozen=True)
class HomSSMReport:
    distance: float
    gap: float
    bound: float
    bound_M: float
    rate_r: float
    decay_C: float
    hypothesis_ok: bool
    passed: bool


def hom_ssm_experiment(g, v, i, sigma, tau, A, eta, samples=64):
    """Compare the conditional color probabilities under two boundary
    conditions against the decay bound 2M / ((r - 1) r^d) with r = 1/(1- eta),
    where d is the distance from v to the nearest disagreement and M bounds
    both ratios on |z| = r (sampled, times 1.5).

    Requires A inside the (1 - eta)-shrunken zero-free box, which keeps the
    denominators nonzero on the disk of radius r.
    """
    if not 0 < eta < 1:
        raise ValueError(f"need 0 < eta < 1, got {eta}")
    _check_samples(samples)
    A = _hom_query(g, v, i, sigma, A)
    _hom_query(g, v, i, tau, A)
    delta, _, dev = _box(g, A)
    hypothesis_ok = dev <= (1.0 - eta) * delta + 1e-15

    d = dist_to_disagreement(g, v, sigma, tau)
    # (numerator, denominator) coefficients of the ratio under sigma and tau
    pairs = [_hom_ratio_sums(g, v, i, A - 1.0, b, L=g.num_edges() + 1) for b in (sigma, tau)]
    r = 1.0 / (1.0 - eta)
    M = max(_sampled_M(num, den, _circle(r, samples)) for num, den in pairs)
    at_one = [_ratios(num, den, 1.0).item() for num, den in pairs]
    if any(map(cmath.isnan, at_one)):
        raise ZeroRegionViolationError("homomorphism sum vanishes at z = 1.0", point=1.0)
    gap = abs(at_one[0] - at_one[1])
    bound = 0.0 if math.isinf(d) else gap_bound_hom(M, r, int(d))
    return HomSSMReport(
        distance=d,
        gap=gap,
        bound=bound,
        bound_M=M,
        rate_r=r,
        decay_C=2.0 * M / (r - 1.0),
        hypothesis_ok=hypothesis_ok,
        passed=gap <= bound + 1e-12,
    )
