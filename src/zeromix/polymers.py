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
distance ell of the target vertex.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cluster import _cluster_terms, _connected_sets
from .errors import (
    BoundaryError,
    NearZeroDenominatorError,
    SizeLimitError,
    ZeroRegionViolationError,
)
from .exact import (
    _as_matrix,
    _as_xi,
    _hom_sum,
    _near_zero,
    _pins,
    _ratios,
    edge_matrix_Z,
    eval_poly,
    hom_Z,
    hom_Z_poly,
    multivariate_Z,
)
from .graphs import Graph, _check_vertex, ball, dist_to_disagreement, from_edges
from .interpolate import _circle, _sampled_M, gap_bound_hom
from .series import PowerSeries

DEFAULT_POLYMER_EDGES = 8
DEFAULT_POLYMER_CAP = 10**6
DEFAULT_SERIES_ORDER = 6
IDENTITY_POINTS = 4


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


@dataclass(frozen=True)
class PolymerGraph:
    """Polymers plus their intersection graph (vertex sets sharing a vertex)."""

    polymers: tuple
    graph: Graph


def enumerate_polymers(g, max_edges=DEFAULT_POLYMER_EDGES, within=None):
    """All polymers of g with at most max_edges edges, optionally restricted
    to the vertex set `within`.  Deterministic order; SizeLimitError past
    DEFAULT_POLYMER_CAP polymers."""
    edges = g.edges()
    if within is not None:
        within = set(within)
        edges = [e for e in edges if e[0] in within and e[1] in within]
    incident = {}
    for a, e in enumerate(edges):
        for u in e:
            incident.setdefault(u, []).append(a)
    line = from_edges(len(edges), [(a, b) for es in incident.values() for a, b in combinations(es, 2)])
    try:
        found = _connected_sets(line, max_edges, max_count=DEFAULT_POLYMER_CAP)
    except SizeLimitError:
        raise SizeLimitError(f"more than {DEFAULT_POLYMER_CAP} polymers") from None
    polys = [Polymer.from_edge_set(edges[a] for a in S) for S in found]
    polys.sort(key=lambda p: (p.size, p.edges))
    return polys


def polymer_graph(polymers):
    """Intersection graph of the given polymers."""
    n = len(polymers)
    vsets = [frozenset(p.vertices) for p in polymers]
    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if vsets[a] & vsets[b]
    ]
    return PolymerGraph(tuple(polymers), from_edges(n, edges))


def polymer_weight(polymer, A, z, sigma=None, xi=None):
    """Weight w^sigma(H) = z^|F| Z^sigma_H(A - J, xi) / (free-vertex mass).

    The normalization divides by sum_i xi_{u,i} for unpinned u in S and by
    xi_{u,sigma(u)} for pinned u; with xi = 1 it is q^{#unpinned}.
    """
    A = _as_matrix(A)
    q = A.shape[0]
    C = A - np.ones((q, q), dtype=complex)
    pins = _pins(sigma, q)
    k = len(polymer.vertices)
    local = {u: a for a, u in enumerate(polymer.vertices)}
    fixed = {local[u]: pins[u] for u in polymer.vertices if u in pins}
    if xi is None:
        rows = None
        norm = complex(q ** (k - len(fixed)))
    else:
        rows = np.asarray(xi, dtype=complex)[list(polymer.vertices)]
        # the free-vertex mass is the sum over colorings with no edges
        norm = _hom_sum(k, [], q, [], rows, fixed)
    edges = [(local[u], local[w]) for u, w in polymer.edges]
    num = _hom_sum(k, edges, q, [C] * polymer.size, rows, fixed)
    if _near_zero(num, norm):
        raise NearZeroDenominatorError(
            "free-vertex mass vanishes", abs_denominator=abs(norm), point=z
        )
    return z ** polymer.size * num / norm


def hom_Z_via_polymers(g, A, z=1.0, sigma=None, xi=None):
    """Z^sigma_g(J + z(A - J), xi) assembled from the polymer identity.

    Exponential in |E(g)|; a consistency route for small graphs, checked
    against hom_Z.
    """
    A = _as_matrix(A)
    q = A.shape[0]
    pinned = _pins(sigma, q, g)
    xi = _as_xi(xi, g.n, q)
    polys = enumerate_polymers(g, max_edges=g.num_edges())
    pg = polymer_graph(polys)
    weights = [
        polymer_weight(p, A, z, sigma=sigma, xi=xi) for p in polys
    ]
    zg = multivariate_Z(pg.graph, weights)
    # times the boundary-weighted vertex mass
    return _hom_sum(g.n, [], q, [], xi, pinned) * zg


def hom_ratio_series(
    g,
    v,
    i,
    sigma,
    A,
    order=DEFAULT_SERIES_ORDER,
):
    """Taylor series in z of the conditional color ratio
    Z^{sigma, v->i}(J + z(A - J)) / Z^sigma(J + z(A - J)).

    Constant term 1/q; the rest is the xi_{v,i}-derivative of the cluster
    expansion of log Z_Gamma, the hard-core model on the polymer graph,
    graded by edge count: the order-ell coefficient sums, over connected
    multisets of polymers with total edge count ell that meet v, the
    Ursell function of the multiset's blowup times the derivative of its
    weight product.  Every polymer involved lies within distance ell of v,
    so the coefficient only depends on that ball.
    """
    A = _as_matrix(A)
    q = A.shape[0]
    _pins(sigma, q, g)
    _check_vertex(g, v)
    if v in sigma.region:
        raise BoundaryError(f"vertex {v} is pinned by the boundary")
    if not (0 <= i < q):
        raise ValueError(f"color {i} not in 0..{q - 1}")

    region = ball(g, v, order)
    polys = enumerate_polymers(g, max_edges=order, within=region)

    # per-polymer weight at xi = 1 and its xi_{v,i} derivative, which is
    # nonzero only on polymers through v
    w = [polymer_weight(p, A, 1.0, sigma) for p in polys]
    sigma_v = sigma.extended(v, i)
    dw = {
        a: (polymer_weight(p, A, 1.0, sigma_v) - w[a]) / q
        for a, p in enumerate(polys)
        if v in p.vertices
    }

    coeffs = [0j] * (order + 1)
    coeffs[0] = 1.0 / q
    terms = _cluster_terms(
        polymer_graph(polys).graph, order, sizes=[p.size for p in polys], containing=dw.keys()
    )
    for support, mults, ell, phi, denom in terms:
        # d/dxi_{v,i} of prod_a w_a^{m_a} at xi = 1
        deriv = 0j
        for pos, a in enumerate(support):
            if a not in dw:
                continue
            term = mults[pos] * dw[a] * w[a] ** (mults[pos] - 1)
            for pos2, b in enumerate(support):
                if pos2 != pos:
                    term *= w[b] ** mults[pos2]
            deriv += term
        coeffs[ell] += phi * deriv / denom
    return PowerSeries(tuple(coeffs))


@dataclass(frozen=True)
class DeltaSpec:
    """Box radius delta(Delta) = max over 0 < a < 2 pi / (3 Delta) of
    sin(a/2) cos(a Delta / 2), with the maximizing angle."""

    degree: int
    angle: float
    delta: float


def delta_Delta(degree):
    """Zero-free box radius for graphs of maximum degree `degree` (>= 3),
    by golden-section maximization to 1e-12."""
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
    """
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
    for _ in range(samples):
        mats = {}
        for e in g.edges():
            radii = delta * np.sqrt(rng.uniform(size=(q, q)))
            angles = rng.uniform(0.0, 2.0 * math.pi, size=(q, q))
            mats[e] = 1.0 + radii * np.exp(1j * angles)
        Ze = edge_matrix_Z(g, mats, sigma=sigma)
        min_edge = min(min_edge, abs(Ze))
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
    """
    A = _as_matrix(A)
    q = A.shape[0]
    M = np.ones((q, q), dtype=complex) + z * (A - np.ones((q, q)))
    xi = np.asarray(xi, dtype=complex)
    powed = {}
    for u in range(g.n):
        d = g.degree(u)
        if d:
            powed[u] = np.exp(np.log(xi[u]) / d)
    return {
        (u, w): M * np.outer(powed[u], powed[w]) for u, w in g.edges()
    }


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
    is zero.
    """
    if eta <= 0 or eps <= 0:
        raise ValueError("eta and eps must be positive")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    A = _as_matrix(A)
    q = A.shape[0]
    delta, deg, dev = _box(g, A)
    box_limit = delta / ((1.0 + eps) ** deg * (1.0 + eta))
    hypothesis_ok = dev <= box_limit + 1e-15

    den_poly = hom_Z_poly(g, A, sigma=sigma)
    num_poly = hom_Z_poly(g, A, sigma=sigma.extended(v, i))

    rng = np.random.default_rng(seed)
    radius = 1.0 + eta
    # interior points uniform on the disk: a radius and an angle each
    u = rng.uniform(size=(samples - samples // 2, 2))
    interior = radius * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    points = np.concatenate([_circle(radius, samples // 2), interior])

    cap = 1.0 / eps
    max_ratio = 0.0
    violations = []
    ratios = _ratios(num_poly, den_poly, points)
    for z, ratio in zip(points.tolist(), ratios.tolist()):
        if cmath.isnan(ratio):
            violations.append((z, math.inf))
            continue
        max_ratio = max(max_ratio, abs(ratio))
        if abs(ratio) > cap * (1.0 + 1e-12):
            violations.append((z, abs(ratio)))

    if g.degree(v) == 0:
        raise ValueError(f"identity check needs deg({v}) >= 1")
    max_residual = 0.0
    checked = 0
    for z, ratio in zip(points.tolist(), ratios.tolist()):
        if checked >= IDENTITY_POINTS:
            break
        if cmath.isnan(ratio) or abs(ratio) < 1e-9:
            continue
        xi = np.ones((g.n, q), dtype=complex)
        xi[v, i] = 1.0 - 1.0 / ratio
        mats = build_edge_matrices(g, A, z, xi)
        residual = abs(edge_matrix_Z(g, mats, sigma=sigma))
        den = eval_poly(den_poly, z)
        rel = residual / (1.0 + abs(den))
        max_residual = max(max_residual, rel)
        checked += 1

    return BoundedRatioReport(
        delta=delta,
        box_limit=box_limit,
        max_deviation=dev,
        hypothesis_ok=hypothesis_ok,
        ratio_cap=cap,
        max_abs_ratio=max_ratio,
        violations=tuple(violations),
        max_identity_residual=max_residual,
        identity_points=checked,
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
    A = _as_matrix(A)
    delta, _, dev = _box(g, A)
    hypothesis_ok = dev <= (1.0 - eta) * delta + 1e-15

    d = dist_to_disagreement(g, v, sigma, tau)
    # (numerator, denominator) coefficients of the ratio under sigma and tau
    pairs = [
        (hom_Z_poly(g, A, sigma=b.extended(v, i)), hom_Z_poly(g, A, sigma=b)) for b in (sigma, tau)
    ]
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
