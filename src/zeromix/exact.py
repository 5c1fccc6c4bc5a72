"""Exact partition-function oracles.

Independence polynomials and the multivariate hard-core Z come from a
frontier sweep whose states are the independent subsets of the frontier:
it costs n times their number on the widest frontier.  Each component is
swept breadth first, or depth first where that makes the widest frontier
narrower.  Homomorphism sums come from a frontier sweep along the
vertex labels, which costs n q^(w+1) coefficient operations for frontier
width w.  Integer coefficients are exact (Python ints); complex evaluations
are plain double-precision arithmetic.  Neither applies a size cap: both
are exponential in the frontier width, and the caller decides what it can
afford.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, NearZeroDenominatorError
from .graphs import _check_vertex, apply_hardcore_boundary, remove_vertices

NEAR_ZERO_REL = 1e-12


def _near_zero(num, den):
    """Whether den counts as a zero denominator next to num:
    |den| <= NEAR_ZERO_REL * (1 + |num|), elementwise on arrays."""
    return abs(den) <= NEAR_ZERO_REL * (1.0 + abs(num))


@dataclass(frozen=True)
class IndPoly:
    """Independence polynomial: coeffs[k] counts independent sets of size k."""

    coeffs: tuple

    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        return eval_poly(self.coeffs, z)

    def derivative_at(self, z):
        return eval_poly(self._derivative_coeffs, z)

    # zero_scan evaluates Z' at every point of every cell contour
    @functools.cached_property
    def _derivative_coeffs(self):
        return tuple(k * c for k, c in enumerate(self.coeffs))[1:]

    def roots(self):
        return np.roots([float(c) for c in reversed(self.coeffs)])


def _neighbor_masks(g):
    return [sum(1 << w for w in g.adj[v]) for v in range(g.n)]


def _frontier_width(adj, order):
    """Largest number of placed vertices that still have a neighbor to come,
    sweeping one connected component in order."""
    pos = dict(zip(order, range(len(order))))
    delta = [0] * len(order)
    for i, v in enumerate(order):
        last = max(map(pos.__getitem__, adj[v]), default=i)
        if last > i:
            delta[i] += 1
            delta[last] -= 1
    return max(itertools.accumulate(delta))


_NARROW = 3


def _sweep_order(adj):
    """Vertex order for the hard-core sweep.  Each component is walked
    breadth first from a least-degree vertex, taking neighbors in increasing
    degree (Cuthill-McKee), which keeps grids and lattices narrow.  Breadth
    first puts every neighbor of a hub on the frontier at once, so when its
    widest frontier holds more than _NARROW vertices the component is also
    walked depth first, which keeps trees and hubs narrow, and the narrower
    walk is kept.  (A frontier of at most _NARROW vertices holds at most
    2^_NARROW states; a second walk would cost more than it could save.)
    """
    deg = [len(a) for a in adj]
    nbrs = [sorted(a, key=deg.__getitem__) for a in adj]
    seen = [False] * len(adj)
    order = []
    for root in sorted(range(len(adj)), key=deg.__getitem__):
        if seen[root]:
            continue
        seen[root] = True
        walk = [root]
        for v in walk:  # walk grows while it is read: breadth first
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    walk.append(w)
        # a frontier of c vertices is never wider than c - 1
        width = _frontier_width(adj, walk) if len(walk) > _NARROW + 1 else 0
        if width > _NARROW:
            dfs, todo = {}, [root]  # keys in depth-first placement order
            while todo:
                v = todo.pop()
                if v not in dfs:
                    dfs[v] = None
                    todo.extend(reversed(nbrs[v]))
            if _frontier_width(adj, dfs) < width:
                walk = list(dfs)
        order += walk
    return order


def _hardcore_sweep(g, one, occupy):
    """Sum over the independent sets I of g of the product of the weights of
    the vertices in I, over a ring given by its unit and occupy(p, v) = p
    times the weight of v.

    Vertices join in _sweep_order.  The frontier is the placed vertices that
    still have a neighbor to come; each holds one bit, freed when it leaves.
    A state is the set of occupied frontier vertices, so only independent
    subsets of the frontier occur: the cost is n times their number on the
    widest frontier.
    """
    order = _sweep_order(g.adj)
    pos = {v: i for i, v in enumerate(order)}
    last = [max((pos[w] for w in g.adj[v]), default=-1) for v in range(g.n)]
    bits = [0] * g.n
    used = 0
    states = {0: one}
    for i, v in enumerate(order):
        blocked = gone = 0
        for u in g.adj[v]:
            if pos[u] < i:
                blocked |= bits[u]
                if last[u] == i:
                    gone |= bits[u]
        bit = 0
        if last[v] > i:
            bit = bits[v] = ~used & (used + 1)
            used |= bit
        keep = ~gone
        used &= keep
        new = {}
        get = new.get
        for S, p in states.items():
            T = S & keep
            q = get(T)
            new[T] = p if q is None else q + p
            if not S & blocked:
                T = (S | bit) & keep
                p = occupy(p, v)
                q = get(T)
                new[T] = p if q is None else q + p
        states = new
    return states[0]


@functools.lru_cache(maxsize=512)
def _ind_poly_cached(g):
    # the coefficients sit B = n + 1 bits apart in one int; each counts
    # independent sets of the placed vertices, so it stays below 2^n
    B = g.n + 1
    packed = _hardcore_sweep(g, 1, lambda p, v: p << B)
    coeffs = []
    while packed:
        coeffs.append(packed & ((1 << B) - 1))
        packed >>= B
    return tuple(coeffs)


def ind_poly(g):
    """Independence polynomial of g with exact integer coefficients."""
    return IndPoly(_ind_poly_cached(g))


def eval_Z(g, lam):
    """Partition function Z_g(lam) = sum over independent sets of lam^|I|."""
    p = ind_poly(g)
    if isinstance(lam, complex):
        return p(lam)
    return complex(p(complex(lam)))


def multivariate_Z(g, weights):
    """Z_g(w) = sum over independent sets of prod_{v in I} w_v.

    weights is a sequence of per-vertex complex numbers (length g.n).
    """
    if len(weights) != g.n:
        raise ValueError(f"need {g.n} weights, got {len(weights)}")
    w = [complex(x) for x in weights]
    return _hardcore_sweep(g, 1.0 + 0j, lambda p, v: p * w[v])


def _checked_ratio(num, den, point):
    if _near_zero(num, den):
        raise NearZeroDenominatorError(
            f"denominator |Z| = {abs(den):.3e} is zero to working precision",
            abs_denominator=abs(den),
            point=point,
        )
    return num / den


def _ratio_polys(g, v):
    """Coefficients (constant first) of x * I(g - N[v]) and of I(g), the
    numerator and denominator of the occupation ratio of v."""
    _check_vertex(g, v)
    h, _ = remove_vertices(g, set(g.adj[v]) | {v})
    return (0,) + ind_poly(h).coeffs, ind_poly(g).coeffs


def _ratios(num, den, points):
    """num(z) / den(z) at each of the points (a complex scalar or array),
    NaN where den vanishes there to working precision."""
    a, b = eval_poly(num, points), eval_poly(den, points)
    zero = _near_zero(a, b)
    return np.where(zero, np.nan, a / np.where(zero, 1.0, b))


def ratio_P(g, v, lam):
    """Occupation ratio lam * Z_{g - N[v]}(lam) / Z_g(lam).

    For real lam > 0 this is the probability that v is occupied.
    """
    num, den = _ratio_polys(g, v)
    return _checked_ratio(eval_poly(num, lam), eval_poly(den, lam), lam)


def ratio_R(g, v, lam):
    """Odds ratio lam * Z_{g - N[v]}(lam) / Z_{g - v}(lam); P = R / (1 + R)."""
    num, _ = _ratio_polys(g, v)
    gv, _ = remove_vertices(g, {v})
    return _checked_ratio(eval_poly(num, lam), eval_Z(gv, lam), lam)


def cond_prob_hardcore(g, v, sigma, lam):
    """Probability that v is occupied under the hard-core measure at
    activity lam, conditioned on the boundary condition sigma: the
    occupation ratio of the boundary-reduced graph."""
    if not (isinstance(lam, (int, float)) and lam > 0):
        raise ValueError(f"activity must be a positive real, got {lam!r}")
    _check_vertex(g, v)
    sigma.validate(g)
    if v in sigma.region:
        raise BoundaryError(f"vertex {v} lies in the boundary region")
    ins = sigma.in_vertices()
    if any(w in ins for w in g.adj[v]):
        return 0.0
    h, mapping = apply_hardcore_boundary(g, sigma)
    return ratio_P(h, mapping[v], complex(lam)).real


# --- homomorphism sums ---------------------------------------------------


def _as_square(A):
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"symbol matrix must be square, got shape {M.shape}")
    return M


def _as_matrix(A):
    """A as a complex symbol matrix.  It must be symmetric: a graph's edges
    have no direction, so with A != A^T the sum would change with the vertex
    labels."""
    M = _as_square(A)
    if not np.array_equal(M, M.T):
        raise ValueError("symbol matrix must be symmetric")
    return M


def _pins(sigma, q, g=None):
    """Colors pinned by the spin boundary sigma ({} when sigma is None),
    after checking that sigma has q colors and, when g is given, fits g."""
    if sigma is None:
        return {}
    if sigma.q != q:
        raise BoundaryError(f"boundary has q={sigma.q}, matrix has q={q}")
    if g is not None:
        sigma.validate(g)
    return dict(sigma.assignment)


def _as_xi(xi, n, q):
    if xi is None:
        return None
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (n, q):
        raise ValueError(f"xi must have shape ({n}, {q}), got {xi.shape}")
    return xi


def _sweep(n, edges, q, mats, xi, fixed, L):
    """Sum over colorings c of 0..n-1 extending `fixed` of prod_v xi[v, c_v]
    times prod_e mats[e][c_u, c_w] (L == 1), or times prod_e (1 + z
    mats[e][c_u, c_w]) as its first L coefficients in z (L > 1).  Every
    edge (u, w) has u < w.

    Vertices join in label order as axes of a tensor whose first axis holds
    the coefficients; a pinned vertex's axis has length 1.  Each new axis
    takes the factors of its edges back to earlier vertices, and a vertex
    is summed out once its last neighbor has joined.
    """
    sl = [slice(None)] * n
    for v, c in fixed.items():
        sl[v] = slice(c, c + 1)
    back = [[] for _ in range(n)]
    last = list(range(n))
    for M, (u, w) in zip(mats, edges):
        back[w].append((u, M))
        last[u] = max(last[u], w)
    T = np.zeros(L, dtype=complex)
    T[0] = 1.0
    axes = []
    for v in range(n):
        T = T[..., None]
        if xi is not None:
            T = T * xi[v, sl[v]]
        elif v not in fixed and (L > 1 or not back[v]):
            # with L == 1 the first edge factor broadcasts the axis to q
            T = np.repeat(T, q, axis=-1)
        axes.append(v)
        for u, M in back[v]:
            B = M[sl[u], sl[v]]
            shape = [1] * T.ndim
            shape[1 + axes.index(u)], shape[-1] = B.shape
            B = B.reshape(shape)
            if L == 1:
                T = T * B
            else:
                T[1:] += B * T[:-1]
        gone = tuple(p for p, u in enumerate(axes, 1) if last[u] == v)
        if gone:
            T = np.add.reduce(T, axis=gone)
            axes = [u for u in axes if last[u] != v]
    return T


def _hom_sum(n, edges, q, mats, xi, fixed):
    """Sum over colorings of 0..n-1 extending `fixed` of
    prod_v xi[v, c_v] * prod_e mats[e][c_u, c_w]."""
    return complex(_sweep(n, edges, q, mats, xi, fixed, 1)[0])


def hom_Z(g, A, xi=None, sigma=None):
    """Homomorphism partition function
    Z^sigma_g(A, xi) = sum_{colorings extending sigma} prod_v xi_{v,c(v)}
    prod_{(u,w) in E} A_{c(u),c(w)}.

    A is a symmetric q x q matrix; xi an optional n x q vertex-weight array
    (all ones when omitted); sigma an optional SpinBoundary pinning some
    colors.
    """
    A = _as_matrix(A)
    q = A.shape[0]
    fixed = _pins(sigma, q, g)
    xi = _as_xi(xi, g.n, q)
    return _hom_sum(g.n, g.edges(), q, [A] * g.num_edges(), xi, fixed)


def edge_matrix_Z(g, matrices, xi=None, sigma=None):
    """Homomorphism sum with one matrix per edge.

    matrices maps each lexicographically oriented edge (u, w), u < w, to its
    own q x q matrix; the factor for that edge is M[c(u), c(w)].
    """
    edges = g.edges()
    mats = {}
    for e in edges:
        if e not in matrices:
            raise ValueError(f"missing matrix for edge {e}")
        mats[e] = _as_square(matrices[e])
    if len(matrices) != len(edges):
        extra = set(matrices) - set(edges)
        raise ValueError(f"matrices given for non-edges: {sorted(extra)}")
    qs = {m.shape[0] for m in mats.values()}
    if len(qs) > 1:
        raise ValueError(f"edge matrices disagree on q: {sorted(qs)}")
    q = qs.pop() if qs else 1
    fixed = _pins(sigma, q, g)
    xi = _as_xi(xi, g.n, q)
    return _hom_sum(g.n, edges, q, [mats[e] for e in edges], xi, fixed)


def hom_ratio(g, v, i, sigma, A, z, xi=None):
    """Conditional color ratio Z^{sigma, v->i}(J + z(A - J)) / Z^sigma(J + z(A - J)).

    At z = 1 and real nonnegative data this is the probability that v gets
    color i given sigma; at z = 0 it is exactly 1/q.
    """
    A = _as_matrix(A)
    q = A.shape[0]
    M = np.ones((q, q), dtype=complex) + z * (A - np.ones((q, q)))
    num = hom_Z(g, M, xi=xi, sigma=sigma.extended(v, i))
    den = hom_Z(g, M, xi=xi, sigma=sigma)
    return _checked_ratio(num, den, z)


def hom_Z_poly(g, A, sigma=None):
    """Coefficients (in z, constant first) of Z^sigma_g(J + z(A - J)).

    The polynomial has degree |E(g)|; extracting it once makes repeated
    evaluation over many z cheap.
    """
    A = _as_matrix(A)
    q = A.shape[0]
    fixed = _pins(sigma, q, g)
    C = A - np.ones((q, q), dtype=complex)
    m = g.num_edges()
    return _sweep(g.n, g.edges(), q, [C] * m, None, fixed, m + 1)


def eval_poly(coeffs, z):
    """Horner evaluation of a coefficient sequence (constant first), at one
    point or elementwise at an array of points."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc
