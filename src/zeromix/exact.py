"""Exact partition-function oracles.

Independence polynomials and the multivariate hard-core Z come from a
frontier sweep whose states are the independent subsets of the frontier:
it costs n times their number on the widest frontier.  The sweep runs on a
graph under a bit mask of kept vertices, so a boundary condition, the
closed neighborhood a ratio removes and a ball are masks on the graph
given, and no reduced graph is built.  Z factors over connected
components, so a boundary query is cut to v's component: the other
components' factors cancel from the occupation ratio, and the sweep never
visits them.  Each graph gets one vertex order, cached, and a mask only
filters it: each component is swept breadth first, or depth first where
that makes the widest frontier narrower.  Homomorphism sums come from a
frontier sweep along the vertex labels, which costs n q^(w+1) coefficient
operations for frontier width w.  A ratio at v takes both its sums from
one sweep that leaves v open to the end, in either chain, and so does a
polymer's weight with its derivative in polymers.hom_ratio_series.  The
hard-core sweep keeps v's frontier bit and returns the sums over the independent
sets without and with v, I(H - v) and x I(H - N[v]); by the deletion
identity I(H) = I(H - v) + x I(H - N[v]) they give the occupation ratio's
denominator and the odds ratio's.  The homomorphism sweep keeps v's color
axis, whose column i and total are a color ratio's two sums.  A batch of
edge-matrix sets over one graph and one set of pins, a stack of b matrices
on every edge, takes one homomorphism sweep whose tensor carries a batch
axis of length b: the edge factors broadcast over it, so the b sums cost
about the numpy calls of one.  Integer coefficients are exact (Python
ints); complex evaluations are plain double-precision arithmetic.  Neither
applies a size cap: both are exponential in the frontier width, and the
caller decides what it can afford.
"""

import cmath
import functools
import itertools
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BoundaryError, FloatRangeError, NearZeroDenominatorError
from .graphs import _all_vertices, _ball_mask, _check_vertex, _hardcore_keep

NEAR_ZERO_REL = 1e-12


def _near_zero(num, den):
    """Whether den counts as a zero denominator next to num:
    |den| <= NEAR_ZERO_REL * (1 + |num|), elementwise on arrays."""
    return abs(den) <= NEAR_ZERO_REL * (1.0 + abs(num))


@dataclass(frozen=True)
class IndPoly:
    """Independence polynomial: coeffs[k] counts independent sets of size k."""

    coeffs: tuple

    def __call__(self, z):
        return eval_poly(self.coeffs, z)

    def derivative_at(self, z):
        return eval_poly(self._derivative_coeffs, z)

    # zero_scan evaluates Z' at every point of every cell contour
    @functools.cached_property
    def _derivative_coeffs(self):
        return tuple(k * c for k, c in enumerate(self.coeffs))[1:]

    def roots(self):
        """The zeros, as np.roots gives them: the eigenvalues of the same
        companion matrix, built without np.roots' trimming and stacking,
        15-20 % of its time at degrees 8 and 11.  A constant or a zero
        end coefficient goes through np.roots itself."""
        try:
            p = np.array([float(c) for c in reversed(self.coeffs)])
        except OverflowError:
            raise _beyond_float64(self.coeffs) from None
        if p.size < 2 or p[0] == 0 or p[-1] == 0:
            return np.roots(p)
        A = np.diag(np.ones(p.size - 2), -1)
        A[0] = -p[1:] / p[0]
        return np.linalg.eigvals(A)


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


@functools.lru_cache(maxsize=256)
def _sweep_order(g):
    """Vertex order for the hard-core sweep of g.  Each component is walked
    breadth first from a least-degree vertex, taking neighbors in increasing
    degree (Cuthill-McKee), which keeps grids and lattices narrow.  Breadth
    first puts every neighbor of a hub on the frontier at once, so when its
    widest frontier holds more than one vertex the component is also walked
    depth first, which keeps trees and hubs narrow, and the narrower walk is
    kept.  Returns a tuple, cached per graph, whose hash is computed once:
    one order serves every mask.
    """
    adj = g.adj
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
        width = _frontier_width(adj, walk)
        if width > 1:
            dfs, todo = {}, [root]  # keys in depth-first placement order
            while todo:
                v = todo.pop()
                if v not in dfs:
                    dfs[v] = None
                    todo.extend(reversed(nbrs[v]))
            if _frontier_width(adj, dfs) < width:
                walk = list(dfs)
        order += walk
    return tuple(order)


def _hardcore_sweep(g, keep, one, occupy, open_v=None):
    """Sum over the independent sets I of the subgraph of g induced by the
    bit mask keep of the product of the weights of the vertices in I, over a
    ring given by its unit and occupy(p, v) = p times the weight of v.  With
    a kept vertex open_v, which holds its frontier bit to the end, the pair
    of sums over the I without and with open_v.

    The kept vertices join in g's _sweep_order.  The frontier is the placed
    vertices that still have a kept neighbor to come; each holds one bit,
    freed when it leaves.  A state is the set of occupied frontier vertices,
    so only independent subsets of the frontier occur: the cost is the
    number of kept vertices times the number of states on the widest
    frontier.  Dropping vertices only shrinks frontiers: a placed vertex has
    a kept neighbor to come only if it has one in g.
    """
    order = [v for v in _sweep_order(g) if keep >> v & 1]
    pos = [len(order)] * g.n  # a dropped vertex is never placed
    for i, v in enumerate(order):
        pos[v] = i
    last = [-1] * g.n  # where the last kept neighbor to come is placed
    for i, v in enumerate(order):
        for w in g.adj[v]:
            if pos[w] < i:
                last[w] = i
    if open_v is not None:
        if not keep >> open_v & 1:  # its bit would stay 0: the sum with it would be all of Z
            raise ValueError(f"open vertex {open_v} is not kept")
        last[open_v] = len(order)
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
        stay = ~gone
        used &= stay
        new = {}
        get = new.get
        for S, p in states.items():
            T = S & stay
            q = get(T)
            new[T] = p if q is None else q + p
            if not S & blocked:
                T = (S | bit) & stay
                p = occupy(p, v)
                q = get(T)
                new[T] = p if q is None else q + p
        states = new
    return states[0] if open_v is None else (states[0], states[bits[open_v]])


def _unpack(packed, B):
    """The coefficients (constant first) of a polynomial packed in one int,
    B bits apart.  The sweeps below pack them B = k + 1 bits apart, for k
    kept vertices, and occupying a vertex shifts by B: each coefficient
    counts independent sets of the placed vertices, so it stays below 2^k."""
    coeffs = []
    while packed:
        coeffs.append(packed & ((1 << B) - 1))
        packed >>= B
    return tuple(coeffs)


@functools.lru_cache(maxsize=512)
def _ind_poly_cached(g, keep):
    """Coefficients of the independence polynomial of the subgraph of g
    induced by the bit mask keep."""
    B = keep.bit_count() + 1
    return _unpack(_hardcore_sweep(g, keep, 1, lambda p, _: p << B), B)


@functools.lru_cache(maxsize=512)
def _open_polys(g, v, keep):
    """Coefficients (constant first) of I(H - v), x * I(H - N[v]) and I(H),
    H the subgraph of g induced by the bit mask keep, which holds v: the two
    sums of one sweep that leaves v open, and their sum, the deletion
    identity, which carries nothing as I(H)'s coefficients are below 2^k."""
    B = keep.bit_count() + 1
    out, inn = _hardcore_sweep(g, keep, 1, lambda p, _: p << B, v)
    return _unpack(out, B), _unpack(inn, B), _unpack(out + inn, B)


def ind_poly(g):
    """Independence polynomial of g with exact integer coefficients."""
    return IndPoly(_ind_poly_cached(g, _all_vertices(g)))


def eval_Z(g, lam):
    """Partition function Z_g(lam) = sum over independent sets of lam^|I|.
    Raises FloatRangeError when Z_g(lam) or a coefficient of Z passes the
    float64 range."""
    _check_finite("activity", complex(lam))
    z = complex(ind_poly(g)(complex(lam)))
    if not cmath.isfinite(z):
        raise FloatRangeError(f"Z({lam}) is beyond the float64 range (below 2^1024)")
    return z


def multivariate_Z(g, weights):
    """Z_g(w) = sum over independent sets of prod_{v in I} w_v.

    weights is a sequence of per-vertex complex numbers (length g.n).
    """
    if len(weights) != g.n:
        raise ValueError(f"need {g.n} weights, got {len(weights)}")
    w = [complex(x) for x in weights]
    return _hardcore_sweep(g, _all_vertices(g), 1.0 + 0j, lambda p, v: p * w[v])


def _checked_ratio(num, den, point):
    if _near_zero(num, den):
        raise NearZeroDenominatorError(
            f"denominator |Z| = {abs(den):.3e} is zero to working precision",
            abs_denominator=abs(den),
            point=point,
        )
    return num / den


def _ratio_polys(g, v, keep=None):
    """Coefficients (constant first) of x * I(H - N[v]) and of I(H), the
    numerator and denominator of the occupation ratio of v in the subgraph H
    of g induced by the bit mask keep (all of g when None), which holds v."""
    _check_vertex(g, v)
    return _open_polys(g, v, _all_vertices(g) if keep is None else keep)[1:]


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


def _odds_polys(g, v):
    """Coefficients (constant first) of x * I(g - N[v]) and of I(g - v), the
    numerator and denominator of the odds ratio of v, from the sweep that
    gives the occupation ratio's."""
    return _ratio_polys(g, v)[0], _open_polys(g, v, _all_vertices(g))[0]


def ratio_R(g, v, lam):
    """Odds ratio lam * Z_{g - N[v]}(lam) / Z_{g - v}(lam); P = R / (1 + R)."""
    num, den = _odds_polys(g, v)
    return _checked_ratio(eval_poly(num, lam), eval_poly(den, complex(lam)), lam)


def _check_activity(lam):
    """Raise ValueError unless lam is a finite positive real: not a bool,
    and not an int too large for a float."""
    real = isinstance(lam, (int, float)) and not isinstance(lam, bool)
    if not (real and 0 < lam <= sys.float_info.max):
        raise ValueError(f"activity must be a positive real, got {lam!r}")


def _check_finite(name, value):
    """Raise ValueError unless the real or complex value is finite."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_count(name, value, least=1):
    """Raise ValueError unless value is an integer (not a bool) of at
    least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _hardcore_query(g, v, sigma, lam):
    """The bit mask of the vertices sigma leaves free, after checking that
    lam is a positive real, sigma fits g and v is a vertex of g outside
    sigma's region."""
    _check_activity(lam)
    _check_vertex(g, v)
    sigma.validate(g)
    if v in sigma.region:
        raise BoundaryError(f"vertex {v} lies in the boundary region")
    return _hardcore_keep(g, *sigma._masks())


def _free_component(g, v, free):
    """The bit mask of v's component in the subgraph of g induced by the
    bit mask free, or None when v is not free.  The occupation ratio of v on
    that component equals the one on all of free: the other components'
    factors of Z cancel."""
    return _ball_mask(g, v, free) if free >> v & 1 else None


def _component_prob(g, v, keep, lam):
    """Occupation probability of v at activity lam in the subgraph of g
    induced by the bit mask keep, which holds v: the trusted tail of
    cond_prob_hardcore, which checks the inputs, and of ssm_scan.  Where
    complex Horner passes the float64 range, both polynomials are evaluated
    by Horner on Fractions at the exact rational value of the real lam, and
    the quotient is rounded once."""
    num, den = _ratio_polys(g, v, keep)
    z = complex(lam)
    try:
        a, b = eval_poly(num, z), eval_poly(den, z)
        if cmath.isfinite(a) and cmath.isfinite(b):
            return _checked_ratio(a, b, z).real
    except OverflowError:
        pass
    x = Fraction(lam)
    a, b = (functools.reduce(lambda acc, c: acc * x + c, reversed(p)) for p in (num, den))
    return float(a / b)


def cond_prob_hardcore(g, v, sigma, lam):
    """Probability that v is occupied under the hard-core measure at
    activity lam, conditioned on the boundary condition sigma: the
    occupation ratio of the boundary-reduced graph, cut to v's component."""
    keep = _free_component(g, v, _hardcore_query(g, v, sigma, lam))
    return 0.0 if keep is None else _component_prob(g, v, keep, lam)


# --- homomorphism sums ---------------------------------------------------


def _as_matrix(A):
    """A as a complex symbol matrix.  Its entries must be finite, and it
    must be symmetric: a graph's edges have no direction, so with A != A^T
    the sum would change with the vertex labels."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"symbol matrix must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("symbol matrix entries must be finite")
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


def _hom_query(g, v, i, sigma, A):
    """A as a symbol matrix, after checking that sigma fits g and A, v is a
    vertex of g outside sigma's region and i is a color of A."""
    A = _as_matrix(A)
    q = A.shape[0]
    _pins(sigma, q, g)
    _check_vertex(g, v)
    if v in sigma.region:
        raise BoundaryError(f"vertex {v} is pinned by the boundary")
    if not 0 <= i < q:
        raise ValueError(f"color {i} not in 0..{q - 1}")
    return A


def _as_xi(xi, n, q):
    if xi is None:
        return None
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (n, q):
        raise ValueError(f"xi must have shape ({n}, {q}), got {xi.shape}")
    return xi


def _sweep(n, edges, q, mats, xi, fixed, L, open_v=None):
    """Sum over colorings c of 0..n-1 extending `fixed` of prod_v xi[v, c_v]
    times prod_e mats[e][c_u, c_w] (L == 1), or times prod_e (1 + z
    mats[e][c_u, c_w]) as its first L coefficients in z (L > 1).  Every
    edge (u, w) has u < w.  Each mats[e] is one q x q matrix, or every one
    is a stack of b of them, a batch: then the result gets a batch axis of
    length b after the coefficient axis, and its element k sums the
    matrices at k on every edge.  With a free vertex open_v, a further last
    axis of length q: element c sums the colorings with c_{open_v} = c.

    Vertices join in label order as axes of a tensor whose first axes hold
    the coefficients and the batch; a pinned vertex's axis has length 1.
    Each new axis takes the factors of its edges back to earlier vertices,
    broadcast over the batch, and a vertex other than open_v is summed out
    once its last neighbor has joined.
    """
    sl = [slice(None)] * n
    for v, c in fixed.items():
        sl[v] = slice(c, c + 1)
    back = [[] for _ in range(n)]
    last = list(range(n))
    if open_v is not None:
        last[open_v] = n
    for M, (u, w) in zip(mats, edges):
        back[w].append((u, M))
        last[u] = max(last[u], w)
    batch = mats[0].shape[:-2] if mats else ()
    lead = 1 + len(batch)  # the coefficient axis, then the batch axis if any
    T = np.zeros((L, *batch), dtype=complex)
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
            B = M[..., sl[u], sl[v]]
            shape = [1, *batch] + [1] * len(axes)
            shape[lead + axes.index(u)], shape[-1] = B.shape[-2:]
            B = B.reshape(shape)
            if L == 1:
                T = T * B
            else:
                T[1:] += B * T[:-1]
        gone = tuple(p for p, u in enumerate(axes, lead) if last[u] == v)
        if gone:
            T = np.add.reduce(T, axis=gone)
            axes = [u for u in axes if last[u] != v]
    return T


def _hom_sum(n, edges, q, mats, xi, fixed):
    """Sum over colorings of 0..n-1 extending `fixed` of
    prod_v xi[v, c_v] * prod_e mats[e][c_u, c_w]: a complex, or an array
    of b sums when every mats[e] is a stack of b matrices."""
    T = _sweep(n, edges, q, mats, xi, fixed, 1)[0]
    return T if T.ndim else complex(T)


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
    own q x q matrix; the factor for that edge is M[c(u), c(w)].  A batch
    gives every edge a stack of b matrices, shape (b, q, q) with the same b
    on every edge: the result is then the array of the b sums, the k-th
    taking the k-th matrix on every edge, all from one sweep.
    """
    edges = g.edges()
    mats = {}
    for e in edges:
        if e not in matrices:
            raise ValueError(f"missing matrix for edge {e}")
        M = mats[e] = np.asarray(matrices[e], dtype=complex)
        if M.ndim not in (2, 3) or M.shape[-2] != M.shape[-1]:
            raise ValueError(f"edge matrix must be square or a stack of square matrices, got shape {M.shape}")
    if len(matrices) != len(edges):
        extra = set(matrices) - set(edges)
        raise ValueError(f"matrices given for non-edges: {sorted(extra)}")
    qs = {m.shape[-1] for m in mats.values()}
    if len(qs) > 1:
        raise ValueError(f"edge matrices disagree on q: {sorted(qs)}")
    stacks = {m.shape[:-2] for m in mats.values()}
    if len(stacks) > 1:
        sizes = sorted(f"a stack of {b[0]}" if b else "one matrix" for b in stacks)
        raise ValueError(f"edge matrices mix stack sizes: {', '.join(sizes)}")
    q = qs.pop() if qs else 1
    fixed = _pins(sigma, q, g)
    xi = _as_xi(xi, g.n, q)
    return _hom_sum(g.n, edges, q, [mats[e] for e in edges], xi, fixed)


def _hom_ratio_sums(g, v, i, M, sigma, xi=None, L=1):
    """Numerator and denominator of the ratio of v -> i under sigma, from
    one _sweep that leaves v's axis open: the sums of M on every edge and xi
    on the vertices (L == 1), or their first L coefficients in z with J + z
    M on every edge.  The inputs are trusted: _hom_query checks them."""
    q = M.shape[0]
    T = _sweep(g.n, g.edges(), q, [M] * g.num_edges(), xi, _pins(sigma, q), L, open_v=v)
    return T[:, i], T.sum(axis=1)


def hom_ratio(g, v, i, sigma, A, z, xi=None):
    """Conditional color ratio Z^{sigma, v->i}(J + z(A - J)) / Z^sigma(J + z(A - J)).

    At z = 1 and real nonnegative data this is the probability that v gets
    color i given sigma; at z = 0 it is exactly 1/q.  Both sums come from
    one sweep that leaves v's color open.
    """
    _check_finite("z", z)
    A = _hom_query(g, v, i, sigma, A)
    q = A.shape[0]
    M = np.ones((q, q), dtype=complex) + z * (A - np.ones((q, q)))
    num, den = _hom_ratio_sums(g, v, i, M, sigma, _as_xi(xi, g.n, q))
    return _checked_ratio(complex(num[0]), complex(den[0]), z)


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


def _beyond_float64(coeffs):
    """The FloatRangeError for integer coefficients past the float64 range."""
    bits = max(abs(c).bit_length() for c in coeffs if isinstance(c, int))
    return FloatRangeError(f"a coefficient near 2^{bits - 1} is beyond the float64 range (below 2^1024)")


def eval_poly(coeffs, z):
    """Horner evaluation of a coefficient sequence (constant first), at one
    point or elementwise at an array of points.  Raises FloatRangeError
    when an integer coefficient passes the float64 range."""
    acc = 0j
    try:
        for c in reversed(coeffs):
            acc = acc * z + c
    except OverflowError:
        raise _beyond_float64(coeffs) from None
    return acc
