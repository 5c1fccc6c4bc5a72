"""Cluster-expansion series for log Z and for occupation ratios.

The expansion sums, over tuples of vertices, the Ursell function of the
tuple's interaction graph (two entries interact when equal or adjacent).
Tuples are grouped by the multiset of distinct vertices they use: a multiset
with multiplicities m_1..m_s accounts for k!/(m_1!..m_s!) tuples, all with
the same interaction graph, so each group contributes
phi(blowup) / prod m_i!  to the coefficient of order k = sum m_i.

The blowup of a connected induced subgraph S with multiplicities m places
m_u copies of each u in S; copies of one vertex form a clique and copies of
adjacent vertices are fully joined.

The same terms, graded by sum m_u * size(u) in place of k, give the
polymer series of polymers.hom_ratio_series: there the graph is the polymer
graph and a polymer's size is its edge count.

Subsets grow as bit masks that carry their pattern bits, one row per added
vertex, and their neighbourhood mask: a set grows by the vertices of its
neighbourhood that are free and still fit the budget, so each candidate is
met once per set.  The hard-core series count subsets per pattern and sum
each pattern's terms once, exactly, over order!, so every coefficient is
correctly rounded.  Three memos, emptied by their cache_clear, carry the
rest: each pattern's terms, which canonicalizes the bare pattern once; phi
by multiplicity vector per canonical pattern; and the compositions of each
tuple of sizes.  polymers.hom_ratio_series weighs each polymer shape
(local edges and pins) once a call, a polymer through v with one sweep
that leaves v's colour axis open.
"""

import collections
import functools
import itertools
import math

from .errors import SizeLimitError
from .graphs import _all_vertices, _ball_mask, _check_vertex
from .exact import _neighbor_masks, _ratio_polys
from .series import PowerSeries, _long_division

DEFAULT_CLUSTER_ORDER = 8


def _refine(adj, cells, width):
    """Split the ordered cells of a vertex partition until it is equitable:
    each cell splits by its vertices' neighbor counts in every cell (packed
    `width` bits per cell), the parts in increasing order of those counts, so
    the result does not depend on vertex labels."""
    weight = [0] * len(adj)
    while True:
        for c, cell in enumerate(cells):
            for u in cell:
                weight[u] = 1 << width * c
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            parts = {}
            for u in cell:
                parts.setdefault(sum(map(weight.__getitem__, adj[u])), []).append(u)
            if len(parts) == 1:
                out.append(cell)
            else:
                out.extend(parts[key] for key in sorted(parts))
        if len(out) == len(cells):
            return out
        cells = out


def _canonical_form(bits, s):
    """The canonical form of a pattern of s vertices packed as in
    _unpack: the least relabeled bits over the leaves of
    individualization-refinement, and the vertex order of a leaf that gives
    them (vertex order[p] becomes vertex p).

    Refinement individualizes in a smallest cell of more than one vertex, so
    the leaves give the same set of relabeled bits for every labeling.  Of
    twins in that cell (neighbors alike apart from each other) only one is
    individualized: swapping two twins is an automorphism that fixes the
    partition, so their subtrees give the same leaves, and a clique or a
    star costs one path down the tree rather than s! leaves.
    """
    nbr = _unpack(bits, s)
    adj = [[w for w in range(s) if nbr[u] >> w & 1] for u in range(s)]
    width = s.bit_length()
    best = best_order = None
    stack = [_refine(adj, [list(range(s))], width)]
    while stack:
        cells = stack.pop()
        if len(cells) == s:
            order = [cell[0] for cell in cells]
            pos = [0] * s
            for p, u in enumerate(order):
                pos[u] = p
            key = 0
            for p, u in enumerate(order):
                for w in adj[u]:
                    if pos[w] < p:
                        key |= 1 << (p * (p - 1) // 2 + pos[w])
            if best is None or key < best:
                best, best_order = key, order
            continue
        i = min((len(cell), i) for i, cell in enumerate(cells) if len(cell) > 1)[1]
        reps = []
        for u in cells[i]:
            if all(nbr[u] & ~(1 << w) != nbr[w] & ~(1 << u) for w in reps):
                reps.append(u)
        for u in reps:
            rest = [w for w in cells[i] if w != u]
            stack.append(_refine(adj, cells[:i] + [[u], rest] + cells[i + 1 :], width))
    return best, best_order


def _unpack(bits, s):
    """The neighbor bitmasks of a pattern of s vertices packed row by row:
    the neighbors of vertex p among 0..p-1 are bits p(p-1)/2 onward, so a
    pattern's bits extend those of the pattern on its first vertices."""
    nbr = [bits >> p * (p - 1) // 2 & ((1 << p) - 1) for p in range(s)]
    for p in range(s):
        for w in range(p):
            nbr[w] |= (nbr[p] >> w & 1) << p
    return nbr


@functools.lru_cache(maxsize=1 << 16)
def _ursell_table(bits, s):
    """The nonempty independent sets of a pattern of s vertices packed as in
    _unpack, as {bit mask: vertices}, and the pattern's memo of phi by
    multiplicity vector, for _blowup_ursell."""
    nbr = _unpack(bits, s)
    indep = {}
    for mask in range(1, 1 << s):
        members = [u for u in range(s) if mask >> u & 1]
        if not any(nbr[u] & mask for u in members):
            indep[mask] = members
    return indep, {}


def _blowup_ursell(bits, s, mults):
    """phi of the blowup of a pattern of s vertices packed as in
    _unpack, with vertex u copied mults[u] times.

    Over sets T of copies, with g(T) = [T induces no edge], the anchored
    Mobius recursion is f(T) = g(T) - sum over proper S that hold T's first
    copy of f(S) g(T \\ S).  Copies of one vertex are exchangeable, so f
    depends only on the multiplicity vector n of T, and T \\ S is edge-free
    only as one copy each of an independent set I of the pattern:
    f(n) = g(n) - sum over nonempty independent I inside supp(n) of
    prod over u in I of (n_u - [u = a]) * f(n - 1_I), with a the first vertex
    of supp(n), whose first copy stays in S.  Exact integers, memoized per
    pattern, so _subset_terms passes the canonical form.
    """
    indep, memo = _ursell_table(bits, s)

    def f(n):
        val = memo.get(n)
        if val is not None:
            return val
        support = 0
        for u, c in enumerate(n):
            if c:
                support |= 1 << u
        a = (support & -support).bit_length() - 1
        val = int(max(n) == 1 and support in indep)
        for mask, members in indep.items():
            if mask & ~support:
                continue
            coef = 1
            rest = list(n)
            for u in members:
                coef *= n[u] - (u == a)
                rest[u] -= 1
            if coef:
                val -= coef * f(tuple(rest))
        memo[n] = val
        return val

    return f(tuple(mults))


@functools.lru_cache(maxsize=1 << 16)
def _subset_terms(bits, weights, order):
    """The nonzero (mults, grade, phi, prod m!) of one connected subset with
    packed pattern bits and vertex weights, for each composition of
    _graded_compositions(weights, order) in its order, phi read on the
    canonical form of the pattern with the multiplicities in its order.
    """
    s = len(weights)
    canon, leaf = _canonical_form(bits, s)
    out = []
    for m, grade, denom in _graded_compositions(weights, order):
        phi = _blowup_ursell(canon, s, tuple(m[u] for u in leaf))
        if phi:
            out.append((m, grade, phi, denom))
    return tuple(out)


def _connected_sets(nbr, budget, sizes=None, containing=None, max_count=None):
    """Connected induced vertex subsets of the graph on 0..len(nbr)-1 with
    neighbour bit masks nbr, grown one neighbor at a time
    while their total size (sizes[u] each, 1 by default) stays within
    budget, as (members in the order they joined, pattern bits of the
    members in that order as in _unpack).

    Each set S carries its neighbourhood mask `hood`, the union of its
    members' neighbour masks, and grows by the vertices of
    hood & ~(S | below) & fits[budget - size(S)], where fits[r] holds the
    vertices of size at most r: each candidate is met once per set.  A new
    member's pattern row is read off the set bits of its neighbours in S.

    With `containing` (a collection of vertices, checked by the caller)
    only the subsets meeting it are grown, each from its least member
    there; otherwise each subset is grown from its least vertex.
    SizeLimitError past max_count subsets.
    """
    n = len(nbr)
    if sizes is None:
        sizes = [1] * n
    fits = [sum(1 << u for u, s in enumerate(sizes) if s <= r) for r in range(budget + 1)]
    if containing is None:
        anchors = range(n)
    else:
        anchors = sorted(set(containing))
    barrier = sum(1 << u for u in anchors)
    pos = [0] * n
    count = 0
    for anchor in anchors:
        if sizes[anchor] > budget:
            continue
        below = barrier & ((1 << anchor) - 1)
        visited = {1 << anchor}
        stack = [(1 << anchor, nbr[anchor], sizes[anchor], (anchor,), 0)]
        while stack:
            S, hood, size, members, bits = stack.pop()
            yield members, bits
            count += 1
            if max_count is not None and count > max_count:
                raise SizeLimitError(f"more than {max_count} connected sets")
            grow = hood & ~(S | below) & fits[budget - size]
            shift = len(members) * (len(members) - 1) // 2
            if grow:
                for p, x in enumerate(members):
                    pos[x] = p
            while grow:
                low = grow & -grow
                grow ^= low
                T = S | low
                if T not in visited:
                    visited.add(T)
                    w = low.bit_length() - 1
                    row, inner = 0, nbr[w] & S
                    while inner:
                        x = inner & -inner
                        inner ^= x
                        row |= 1 << pos[x.bit_length() - 1]
                    stack.append((T, hood | nbr[w], size + sizes[w], members + (w,), bits | row << shift))


@functools.lru_cache(maxsize=None)
def _graded_compositions(weights, order):
    """(mults, grade, prod m!) for each composition mults of len(weights)
    parts, by increasing total multiplicity, whose graded size
    grade = sum m_i * weights[i] is at most order."""
    s = len(weights)
    out = []
    # each copy beyond the first adds at least 1 to the grade
    for k in range(s, s + order - sum(weights) + 1):
        # the compositions of k into s parts from their cut points, in order
        for cuts in itertools.combinations(range(1, k), s - 1):
            m = tuple(b - a for a, b in zip((0,) + cuts, cuts + (k,)))
            grade = sum(mi * w for mi, w in zip(m, weights))
            if grade <= order:
                out.append((m, grade, math.prod(map(math.factorial, m))))
    return tuple(out)


def _cluster_terms(nbr, order, sizes, containing):
    """(members in the order they joined, nonzero terms from _subset_terms)
    for each connected subset through `containing` of graded size
    sum sizes[u] at most order, in the graph with neighbour masks nbr."""
    for members, bits in _connected_sets(nbr, order, sizes, containing):
        yield members, _subset_terms(bits, tuple(sizes[u] for u in members), order)


def _check_order(order):
    """Raise ValueError unless order is a valid series order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")


def _hardcore_series(g, order, v=None):
    """The cluster expansion of log Z_g (v None) or of the occupation ratio
    of v to order: the order-k coefficient sums phi * m_v / prod m! (m_v
    read as 1 for log Z) over the terms of multiplicity k, in integers over
    order!, with one pass over each pattern's terms."""
    _check_order(order)
    if v is not None:
        _check_vertex(g, v)
    found = _connected_sets(_neighbor_masks(g), order, containing=None if v is None else (v,))
    counts = collections.Counter((bits, len(members)) for members, bits in found)
    scale = math.factorial(order)
    sums = [0] * (order + 1)
    for (bits, s), count in counts.items():
        for m, k, phi, denom in _subset_terms(bits, (1,) * s, order):
            # v is every subset's first member
            sums[k] += count * phi * (1 if v is None else m[0]) * (scale // denom)
    return PowerSeries(tuple(c / scale for c in sums))


def logZ_series(g, order=DEFAULT_CLUSTER_ORDER):
    """Taylor series of log Z_g at 0, to the given order."""
    return _hardcore_series(g, order)


def ratio_series_cluster(g, v, order=DEFAULT_CLUSTER_ORDER):
    """Taylor series at 0 of the occupation ratio of v, from the cluster
    expansion: the order-k coefficient sums phi(blowup) * m_v / prod m_i!
    over connected multisets through v of total multiplicity k."""
    return _hardcore_series(g, order, v)


def ratio_series_division(g, v, order=DEFAULT_CLUSTER_ORDER, ball_radius=None):
    """The same ratio series computed by polynomial division:
    lam * Z_{H - N[v]} / Z_H on the ball H around v.

    The order-k coefficient only depends on the ball of radius k - 1, so
    ball_radius defaults to `order` (one more than needed at top order).
    """
    _check_order(order)
    ball = _ball_mask(g, v, _all_vertices(g), order if ball_radius is None else ball_radius)
    # long division, not num * (1 / den): the coefficients of 1 / den grow
    # like 1 / |nearest root|^k, and the product then cancels them.  The
    # division stays complex: on P45's centre at order 30, float64 moves the
    # series by 3.5e-9 relative and brings it no closer to the exact
    # quotient (1.9e-9 off, against 1.7e-9)
    num, den = _ratio_polys(g, v, ball)
    return PowerSeries(_long_division([complex(c) for c in num], den, order))


def shearer_radius(max_degree):
    """Radius (Delta-1)^(Delta-1) / Delta^Delta of the disk where Z of any
    graph with maximum degree Delta is zero-free."""
    if max_degree < 2:
        raise ValueError(f"need max degree >= 2, got {max_degree}")
    d = max_degree
    return (d - 1) ** (d - 1) / d**d


def weitz_lambda_c(max_degree):
    """Uniqueness threshold (Delta-1)^(Delta-1) / (Delta-2)^Delta on the
    infinite Delta-regular tree."""
    if max_degree < 3:
        raise ValueError(f"need max degree >= 3, got {max_degree}")
    d = max_degree
    return (d - 1) ** (d - 1) / (d - 2) ** d
