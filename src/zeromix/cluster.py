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

Three memos carry the work, all emptied by their cache_clear: each connected
subset's terms on its labeled pattern (pattern bits, sizes, order), which
canonicalizes the bare pattern once; phi by multiplicity vector, one table
per canonical pattern, so isomorphic patterns share their Ursell values; and
the compositions of each tuple of sizes.
"""

import functools
import itertools
import math

from .errors import SizeLimitError
from .graphs import _all_vertices, _ball_mask, _check_vertex
from .exact import _neighbor_masks, _ratio_polys
from .series import PowerSeries, _long_division

DEFAULT_CLUSTER_ORDER = 8
URSELL_SCAN_EDGE_LIMIT = 20


def ursell(h):
    """Ursell function phi(h) = sum over edge subsets F with (V, F) connected
    of (-1)^|F|, by exhaustive subset scan.

    Zero whenever h is disconnected.  Limited to |E| <= 20.
    """
    edges = h.edges()
    m = len(edges)
    if m > URSELL_SCAN_EDGE_LIMIT:
        raise SizeLimitError(f"subset scan limited to {URSELL_SCAN_EDGE_LIMIT} edges, got {m}")
    if h.n == 0:
        raise ValueError("Ursell function of the empty graph is undefined")
    if h.n == 1:
        return 1
    total = 0
    for fmask in range(1 << m):
        parent = list(range(h.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        nparts = h.n
        fm = fmask
        while fm:
            b = fm & -fm
            fm ^= b
            u, w = edges[b.bit_length() - 1]
            ru, rw = find(u), find(w)
            if ru != rw:
                parent[ru] = rw
                nparts -= 1
        if nparts == 1:
            total += -1 if fmask.bit_count() & 1 else 1
    return total


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
    _pattern_bits: the least relabeled bits over the leaves of
    individualization-refinement, and the vertex order of a leaf that gives
    them (vertex order[p] becomes vertex p).

    Refinement individualizes in a smallest cell of more than one vertex, so
    the leaves give the same set of relabeled bits for every labeling.  Of
    twins in that cell (neighbors alike apart from each other) only one is
    individualized: swapping two twins is an automorphism that fixes the
    partition, so their subtrees give the same leaves, and a clique or a
    star costs one path down the tree rather than s! leaves.
    """
    row = (1 << s) - 1
    nbr = [bits >> (u * s) & row for u in range(s)]
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
                    key |= 1 << (p * s + pos[w])
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


@functools.lru_cache(maxsize=1 << 16)
def _ursell_table(bits, s):
    """The nonempty independent sets of a pattern of s vertices packed as in
    _pattern_bits, as {bit mask: vertices}, and the pattern's memo of phi by
    multiplicity vector, for _blowup_ursell."""
    row = (1 << s) - 1
    nbr = [bits >> (u * s) & row for u in range(s)]
    indep = {}
    for mask in range(1, row + 1):
        members = [u for u in range(s) if mask >> u & 1]
        if not any(nbr[u] & mask for u in members):
            indep[mask] = members
    return indep, {}


def _blowup_ursell(bits, s, mults):
    """phi of the blowup of a pattern of s vertices packed as in
    _pattern_bits, with vertex u copied mults[u] times.

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


def _connected_sets(g, budget, sizes=None, containing=None, max_count=None):
    """Connected induced vertex subsets of g, as sorted tuples in growth
    order, grown one neighbor at a time while their total size (sizes[u]
    each, 1 by default) stays within budget.

    With `containing` (a collection of vertices of g) only the subsets
    meeting it are grown, each from its least member there; otherwise each
    subset is grown from its least vertex.  SizeLimitError past max_count
    subsets.
    """
    if sizes is None:
        sizes = [1] * g.n
    # neighbors by increasing size (a stable sort keeps the order of equal
    # sizes), so a scan stops at the first one past the budget
    adj = [sorted(nbrs, key=sizes.__getitem__) for nbrs in g.adj]
    if containing is None:
        anchors = range(g.n)
    else:
        anchors = sorted(set(containing))
        for u in anchors:
            _check_vertex(g, u)
    barrier = frozenset(anchors)
    results = []
    for anchor in anchors:
        if sizes[anchor] > budget:
            continue
        seed = frozenset([anchor])
        visited = {seed}
        stack = [(seed, sizes[anchor])]
        while stack:
            S, size = stack.pop()
            results.append(tuple(sorted(S)))
            if max_count is not None and len(results) > max_count:
                raise SizeLimitError(f"more than {max_count} connected sets")
            if size >= budget:
                continue
            for u in S:
                for w in adj[u]:
                    if size + sizes[w] > budget:
                        break
                    if w in S or (w < anchor and w in barrier):
                        continue
                    T = S | {w}
                    if T not in visited:
                        visited.add(T)
                        stack.append((T, size + sizes[w]))
    return results


def connected_subsets(g, max_size, containing=None):
    """All connected induced vertex subsets of size <= max_size, as sorted
    tuples; restricted to subsets containing `containing` when given."""
    return _connected_sets(g, max_size, containing=None if containing is None else (containing,))


def _pattern_bits(nbr, subset):
    """Pack the induced adjacency of `subset` (sorted tuple) into an int,
    given the graph's neighbor bitmasks `nbr`."""
    s = len(subset)
    bits = 0
    for i in range(s):
        mask = nbr[subset[i]]
        for j in range(i + 1, s):
            if mask >> subset[j] & 1:
                bits |= 1 << (i * s + j)
                bits |= 1 << (j * s + i)
    return bits


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


def _cluster_terms(g, order, sizes=None, containing=None):
    """The nonzero terms of the cluster expansion on g up to graded order:
    (subset, mults, grade, phi, prod m!) for each connected subset (through
    `containing` when given) and each composition mults of it whose graded
    size sum m_u * sizes[u] (sizes 1 by default, so the multiplicity k) is
    at most order; phi is the Ursell function of the blowup."""
    if sizes is None:
        sizes = [1] * g.n
    nbr = _neighbor_masks(g)
    for subset in _connected_sets(g, order, sizes, containing):
        weights = tuple(sizes[u] for u in subset)
        for m, grade, phi, denom in _subset_terms(_pattern_bits(nbr, subset), weights, order):
            yield subset, m, grade, phi, denom


def _check_order(order):
    """Raise ValueError unless order is a valid series order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")


def logZ_series(g, order=DEFAULT_CLUSTER_ORDER):
    """Taylor series of log Z_g at 0, to the given order."""
    _check_order(order)
    coeffs = [0j] * (order + 1)
    for _, _, k, phi, denom in _cluster_terms(g, order):
        coeffs[k] += phi / denom
    return PowerSeries(tuple(coeffs))


def ratio_series_cluster(g, v, order=DEFAULT_CLUSTER_ORDER):
    """Taylor series at 0 of the occupation ratio of v, from the cluster
    expansion: the order-k coefficient sums phi(blowup) * m_v / prod m_i!
    over connected multisets through v of total multiplicity k."""
    _check_order(order)
    coeffs = [0j] * (order + 1)
    for subset, m, k, phi, denom in _cluster_terms(g, order, containing=(v,)):
        coeffs[k] += phi * m[subset.index(v)] / denom
    return PowerSeries(tuple(coeffs))


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
