"""Shared brute-force oracles for the test suite.

These deliberately avoid the package's own recursions: independent sets come
from itertools scans, homomorphism sums from explicit coloring products,
Ursell functions from edge-subset scans, and connectivity from union-find.
Slow and obviously correct.  The scans' oracles are their direct routes:
scalar draws from fresh generators and a whole-graph conditioning per
ssm_scan trial, and zero_scan's contours cell by cell.  Reduced graphs and
distances, which the package reads off bit masks, come from networkx.
"""

import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np

from zeromix import (
    HardcoreBoundary,
    SizeLimitError,
    cond_prob_hardcore,
    from_edges,
    grid_graph,
    ind_poly,
)
from zeromix import harness
from zeromix.exact import _free_component, _hardcore_query, _ratio_polys
from zeromix.interpolate import DEFAULT_SAMPLES, _circle_image, _sampled_M
from zeromix.harness import MAX_BOUNDARY_ATTEMPTS, SPHERE_IN_PROB, SSMRecord, ZeroScanReport


def to_nx(g):
    """g as a networkx graph on the vertices 0..n-1."""
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    return h


def nx_induced(g, keep):
    """The subgraph of g induced by the vertex set keep, relabeled to
    0..k-1 in sorted old-index order, and the old->new mapping."""
    kept = sorted(keep)
    mapping = {u: a for a, u in enumerate(kept)}
    sub = to_nx(g).subgraph(kept)
    return from_edges(len(kept), [(mapping[u], mapping[w]) for u, w in sub.edges()]), mapping


def nx_distances(g, v):
    """Distances from v as a list, math.inf where v cannot reach."""
    dist = nx.single_source_shortest_path_length(to_nx(g), v)
    return [dist.get(u, math.inf) for u in range(g.n)]


def hardcore_reduced(g, sigma):
    """g reduced by the occupancy boundary sigma, relabeled as by
    nx_induced, with the mapping: the region goes, and so does every
    neighbor of an in-vertex."""
    ins = sigma.in_vertices()
    return nx_induced(g, [u for u in range(g.n) if u not in sigma.region and not ins & set(g.adj[u])])


def component_M(g, v, lam, spec, samples=DEFAULT_SAMPLES):
    """The sampled bound M on v's occupation ratio over lam times the
    map's circle, as the certify ladder takes it: _sampled_M on the ratio
    pair of v's component of g."""
    keep = _free_component(g, v, _hardcore_query(g, v, HardcoreBoundary({}), lam))
    return _sampled_M(*_ratio_polys(g, v, keep), lam * _circle_image(spec, samples))


def random_graph(rng, n, p=0.4, max_degree=None):
    """Erdos-Renyi draw; with max_degree set, edges that would exceed the cap
    are skipped (scan order is deterministic given the rng state)."""
    deg = [0] * n
    edges = []
    for u in range(n):
        for w in range(u + 1, n):
            if rng.random() < p:
                if max_degree is not None and (deg[u] >= max_degree or deg[w] >= max_degree):
                    continue
                edges.append((u, w))
                deg[u] += 1
                deg[w] += 1
    return from_edges(n, edges)


def disjoint_union(g, h):
    """g and h side by side: h's vertices follow g's."""
    return from_edges(g.n + h.n, g.edges() + [(u + g.n, w + g.n) for u, w in h.edges()])


def pinned_grid_centre(side, d):
    """The side x side grid, its centre vertex and the boundary that pins
    every vertex at grid distance d from the centre empty."""
    c = side // 2
    sphere = {i * side + j: 0 for i in range(side) for j in range(side) if abs(i - c) + abs(j - c) == d}
    return grid_graph(side, side), c * side + c, HardcoreBoundary(sphere)


def brute_independent_sets(g):
    """All independent sets as frozensets, by scanning every vertex subset."""
    out = []
    for k in range(g.n + 1):
        for comb in itertools.combinations(range(g.n), k):
            s = set(comb)
            if all(w not in g.adj[u] for u in comb for w in comb if u < w):
                out.append(frozenset(s))
    return out


def brute_ind_poly(g):
    coeffs = [0] * (g.n + 1)
    for s in brute_independent_sets(g):
        coeffs[len(s)] += 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def brute_Z(g, lam):
    return sum(lam ** len(s) for s in brute_independent_sets(g))


def brute_cond_prob(g, v, sigma, lam):
    """Probability that v is occupied at activity lam given the hard-core
    boundary sigma, summed over the independent sets that agree with it."""
    total = occupied = 0.0
    for s in brute_independent_sets(g):
        if any((u in s) != bool(x) for u, x in sigma.assignment.items()):
            continue
        weight = lam ** len(s)
        total += weight
        if v in s:
            occupied += weight
    return occupied / total


def brute_multivariate_Z(g, weights):
    total = 0.0 + 0.0j
    for s in brute_independent_sets(g):
        term = 1.0 + 0.0j
        for v in s:
            term *= weights[v]
        total += term
    return total


def brute_hom_Z(g, A, xi=None, sigma=None):
    """Direct sum over all colorings via itertools.product."""
    A = np.asarray(A, dtype=complex)
    return brute_edge_matrix_Z(g, A.shape[0], {e: A for e in g.edges()}, xi=xi, sigma=sigma)


def brute_edge_matrix_Z(g, q, matrices, xi=None, sigma=None):
    """Direct sum over all q-colorings with one matrix per edge: edge
    (u, w), u < w, contributes matrices[(u, w)][c(u), c(w)]."""
    fixed = dict(sigma.assignment) if sigma is not None else {}
    free = [v for v in range(g.n) if v not in fixed]
    total = 0.0 + 0.0j
    for combo in itertools.product(range(q), repeat=len(free)):
        col = dict(fixed)
        col.update(zip(free, combo))
        term = 1.0 + 0.0j
        for (u, w), M in matrices.items():
            term *= M[col[u], col[w]]
        if xi is not None:
            for v in range(g.n):
                term *= xi[v][col[v]]
        total += term
    return total


def brute_polymer_weight(polymer, A, z, sigma=None, xi=None):
    """Polymer weight z^|F| Z^sigma_H(A - J, xi) / (free-vertex mass) of
    H = (S, F), by a direct sum over the colorings of S that agree with
    sigma; the mass is prod over pinned u of xi[u][sigma(u)] times prod over
    the other u of sum_c xi[u][c] (xi all ones when omitted)."""
    A = np.asarray(A, dtype=complex)
    q = A.shape[0]
    fixed = dict(sigma.assignment) if sigma is not None else {}
    if xi is None:
        xi = np.ones((max(polymer.vertices) + 1, q))
    total = 0.0 + 0.0j
    for combo in itertools.product(range(q), repeat=len(polymer.vertices)):
        col = dict(zip(polymer.vertices, combo))
        if any(col[u] != c for u, c in fixed.items() if u in col):
            continue
        term = 1.0 + 0.0j
        for u, w in polymer.edges:
            term *= A[col[u], col[w]] - 1.0
        for u in polymer.vertices:
            term *= xi[u][col[u]]
        total += term
    mass = 1.0 + 0.0j
    for u in polymer.vertices:
        mass *= xi[u][fixed[u]] if u in fixed else sum(xi[u])
    return z ** len(polymer.edges) * total / mass


def grid_transfer_hom_Z(rows, cols, A):
    """Homomorphism sum of the rows x cols grid (vertex i*cols + j) by the
    row transfer matrix: a state is the coloring of one row, weighted by its
    horizontal edges, and consecutive rows meet through their vertical ones."""
    A = np.asarray(A, dtype=complex)
    states = list(itertools.product(range(A.shape[0]), repeat=cols))
    inside = np.array([np.prod([A[s[j], s[j + 1]] for j in range(cols - 1)]) for s in states])
    across = np.array([[np.prod([A[s[j], t[j]] for j in range(cols)]) for t in states] for s in states])
    vec = inside
    for _ in range(rows - 1):
        vec = (vec @ across) * inside
    return complex(vec.sum())


def grid_transfer_ind_poly(rows, cols):
    """Independence polynomial of the rows x cols grid (vertex i*cols + j)
    by the row transfer matrix: a state is an independent row pattern, a
    bitmask with no two adjacent bits, and consecutive rows share no bit.
    Coefficients are Python ints."""
    patterns = [s for s in range(1 << cols) if not s & (s >> 1)]
    # poly[s]: polynomial of the rows so far whose last row is s
    poly = {s: [0] * s.bit_count() + [1] for s in patterns}
    for _ in range(rows - 1):
        width = max(len(p) for p in poly.values())
        new = {}
        for t in patterns:
            acc = [0] * width
            for s, p in poly.items():
                if not s & t:
                    for k, c in enumerate(p):
                        acc[k] += c
            new[t] = [0] * t.bit_count() + acc
        poly = new
    total = [0] * max(len(p) for p in poly.values())
    for p in poly.values():
        for k, c in enumerate(p):
            total[k] += c
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return tuple(total)


def tree_ind_poly(parents):
    """Independence polynomial of the tree in which vertex v > 0 hangs from
    parents[v - 1] < v, by the rooted recursion: with v empty its child
    subtrees are free, with v occupied its children are empty.  Coefficients
    are Python ints."""

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def add(p, q):
        return [a + b for a, b in itertools.zip_longest(p, q, fillvalue=0)]

    empty = [[1] for _ in range(len(parents) + 1)]
    occupied = [[0, 1] for _ in range(len(parents) + 1)]
    for v in range(len(parents), 0, -1):
        u = parents[v - 1]
        empty[u] = mul(empty[u], add(empty[v], occupied[v]))
        occupied[u] = mul(occupied[u], empty[v])
    return tuple(add(empty[0], occupied[0]))


def path_occupation(n, v, lam):
    """The exact probability, a Fraction, that vertex v of the path
    0 - 1 - ... - n-1 is occupied at activity lam: lam Z(P_{v-1})
    Z(P_{n-v-2}) / Z(P_n), Z(P_k) from the transfer recursion
    Z(P_k) = Z(P_{k-1}) + lam Z(P_{k-2}) on Fractions."""
    lam = Fraction(lam)
    Z = [1, 1 + lam]
    for _ in range(2, n + 1):
        Z.append(Z[-1] + lam * Z[-2])
    return lam * Z[max(v - 1, 0)] * Z[max(n - v - 2, 0)] / Z[n]


def binary_tree(depth):
    """The complete binary tree of the given depth: 2^(depth+1) - 1
    vertices, edges (i, 2i+1) and (i, 2i+2), root 0."""
    inner = 2**depth - 1
    return from_edges(2 * inner + 1, [(i, c) for i in range(inner) for c in (2 * i + 1, 2 * i + 2)])


def binary_tree_root_occupation(depth, lam):
    """The exact probability, a Fraction, that the root of the complete
    binary tree of the given depth is occupied at activity lam, from the
    odds-ratio recursion R <- lam / (1 + R)^2 up from the leaves' R = lam."""
    lam = Fraction(lam)
    R = lam
    for _ in range(depth):
        R = lam / (1 + R) ** 2
    return R / (1 + R)


def brute_connected(g, subset):
    """Union-find connectivity of the induced subgraph on `subset`."""
    subset = list(subset)
    if not subset:
        return False
    parent = {v: v for v in subset}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    inside = set(subset)
    for u in subset:
        for w in g.adj[u]:
            if w in inside:
                parent[find(u)] = find(w)
    return len({find(v) for v in subset}) == 1


def series_quotient(num, den, order):
    """Taylor coefficients of num(z)/den(z) through `order`, den[0] != 0."""
    num = list(num) + [0.0] * (order + 1)
    den = list(den) + [0.0] * (order + 1)
    out = []
    for k in range(order + 1):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def series_exp(coeffs):
    """Taylor coefficients of exp(f) through f's order, f[0] == 0, by the
    recurrence n e_n = sum_k k f_k e_(n-k) in complex float64."""
    if coeffs[0] != 0:
        raise ValueError("exp needs zero constant term")
    ka = np.arange(len(coeffs)) * np.array(coeffs, dtype=complex)
    out = np.zeros(len(coeffs), dtype=complex)
    out[0] = 1.0
    for n in range(1, len(coeffs)):
        out[n] = np.dot(ka[1 : n + 1], out[n - 1 :: -1]) / n
    return out


def horner_compose(outer, inner):
    """Taylor coefficients of outer(inner(x)) cut to len(inner), inner[0] ==
    0, by Horner's rule in complex float64 from outer's last nonzero
    coefficient (the zeros above it would only add exact zeros)."""
    inner = np.array(inner, dtype=complex)
    if inner[0] != 0:
        raise ValueError(f"composition needs inner constant term 0, got {inner[0]}")
    K = len(inner)
    outer = [complex(c) for c in outer[:K]]
    acc = np.zeros(K, dtype=complex)
    top = max((k for k, c in enumerate(outer) if c), default=0)
    for c in reversed(outer[: top + 1]):
        acc = np.convolve(acc, inner)[:K]
        acc[0] += c
    return acc


def pattern_bits(h, order):
    """The adjacency of h with its vertices relabeled by their position in
    `order`, packed row by row as zeromix.cluster reads patterns: the pair
    of positions j < p is bit p(p-1)/2 + j."""
    bits = 0
    for p, u in enumerate(order):
        for j in range(p):
            if order[j] in h.adj[u]:
                bits |= 1 << (p * (p - 1) // 2 + j)
    return bits


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


def blowup_ursell(h, mults):
    """Ursell function of the blowup of h with vertex u copied mults[u]
    times (copies of one vertex, or of adjacent ones, are joined), by the
    anchored Mobius recursion over subsets of copies: with g(T) = [T induces
    no edge], f(T) = g(T) - sum over proper S holding T's lowest copy of
    f(S) g(T \\ S).  O(3^k) in the number k of copies, so it reaches blowups
    past ursell()'s edge limit."""
    copies = [u for u in range(h.n) for _ in range(mults[u])]
    k = len(copies)
    adj = [
        sum(
            1 << b
            for b in range(k)
            if b != a and (copies[a] == copies[b] or copies[b] in h.adj[copies[a]])
        )
        for a in range(k)
    ]
    full = (1 << k) - 1
    g = [int(all(not adj[a] & T for a in range(k) if T >> a & 1)) for T in range(full + 1)]
    f = [0] * (full + 1)
    for T in range(1, full + 1):
        anchor = T & -T
        rest = T ^ anchor
        val = g[T]
        # f[S] is ready: a proper submask is numerically smaller
        sub = rest
        while True:
            S = sub | anchor
            if S != T:
                val -= f[S] * g[T ^ S]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        f[T] = val
    return f[full]


def per_trial_ssm_records(graphs, lam, trials, max_distance, seed):
    """ssm_scan's records, with boundaries, and its count of skipped trials,
    by the direct route: fresh generators from SeedSequence(seed).spawn(3),
    a scalar vertex and distance draw per trial from the first two, one
    random(len(sphere)) call per in-set attempt from the third, the sphere
    read off nx_distances, in-sets drawn as vertex sets, and each gap from
    cond_prob_hardcore on the whole graph."""
    vertex_rng, distance_rng, in_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))
    records, skipped = [], 0

    def draw(g, sphere):
        p = SPHERE_IN_PROB
        for attempt in range(MAX_BOUNDARY_ATTEMPTS):
            if attempt and attempt % 50 == 0:
                p /= 2.0
            ins = {u for u, x in zip(sphere, in_rng.random(len(sphere))) if x < p}
            if not any(w in g.adj[u] for u in ins for w in ins):
                return HardcoreBoundary({u: int(u in ins) for u in sphere})
        return None

    for t in range(trials):
        k = t % len(graphs)
        g = graphs[k]
        v = int(vertex_rng.integers(g.n))
        d = int(distance_rng.integers(1, max_distance + 1))
        sphere = [u for u, du in enumerate(nx_distances(g, v)) if du == d]
        first = draw(g, sphere) if sphere else None
        second = None
        for _ in range(MAX_BOUNDARY_ATTEMPTS if first is not None else 0):
            cand = draw(g, sphere)
            if cand is not None and cand != first:
                second = cand
                break
        if second is None:
            skipped += 1
            continue
        gap = abs(cond_prob_hardcore(g, v, first, lam) - cond_prob_hardcore(g, v, second, lam))
        records.append(SSMRecord(f"g{k}", v, d, gap, sigma=first, tau=second))
    return records, skipped


def cell_winding(poly, corners, pts_per_side):
    """Winding integral of Z'/Z around the rectangle through `corners`
    (counterclockwise), with the minimum sampled |Z|."""
    total = 0j
    min_abs = math.inf
    mid = np.arange(pts_per_side) + 0.5
    for a, b in zip(corners, corners[1:] + corners[:1]):
        step = (b - a) / pts_per_side
        z = a + mid * step
        val = poly(z)
        if (val == 0).any():
            return None, 0.0
        min_abs = min(min_abs, float(np.abs(val).min()))
        total += complex((poly.derivative_at(z) / val).sum()) * step
    return total / (2j * math.pi), min_abs


def cell_corners(rect, resolution):
    """The corners, counterclockwise from the lower left, of each cell (i, j)
    of the rectangle at the resolution (n_re, n_im), in row-major order."""
    re_min, re_max, im_min, im_max = rect
    n_re, n_im = resolution
    dx = (re_max - re_min) / n_re
    dy = (im_max - im_min) / n_im
    out = {}
    for i in range(n_re):
        for j in range(n_im):
            x0, x1 = re_min + i * dx, re_min + (i + 1) * dx
            y0, y1 = im_min + j * dy, im_min + (j + 1) * dy
            out[i, j] = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    return out


def per_cell_zero_scan(g, rect, resolution):
    """zero_scan's report by the per-cell route: each cell's contour is
    evaluated side by side with 64-point arrays, and its point count doubled
    until it settles, before the next cell starts.  Reads PTS_PER_SIDE,
    MAX_DOUBLINGS and CONTOUR_TOL from the harness module at call time."""
    n_re, n_im = (resolution, resolution) if isinstance(resolution, int) else resolution
    poly = ind_poly(g)
    counts = [[0] * n_im for _ in range(n_re)]
    inconclusive = []
    overall_min = math.inf
    for (i, j), corners in cell_corners(rect, (n_re, n_im)).items():
        pts = harness.PTS_PER_SIDE
        settled = False
        for _ in range(harness.MAX_DOUBLINGS + 1):
            winding, min_abs = cell_winding(poly, corners, pts)
            overall_min = min(overall_min, min_abs)
            if winding is not None and min_abs > harness.CONTOUR_TOL:
                rounded = round(winding.real)
                if abs(winding - rounded) <= 0.2 and rounded >= 0:
                    counts[i][j] = int(rounded)
                    settled = True
                    break
            pts *= 2
        if not settled:
            counts[i][j] = -1
            inconclusive.append((i, j))
    return ZeroScanReport(
        rect=tuple(rect),
        resolution=(n_re, n_im),
        counts=tuple(tuple(row) for row in counts),
        total=sum(c for row in counts for c in row if c >= 0),
        inconclusive=tuple(inconclusive),
        min_abs_Z=overall_min,
    )
