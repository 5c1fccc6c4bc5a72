"""Finite simple graphs and boundary conditions.

Vertices are always the dense range 0..n-1.  A graph is reduced without
relabeling: a bit mask of kept vertices (bit v for vertex v) on the
original graph stands for the reduced graph.
"""

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

from .errors import BoundaryError, GraphParseError


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1 with sorted adjacency tuples."""

    n: int
    adj: tuple  # tuple of tuples, adj[v] sorted, symmetric, no self-loops

    def degree(self, v):
        return len(self.adj[v])

    def max_degree(self):
        return max((len(a) for a in self.adj), default=0)

    def edges(self):
        """Edges as (u, w) with u < w, in lexicographic order."""
        return [(u, w) for u in range(self.n) for w in self.adj[u] if u < w]

    def num_edges(self):
        return sum(len(a) for a in self.adj) // 2

    @functools.cached_property
    def _hash(self):
        return hash((self.n, self.adj))

    def __hash__(self):  # computed once: caches are keyed on graphs
        return self._hash


def _check_vertex(g, v):
    """Raise ValueError unless v is a vertex of g."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} not in graph with n={g.n}")


def from_edges(n, edges):
    """Build a Graph from an iterable of (u, w) pairs; duplicates collapse."""
    if n < 0:
        raise GraphParseError(f"negative vertex count {n}")
    nbrs = [set() for _ in range(n)]
    for u, w in edges:
        if not (0 <= u < n and 0 <= w < n):
            raise GraphParseError(f"edge ({u}, {w}) out of range for n={n}")
        if u == w:
            raise GraphParseError(f"self-loop at vertex {u}")
        nbrs[u].add(w)
        nbrs[w].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))


def parse_graph(text):
    """Parse the edge-list format: a vertex-count line, then one "u w" line per edge.

    Blank lines are skipped.  Malformed lines, self-loops, and out-of-range
    indices raise GraphParseError naming the 1-based line.
    """
    lines = text.splitlines()
    n = None
    edges = []
    for i, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if n is None:
            if len(parts) != 1:
                raise GraphParseError(f"expected a lone vertex count, got {raw!r}", line=i)
            try:
                n = int(parts[0])
            except ValueError:
                raise GraphParseError(f"vertex count is not an integer: {parts[0]!r}", line=i)
            if n < 0:
                raise GraphParseError(f"negative vertex count {n}", line=i)
            continue
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u w', got {raw!r}", line=i)
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {raw!r}", line=i)
        if u == w:
            raise GraphParseError(f"self-loop at vertex {u}", line=i)
        if not (0 <= u < n and 0 <= w < n):
            raise GraphParseError(f"vertex index out of range 0..{n - 1} in {raw!r}", line=i)
        edges.append((u, w))
    if n is None:
        raise GraphParseError("empty input, expected a vertex count line")
    return from_edges(n, edges)


def format_graph(g):
    """Inverse of parse_graph."""
    out = [str(g.n)]
    out += [f"{u} {w}" for u, w in g.edges()]
    return "\n".join(out) + "\n"


def _all_vertices(g):
    """Bit mask of every vertex of g."""
    return (1 << g.n) - 1


def _bfs(g, source, keep, radius=None):
    """Distances from source, in breadth-first order, to the vertices within
    radius of it (every reachable one when None) in the subgraph of g
    induced by the bit mask keep, which holds source."""
    _check_vertex(g, source)
    if radius is None:
        radius = g.n
    elif radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    dist = {source: 0}
    queue = [source]
    for u in queue:  # queue grows while it is read
        d = dist[u] + 1
        if d > radius:
            break
        for w in g.adj[u]:
            if w not in dist and keep >> w & 1:
                dist[w] = d
                queue.append(w)
    return dist


def _ball_mask(g, v, keep, radius=None):
    """Bit mask of the vertices within radius of v (all of v's connected
    component when None) in the subgraph of g induced by the bit mask keep,
    which holds v."""
    return sum(1 << u for u in _bfs(g, v, keep, radius))


def ball(g, v, radius):
    """Vertex set at graph distance <= radius from v."""
    return set(_bfs(g, v, _all_vertices(g), radius))


class _Boundary:
    """The region and the range check that both kinds of boundary share."""

    @property
    def region(self):
        return frozenset(self.assignment)

    def validate(self, g):
        for v in self.assignment:
            if not (0 <= v < g.n):
                raise BoundaryError(f"boundary vertex {v} not in graph with n={g.n}")


@dataclass(frozen=True)
class HardcoreBoundary(_Boundary):
    """Occupancy boundary condition: a map from boundary vertices to {0, 1}.

    The in-set (preimage of 1) must be independent inside the boundary; that
    is checked against a concrete graph by validate(), since the boundary
    alone does not know the adjacency.
    """

    assignment: dict = field(default_factory=dict)

    def __post_init__(self):
        for v, s in self.assignment.items():
            if s not in (0, 1):
                raise BoundaryError(f"boundary value at vertex {v} must be 0 or 1, got {s!r}")

    def in_vertices(self):
        return {v for v, s in self.assignment.items() if s == 1}

    def _masks(self):
        """Bit masks of the region and of the in-set."""
        region = ins = 0
        for v, s in self.assignment.items():
            region |= 1 << v
            if s:
                ins |= 1 << v
        return region, ins

    def validate(self, g):
        super().validate(g)
        ins = self.in_vertices()
        for u in ins:
            for w in g.adj[u]:
                if w in ins and u < w:
                    raise BoundaryError(f"in-set is not independent: edge ({u}, {w})")


@dataclass(frozen=True)
class SpinBoundary(_Boundary):
    """Color boundary condition: a map from boundary vertices to {0..q-1}."""

    assignment: dict
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise BoundaryError(f"need q >= 1, got {self.q}")
        for v, c in self.assignment.items():
            if not (0 <= c < self.q):
                raise BoundaryError(f"color at vertex {v} must lie in 0..{self.q - 1}, got {c!r}")


def _hardcore_keep(g, region, ins):
    """Bit mask of the vertices an occupancy boundary leaves free, from the
    bit masks of its region and of its in-set: the region is dropped, and so
    is every vertex adjacent (in g) to an in-vertex, since those sites are
    blocked."""
    drop = region
    while ins:
        low = ins & -ins
        for w in g.adj[low.bit_length() - 1]:
            drop |= 1 << w
        ins ^= low
    return _all_vertices(g) & ~drop


def dist_to_disagreement(g, v, sigma, tau):
    """Graph distance from v to the nearest boundary vertex where the two
    boundary conditions differ; math.inf if they agree everywhere."""
    if sigma.region != tau.region:
        raise BoundaryError("boundary conditions have different regions")
    sigma.validate(g)  # so the shared region lies in g
    dist = _bfs(g, v, _all_vertices(g))
    diff = (u for u in sigma.assignment if sigma.assignment[u] != tau.assignment[u])
    return min((dist.get(u, math.inf) for u in diff), default=math.inf)


def is_claw_free(g):
    """True iff no vertex has three pairwise non-adjacent neighbors.

    Returns (flag, witness); witness is (center, (a, b, c)) for some claw
    when flag is False, else None.
    """
    for v in range(g.n):
        nbrs = g.adj[v]
        if len(nbrs) < 3:
            continue
        for a, b, c in combinations(nbrs, 3):
            if b not in g.adj[a] and c not in g.adj[a] and c not in g.adj[b]:
                return False, (v, (a, b, c))
    return True, None
