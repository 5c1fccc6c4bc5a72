"""Seeded graph family generators for the scan harness."""

import networkx as nx

from .graphs import from_edges


def _from_networkx(h):
    nodes = sorted(h.nodes())
    idx = {u: k for k, u in enumerate(nodes)}
    return from_edges(len(nodes), [(idx[u], idx[w]) for u, w in h.edges()])


def path_graph(n):
    return from_edges(n, [(k, k + 1) for k in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return from_edges(n, [(k, (k + 1) % n) for k in range(n)])


def grid_graph(rows, cols):
    def idx(i, j):
        return i * cols + j

    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append((idx(i, j), idx(i + 1, j)))
            if j + 1 < cols:
                edges.append((idx(i, j), idx(i, j + 1)))
    return from_edges(rows * cols, edges)


def random_regular_graph(degree, n, seed=0):
    return _from_networkx(nx.random_regular_graph(degree, n, seed=seed))


def line_graph_of_random_regular(degree, n, seed=0):
    base = nx.random_regular_graph(degree, n, seed=seed)
    return _from_networkx(nx.line_graph(base))


# the integer parameters each kind reads: required, then optional; for path
# and cycle a list of sizes stands in for n
_FAMILY_PARAMS = {
    "path": (("n",), ("sizes",)),
    "cycle": (("n",), ("sizes",)),
    "grid": (("rows", "cols"), ()),
    "random_regular": (("degree", "n"), ("count",)),
    "line_graph_of_random_regular": (("degree", "n"), ("count",)),
}
FAMILY_KINDS = tuple(_FAMILY_PARAMS)


def _check_params(kind, params):
    if kind not in _FAMILY_PARAMS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
    required, optional = _FAMILY_PARAMS[kind]
    accepted = f"accepted keys: {', '.join(required + optional)}"
    if not isinstance(params, dict):
        problem = f"params must be a JSON object, got {params!r}"
        raise ValueError(f"{kind} family: {problem}; {accepted}")
    if "sizes" in params and "sizes" in optional:
        required = ()
    for key in required + optional:
        if key not in params:
            if key in required:
                raise ValueError(f"{kind} family: missing {key!r}; {accepted}")
            continue
        value = params[key]
        values = value if key == "sizes" and isinstance(value, (list, tuple)) else [value]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in values):
            what = "a list of integers" if key == "sizes" else "an integer"
            raise ValueError(f"{kind} family: {key!r} must be {what}, got {value!r}; {accepted}")
    if "degree" in required:
        degree, n = params["degree"], params["n"]
        if not 0 <= degree < n or n * degree % 2:
            raise ValueError(
                f"{kind} family: 'degree' and 'n' need 0 <= degree < n and n * degree even,"
                f" got degree {degree} and n {n}"
            )


def generate_family(kind, params, seed=0):
    """Build a list of graphs of the named kind.

    params:
      path / cycle: {"n": int} or {"sizes": [int, ...]}
      grid:         {"rows": int, "cols": int}
      random_regular / line_graph_of_random_regular:
                    {"degree": int, "n": int, "count": int (default 1)}

    Randomized kinds derive instance j from (seed + j), so a fixed seed
    reproduces the family.  Raises ValueError for an unknown kind, for
    params that are not an object holding the kind's integer keys, or for a
    regular kind with no graph of that degree and n.
    """
    _check_params(kind, params)
    if kind in ("path", "cycle"):
        sizes = params["sizes"] if "sizes" in params else [params["n"]]
        builder = path_graph if kind == "path" else cycle_graph
        return [builder(n) for n in sizes]
    if kind == "grid":
        return [grid_graph(params["rows"], params["cols"])]
    builder = random_regular_graph if kind == "random_regular" else line_graph_of_random_regular
    count = params.get("count", 1)
    return [builder(params["degree"], params["n"], seed=seed + j) for j in range(count)]
