"""The benchmark's four workloads.

Each workload's `build(zm, seed, workdir)` makes its inputs from the seed
(graphs, boundaries, matrices and graph files) and returns a list of Op.
An Op has a `run` that calls into the package and returns its output, an
`oracle` that computes a reference for it without the package, a `check`
that compares the two and returns None or a message, and a `perturb` that
spoils a correct output so the self-test can show that the check rejects it.

Every op looks its package function up at call time (`zm.f(...)`, not a
bound alias), so the trace wrappers see the calls.
"""

import contextlib
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable

import networkx as nx
import numpy as np

import oracles


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    oracle: Callable[[], Any]
    check: Callable[[Any, Any], Any]
    perturb: Callable[[Any], Any]


# --- inputs ---------------------------------------------------------------


def grid_edges(rows, cols):
    """Grid edges on vertices i * cols + j, the numbering the row transfer
    matrix in oracles.hom_Z_grid uses."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append((i * cols + j, (i + 1) * cols + j))
            if j + 1 < cols:
                edges.append((i * cols + j, i * cols + j + 1))
    return edges


def random_cubic_edges(n, seed):
    base = nx.random_regular_graph(3, n, seed=seed)
    return sorted(tuple(sorted(e)) for e in base.edges())


def bfs(nbr, v):
    dist = {v: 0}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            m = nbr[u]
            while m:
                b = m & -m
                m ^= b
                w = b.bit_length() - 1
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def sphere_boundary(rng, nbr, v, d, in_prob=0.3):
    """Occupancy pins on the whole distance-d sphere around v with an
    independent in-set, by rejection; all-empty if rejection keeps failing."""
    sphere = sorted(u for u, du in bfs(nbr, v).items() if du == d)
    for _ in range(1000):
        pins = {u: int(rng.random() < in_prob) for u in sphere}
        ins = sum(1 << u for u, s in pins.items() if s)
        if all(not (nbr[u] & ins) for u, s in pins.items() if s):
            return pins
    return dict.fromkeys(sphere, 0)


def box_matrix(rng, q, dev):
    """Symmetric q x q matrix with every |A_ij - 1| <= dev."""
    rad = dev * np.sqrt(rng.uniform(size=(q, q)))
    ang = rng.uniform(0.0, 2.0 * math.pi, size=(q, q))
    A = 1.0 + rad * np.exp(1j * ang)
    return (A + A.T) / 2.0


def _sub_seed(rng):
    return int(rng.integers(2**31 - 1))


def _cli(argv):
    """Run the package's command line in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sys.modules["zeromix.cli"].main(argv)
    return rc, buf.getvalue()


def _cli_json(out):
    rc, text = out
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(text)


def _with_json(out, edit):
    doc = _cli_json(out)
    edit(doc)
    return out[0], json.dumps(doc)


# --- certify --------------------------------------------------------------

CERTIFY_ACTIVITIES = (0.03, 0.07, 0.11, 0.15, 0.18, 0.21)
CERTIFY_QUERIES_PER_CELL = 8
CERTIFY_EPS = 1e-8
CERTIFY_MAX_DEPTH = 64


def _certify_check(res, truth):
    if not 0.0 <= res.value <= 1.0:
        return f"value {res.value} outside [0, 1]"
    if not res.error_bound <= CERTIFY_EPS or res.depth_used > CERTIFY_MAX_DEPTH:
        return f"bound {res.error_bound} at depth {res.depth_used} misses the target"
    if abs(Fraction(res.value) - truth) > Fraction(res.error_bound):
        return f"|value - truth| = {float(abs(Fraction(res.value) - truth)):.3e} > {res.error_bound:.3e}"
    return None


def _certify_perturb(res):
    return dataclasses.replace(res, value=res.value + 2.0 * res.error_bound + 1e-12)


def build_certify(zm, seed, workdir):
    rng = np.random.default_rng([seed, 1])
    graphs = [grid_edges(6, 6)]
    for n in (16, 18, 20):
        graphs.append(oracles.line_graph_edges(random_cubic_edges(n, _sub_seed(rng))))
    ops = []
    for edges in graphs:
        n = 1 + max(max(e) for e in edges)
        g = zm.from_edges(n, edges)
        nbr = oracles.neighbor_masks(n, edges)
        # vertices are dealt from shuffled decks, so each graph's queries
        # cover its vertices evenly whatever the seed
        deck = []
        for k, lam in enumerate(CERTIFY_ACTIVITIES * CERTIFY_QUERIES_PER_CELL):
            if not deck:
                deck = list(rng.permutation(n))
            v = int(deck.pop())
            pins = sphere_boundary(rng, nbr, v, 2 + k % 2)
            sigma = zm.HardcoreBoundary(pins)
            ops.append(
                Op(
                    "approx_cond_prob",
                    lambda g=g, v=v, sigma=sigma, lam=lam: zm.approx_cond_prob(
                        g, v, sigma, lam, CERTIFY_EPS, max_depth=CERTIFY_MAX_DEPTH
                    ),
                    lambda nbr=nbr, n=n, v=v, pins=pins, lam=lam: oracles.cond_prob_exact(
                        nbr, n, v, pins, lam
                    ),
                    _certify_check,
                    _certify_perturb,
                )
            )
    return ops


# --- scan -----------------------------------------------------------------

SSM_SAMPLE = 3


def _ssm_oracle(zm, kind, params, lam, trials, max_distance, seed):
    graphs = zm.generate_family(kind, params, seed=seed)
    ids = [f"{kind}-{k}" for k in range(len(graphs))]
    records, _ = zm.ssm_scan(
        graphs, lam, trials, max_distance, seed=seed, graph_ids=ids, collect_boundaries=True
    )
    rng = np.random.default_rng([seed, 7])
    sample = sorted(rng.choice(len(records), size=min(SSM_SAMPLE, len(records)), replace=False))
    own = {}
    for k in sample:
        rec = records[k]
        g = graphs[ids.index(rec.graph_id)]
        nbr = oracles.neighbor_masks(g.n, g.edges())
        probs = [
            oracles.cond_prob_exact(nbr, g.n, rec.vertex, b.assignment, lam)
            for b in (rec.sigma, rec.tau)
        ]
        dist = bfs(nbr, rec.vertex)
        diff = [u for u in rec.sigma.assignment if rec.sigma.assignment[u] != rec.tau.assignment[u]]
        own[int(k)] = (float(abs(probs[0] - probs[1])), min(dist[u] for u in diff))
    expected = [(r.graph_id, r.vertex, r.distance, r.gap) for r in records]
    return expected, own


def _ssm_check(out, ref):
    expected, own = ref
    got = [(r["graph_id"], r["vertex"], r["distance"], r["gap"]) for r in _cli_json(out)["records"]]
    if len(got) != len(expected):
        return f"{len(got)} records, library scan gives {len(expected)}"
    for rec in got:
        if not 0.0 <= rec[3] <= 1.0:
            return f"gap {rec[3]} outside [0, 1]"
    if got != expected:
        return "records differ from the library scan with the same seed"
    for k, (gap, dist) in own.items():
        if got[k][2] != dist or abs(got[k][3] - gap) > 1e-10:
            return f"record {k}: (d={got[k][2]}, gap={got[k][3]!r}), recount gives (d={dist}, gap={gap!r})"
    return None


def _ssm_perturb(out):
    def edit(doc):
        doc["records"][0]["gap"] += 1e-6

    return _with_json(out, edit)


def _zero_rect(roots):
    """Rectangle (x0, -0.1) x (-0.5, 0.5) in 4 x 5 cells; the real axis runs
    through the middle row, and x0 <= -3 is moved left until every vertical
    cell edge is at least 0.02 from every zero."""
    for k in range(200):
        re_min = -3.0 - 0.01 * k
        xs = [re_min + j * (-0.1 - re_min) / 4 for j in range(5)]
        if all(abs(x - r) >= 0.02 for x in xs for r in roots):
            return (round(re_min, 2), -0.1, -0.5, 0.5)
    raise RuntimeError("no zero-free cell edges found")


def _zero_check(out, ref):
    expected, poly_ok = ref
    doc = _cli_json(out)
    if not poly_ok:
        return "ind_poly of the line graph differs from the matching polynomial of its base graph"
    if doc["inconclusive"]:
        return f"inconclusive cells {doc['inconclusive']}"
    if sum(sum(row) for row in doc["counts"]) != doc["total"]:
        return "cell counts do not add up to the total"
    if doc["total"] != expected:
        return f"total {doc['total']}, exact root count {expected}"
    return None


def _zero_perturb(out):
    def edit(doc):
        doc["total"] += 1
        doc["counts"][0][0] += 1

    return _with_json(out, edit)


def _roots_check(out, ref):
    expected, poly_ok = ref
    doc = _cli_json(out)
    if not poly_ok:
        return "ind_poly of the line graph differs from the matching polynomial of its base graph"
    if doc["all_real_negative"] is not True:
        return "roots not reported all real and negative"
    got = sorted(doc["roots"], key=lambda z: z[0])
    if len(got) != len(expected):
        return f"{len(got)} roots, the polynomial has {len(expected)} real roots"
    for (re, im), r in zip(got, expected):
        if abs(im) > 1e-6 * (1 + abs(r)) or abs(re - r) > 1e-6 * (1 + abs(r)):
            return f"root {re}+{im}j, exact root {r}"
    return None


def _roots_perturb(out):
    def edit(doc):
        doc["roots"][0][0] += 1e-3

    return _with_json(out, edit)


def _ratio_scan_oracle(zm, kind, params, acts, seed):
    graphs = zm.generate_family(kind, params, seed=seed)
    best = 0.0
    for g in graphs:
        nbr = oracles.neighbor_masks(g.n, g.edges())
        full = (1 << g.n) - 1
        den = oracles.indep_poly(nbr, full)
        for v in range(g.n):
            num = oracles.indep_poly(nbr, full & ~(nbr[v] | (1 << v)))
            for lam in acts:
                lam = Fraction(lam)
                best = max(best, float(lam * oracles.poly_value(num, lam) / oracles.poly_value(den, lam)))
    return sum(g.n for g in graphs) * len(acts), best


def _ratio_scan_check(out, ref):
    n_eval, best = ref
    doc = _cli_json(out)
    if doc["violations"]:
        return f"violations {doc['violations']}"
    if doc["n_evaluations"] != n_eval:
        return f"{doc['n_evaluations']} evaluations, expected {n_eval}"
    if abs(doc["max_abs_ratio"] - best) > 1e-10:
        return f"max ratio {doc['max_abs_ratio']!r}, exact {best!r}"
    return None


def _ratio_scan_perturb(out):
    def edit(doc):
        doc["max_abs_ratio"] += 1e-6

    return _with_json(out, edit)


# family, params, activity, trials per call, max distance.  Each case runs
# as SSM_CALLS command-line calls with their own seeds: many short calls
# rather than one long one, so each is timed many times in a run.
SSM_CASES = (
    ("grid", {"rows": 4, "cols": 4}, 1.0, 200, 3),
    ("grid", {"rows": 5, "cols": 5}, 0.5, 80, 4),
    ("line_graph_of_random_regular", {"degree": 3, "n": 12, "count": 1}, 1.0, 150, 3),
)
SSM_CALLS = 6
# base cubic graph sizes for zero-scan and roots on their line graphs
ZERO_SIZES = (16, 18, 20, 16, 18, 20)
RATIO_CASES = (
    ("grid", {"rows": 4, "cols": 4}),
    ("grid", {"rows": 3, "cols": 5}),
    ("line_graph_of_random_regular", {"degree": 3, "n": 12, "count": 1}),
    ("line_graph_of_random_regular", {"degree": 3, "n": 12, "count": 1}),
)
RATIO_ACTIVITIES = (0.25, 0.5, 1.0, 2.0)


def build_scan(zm, seed, workdir):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for kind, params, lam, trials, max_d in SSM_CASES:
        for _ in range(SSM_CALLS):
            s = _sub_seed(rng)
            argv = [
                "ssm-scan", "--family", kind, "--params", json.dumps(params),
                "--activity", repr(lam), "--trials", str(trials),
                "--max-distance", str(max_d), "--seed", str(s), "--output", "json",
            ]
            ops.append(
                Op(
                    "cli.ssm-scan",
                    lambda argv=argv: _cli(argv),
                    lambda kind=kind, params=params, lam=lam, trials=trials, max_d=max_d, s=s: _ssm_oracle(
                        zm, kind, params, lam, trials, max_d, s
                    ),
                    _ssm_check,
                    _ssm_perturb,
                )
            )
    for k, n in enumerate(ZERO_SIZES):
        base = random_cubic_edges(n, _sub_seed(rng))
        edges = oracles.line_graph_edges(base)
        g = zm.from_edges(len(base), edges)
        path = workdir / f"line{k}.txt"
        path.write_text(zm.format_graph(g), encoding="utf-8")
        mpoly = oracles.matching_poly(n, base)
        rect = _zero_rect(np.roots(list(reversed(mpoly))).real)
        resolution = "4,5"

        def poly_ok(g=g, mpoly=mpoly):
            return list(zm.ind_poly(g).coeffs) == mpoly

        ops.append(
            Op(
                "cli.zero-scan",
                lambda path=path, rect=rect: _cli(
                    ["zero-scan", "--graph", str(path), "--rect=" + ",".join(map(repr, rect)),
                     "--resolution", resolution, "--output", "json"]
                ),
                lambda mpoly=mpoly, rect=rect, poly_ok=poly_ok: (
                    oracles.count_roots_in_rect(mpoly, rect), poly_ok()
                ),
                _zero_check,
                _zero_perturb,
            )
        )
        ops.append(
            Op(
                "cli.roots",
                lambda path=path: _cli(["roots", "--graph", str(path), "--output", "json"]),
                lambda mpoly=mpoly, poly_ok=poly_ok: (oracles.real_roots(mpoly), poly_ok()),
                _roots_check,
                _roots_perturb,
            )
        )
    for kind, params in RATIO_CASES:
        s = _sub_seed(rng)
        argv = [
            "ratio-scan", "--family", kind, "--params", json.dumps(params),
            "--activities", ",".join(map(repr, RATIO_ACTIVITIES)), "--seed", str(s), "--output", "json",
        ]
        ops.append(
            Op(
                "cli.ratio-scan",
                lambda argv=argv: _cli(argv),
                lambda kind=kind, params=params, s=s: _ratio_scan_oracle(zm, kind, params, RATIO_ACTIVITIES, s),
                _ratio_scan_check,
                _ratio_scan_perturb,
            )
        )
    return ops


# --- expand ---------------------------------------------------------------

SERIES_TOL = 1e-9


def _series_check(res, expected):
    cs = res.coeffs
    if len(cs) != len(expected):
        return f"order {len(cs) - 1}, expected {len(expected) - 1}"
    for k, (c, e) in enumerate(zip(cs, expected)):
        if abs(c - complex(e)) > SERIES_TOL * max(1.0, abs(complex(e))):
            return f"coefficient {k}: {c}, reference {complex(e)}"
    return None


def _hom_series_check(res, ref):
    q, expected = ref
    if abs(res.coeffs[0] - 1.0 / q) > 1e-12:
        return f"constant term {res.coeffs[0]}, expected 1/{q}"
    return _series_check(res, expected)


def _series_perturb(res):
    cs = list(res.coeffs)
    cs[-1] += 1e-6 * max(1.0, abs(cs[-1]))
    return SimpleNamespace(coeffs=tuple(cs))


def _hom_series_oracle(n, edges, v, i, pins, A, order):
    nbr = oracles.neighbor_masks(n, edges)
    h = oracles.ball_vertices(nbr, v, order)
    keep = [u for u in range(n) if (h >> u) & 1]
    local = {u: k for k, u in enumerate(keep)}
    sub_edges = [(local[u], local[w]) for u, w in edges if u in local and w in local]
    sub_pins = {local[u]: c for u, c in pins.items() if u in local}
    C = np.asarray(A) - 1.0
    den = oracles.hom_poly_brute(len(keep), sub_edges, C, sub_pins, order)
    num = oracles.hom_poly_brute(len(keep), sub_edges, C, {**sub_pins, local[v]: i}, order)
    return C.shape[0], oracles.series_quotient(list(num), list(den), order)


def _cycle(n):
    return [(k, (k + 1) % n) for k in range(n)]


# graph edges, order, query vertex.  Query vertices are fixed: the Ursell
# memo is keyed on labelled patterns, so even among symmetric vertices the
# labels move the time by up to 1.6x (340-550 ms on the Petersen line graph
# at order 7); the seed draws the matrices and the pinned colours instead.
# Orders are kept where one call takes tens of milliseconds, so each op is
# timed many times in a run.
def _cluster_cases():
    petersen = sorted(tuple(sorted(e)) for e in nx.petersen_graph().edges())
    return [
        (grid_edges(5, 5), 6, 12),
        (grid_edges(5, 5), 6, 6),
        (grid_edges(4, 4), 6, 5),
        (grid_edges(6, 6), 6, 14),
        (_cycle(12), 7, 0),
        (oracles.line_graph_edges(petersen), 6, 0),
    ]


# vertex count, edges, q, order
HOM_SERIES_CASES = (
    (8, _cycle(8), 2, 5),
    (10, _cycle(10), 2, 5),
    (8, grid_edges(2, 4), 2, 4),
    (8, _cycle(8), 3, 5),
)


def build_expand(zm, seed, workdir):
    rng = np.random.default_rng([seed, 3])
    ops = []
    for edges, order, v in _cluster_cases():
        n = 1 + max(max(e) for e in edges)
        g = zm.from_edges(n, edges)
        nbr = oracles.neighbor_masks(n, edges)
        ops.append(
            Op(
                "ratio_series_cluster",
                lambda g=g, v=v, order=order: zm.ratio_series_cluster(g, v, order),
                lambda nbr=nbr, v=v, order=order: oracles.hardcore_ratio_series(nbr, v, order),
                _series_check,
                _series_perturb,
            )
        )
    for _ in range(2):
        for n, edges, q, order in HOM_SERIES_CASES:
            nbr = oracles.neighbor_masks(n, edges)
            v = 1
            i = int(rng.integers(q))
            dist = bfs(nbr, v)
            far = max(dist, key=lambda u: (dist[u], u))
            pins = {far: int(rng.integers(q))}
            A = box_matrix(rng, q, 0.2)
            g = zm.from_edges(n, edges)
            sigma = zm.SpinBoundary(pins, q)
            ops.append(
                Op(
                    "hom_ratio_series",
                    lambda g=g, v=v, i=i, sigma=sigma, A=A, order=order: zm.hom_ratio_series(
                        g, v, i, sigma, A, order=order
                    ),
                    lambda n=n, edges=edges, v=v, i=i, pins=pins, A=A, order=order: _hom_series_oracle(
                        n, edges, v, i, pins, A, order
                    ),
                    _hom_series_check,
                    _series_perturb,
                )
            )
    return ops


# --- hom-exact ------------------------------------------------------------

Z_POINTS = (1.0, 0.5 + 0.5j, -0.8, 1.2j)


def _hom_scale(q, nfree, dev, n_edges, z):
    return q**nfree * (1.0 + abs(z) * dev) ** n_edges


def _edit_M(A, z):
    return 1.0 + z * (np.asarray(A) - 1.0)


def _hom_poly_oracle(rows, cols, A, pins):
    return [oracles.hom_Z_grid(rows, cols, _edit_M(A, z), pins) for z in Z_POINTS]


def _hom_poly_check_for(rows, cols, A, pins):
    q = np.asarray(A).shape[0]
    nfree = rows * cols - len(pins)
    n_edges = len(grid_edges(rows, cols))
    dev = float(np.max(np.abs(np.asarray(A) - 1.0)))

    def check(coeffs, ref):
        coeffs = list(coeffs)
        if len(coeffs) != n_edges + 1:
            return f"degree {len(coeffs) - 1}, graph has {n_edges} edges"
        if abs(coeffs[0] - q**nfree) > 1e-12 * q**nfree:
            return f"coefficient 0 is {coeffs[0]}, q^free = {q**nfree}"
        for z, want in zip(Z_POINTS, ref):
            got = oracles.poly_value(coeffs, z)
            if abs(got - want) > 1e-9 * _hom_scale(q, nfree, dev, n_edges, z):
                return f"Z({z}) = {got}, transfer matrix gives {want}"
        return None

    return check


def _hom_poly_perturb(coeffs):
    out = np.array(coeffs, dtype=complex)
    out[len(out) // 2] += 1e-5 * abs(out[0])
    return out


def _ratio_grid(rows, cols, A, pins, v, i, z):
    M = _edit_M(A, z)
    return oracles.hom_Z_grid(rows, cols, M, {**pins, v: i}) / oracles.hom_Z_grid(rows, cols, M, pins)


def _bounded_check(rep, own_at_edge):
    if not rep.hypothesis_ok or rep.violations:
        return f"hypothesis_ok={rep.hypothesis_ok}, {len(rep.violations)} violations"
    if rep.max_abs_ratio > rep.ratio_cap:
        return f"max |ratio| {rep.max_abs_ratio} above the cap {rep.ratio_cap}"
    if rep.max_abs_ratio < own_at_edge - 1e-9:
        return f"max |ratio| {rep.max_abs_ratio} below |ratio(1 + eta)| = {own_at_edge}"
    if rep.identity_points < 1 or rep.max_identity_residual > 1e-9:
        return f"identity residual {rep.max_identity_residual} on {rep.identity_points} points"
    return None


def _hom_ssm_check(rep, ref):
    own_gap, own_dist = ref
    if not (rep.hypothesis_ok and rep.passed and rep.gap <= rep.bound):
        return f"hypothesis_ok={rep.hypothesis_ok}, passed={rep.passed}, gap {rep.gap} vs bound {rep.bound}"
    if rep.distance != own_dist:
        return f"distance {rep.distance}, expected {own_dist}"
    if abs(rep.gap - own_gap) > 1e-11 + 1e-9 * own_gap:
        return f"gap {rep.gap!r}, transfer matrix gives {own_gap!r}"
    return None


def _barvinok_check_for(samples):
    def check(rep, own_abs):
        if not (rep.hypothesis_ok and rep.zero_free):
            return f"hypothesis_ok={rep.hypothesis_ok}, zero_free={rep.zero_free}"
        if abs(rep.abs_Z - own_abs) > 1e-9 * own_abs:
            return f"|Z| = {rep.abs_Z!r}, transfer matrix gives {own_abs!r}"
        if rep.edge_samples != samples or not 0.0 < rep.min_edge_abs_Z < math.inf:
            return f"{rep.edge_samples} edge samples, min |Z| {rep.min_edge_abs_Z}"
        return None

    return check


# rows, cols, q, pinned vertices: 2^13, 3^9, 3^9 and 2^12 free colorings.
# Every sum is whole-graph and vectorised, yet small enough that one call
# takes tens of milliseconds, so each op is timed many times in a run.
HOM_GRIDS = ((4, 4, 2, 3), (2, 5, 3, 1), (3, 3, 3, 0), (3, 4, 2, 0))
# grids for the ratio checks, at q = 2: rows, cols, pins besides the far one
HOM_RATIO_GRIDS = ((4, 4, 2), (3, 4, 0))
HOM_DRAWS = 2


def _random_pins(rng, n, q, count, avoid=()):
    free = [u for u in range(n) if u not in avoid]
    return {int(u): int(rng.integers(q)) for u in rng.choice(free, count, replace=False)}


def build_hom_exact(zm, seed, workdir):
    rng = np.random.default_rng([seed, 4])
    d4 = zm.delta_Delta(4).delta
    ops = []

    def grid(rows, cols):
        return zm.from_edges(rows * cols, grid_edges(rows, cols))

    for _ in range(HOM_DRAWS):
        for rows, cols, q, npins in HOM_GRIDS:
            A = box_matrix(rng, q, 0.9 * d4)
            pins = _random_pins(rng, rows * cols, q, npins)
            g, sigma = grid(rows, cols), zm.SpinBoundary(pins, q)
            ops.append(
                Op(
                    "hom_Z_poly",
                    lambda g=g, A=A, sigma=sigma: zm.hom_Z_poly(g, A, sigma=sigma),
                    lambda rows=rows, cols=cols, A=A, pins=pins: _hom_poly_oracle(rows, cols, A, pins),
                    _hom_poly_check_for(rows, cols, A, pins),
                    _hom_poly_perturb,
                )
            )

        # zero-freeness in the box, with per-edge matrix samples
        for rows, cols, q, npins in HOM_GRIDS:
            A = box_matrix(rng, q, 0.9 * d4)
            pins = _random_pins(rng, rows * cols, q, npins)
            g, sigma = grid(rows, cols), zm.SpinBoundary(pins, q)
            s = _sub_seed(rng)
            ops.append(
                Op(
                    "barvinok_zero_check",
                    lambda g=g, A=A, sigma=sigma, s=s: zm.barvinok_zero_check(
                        g, A, sigma=sigma, samples=2, seed=s
                    ),
                    lambda rows=rows, cols=cols, A=A, pins=pins: abs(oracles.hom_Z_grid(rows, cols, A, pins)),
                    _barvinok_check_for(2),
                    lambda rep: dataclasses.replace(rep, abs_Z=rep.abs_Z * (1 + 1e-6)),
                )
            )

        for rows, cols, npins in HOM_RATIO_GRIDS:
            n = rows * cols
            g = grid(rows, cols)
            dist_from = {v: bfs(oracles.neighbor_masks(n, grid_edges(rows, cols)), v) for v in range(n)}

            # bounded ratio, q = 2: query vertex v, a pin at a farthest vertex
            # and npins more
            eta, eps = 0.5, 0.1
            A = box_matrix(rng, 2, 0.9 * d4 / ((1 + eps) ** 4 * (1 + eta)))
            v = int(rng.integers(n))
            dist = dist_from[v]
            far = max(dist, key=lambda u: (dist[u], u))
            pins = {far: int(rng.integers(2)), **_random_pins(rng, n, 2, npins, avoid=(v, far))}
            i = int(rng.integers(2))
            sigma = zm.SpinBoundary(pins, 2)
            ops.append(
                Op(
                    "bounded_ratio_check",
                    lambda g=g, v=v, i=i, sigma=sigma, A=A, eta=eta, eps=eps: zm.bounded_ratio_check(
                        g, v, i, sigma, A, eta, eps, samples=32, seed=1
                    ),
                    lambda rows=rows, cols=cols, A=A, pins=pins, v=v, i=i, eta=eta: abs(
                        _ratio_grid(rows, cols, A, pins, v, i, 1.0 + eta)
                    ),
                    _bounded_check,
                    lambda rep: dataclasses.replace(rep, max_abs_ratio=0.5 * rep.max_abs_ratio),
                )
            )

            # boundary influence, q = 2: two boundaries that share npins pins
            # and differ at one vertex at distance >= 3 from v
            eta = 0.5
            A = box_matrix(rng, 2, 0.9 * (1 - eta) * d4)
            v = int(rng.integers(n))
            dist = dist_from[v]
            far = int(rng.choice([u for u in range(n) if dist[u] >= 3]))
            shared = _random_pins(rng, n, 2, npins, avoid=(v, far))
            i = int(rng.integers(2))
            p_sigma, p_tau = {**shared, far: 0}, {**shared, far: 1}
            sigma, tau = zm.SpinBoundary(p_sigma, 2), zm.SpinBoundary(p_tau, 2)

            def ssm_oracle(rows=rows, cols=cols, A=A, v=v, i=i, p_sigma=p_sigma, p_tau=p_tau, d=dist[far]):
                gap = abs(
                    _ratio_grid(rows, cols, A, p_sigma, v, i, 1.0) - _ratio_grid(rows, cols, A, p_tau, v, i, 1.0)
                )
                return gap, d

            ops.append(
                Op(
                    "hom_ssm_experiment",
                    lambda g=g, v=v, i=i, sigma=sigma, tau=tau, A=A, eta=eta: zm.hom_ssm_experiment(
                        g, v, i, sigma, tau, A, eta
                    ),
                    ssm_oracle,
                    _hom_ssm_check,
                    lambda rep: dataclasses.replace(rep, gap=rep.gap + 1e-6),
                )
            )
    return ops


WORKLOADS = {
    "certify": build_certify,
    "scan": build_scan,
    "expand": build_expand,
    "hom-exact": build_hom_exact,
}
