"""Experiment harness: spatial-mixing scans, zero localization, and ratio
bound sweeps over graph families.

ssm_scan draws random boundary-condition pairs on distance spheres and
records the gap between the two conditional occupation probabilities; the
fit of log gap against distance estimates the decay rate.  Its trials run
on bit masks of the graph (spheres, drawn in-sets, free vertices), and
build boundary objects only when asked to.  A call draws from three
streams spawned from np.random.SeedSequence(seed): one vectorized draw of
every trial's vertex, one of every trial's distance, and the in-set
uniforms read in order, so its records are prefix-stable in the trial
count.  Each probability is computed once per free ball in a call, and
that ball is v's component, so no search cuts it.  zero_scan counts
partition-function zeros per cell of a rectangle by winding numbers of
Z'/Z, evaluating every open cell's contour in one array pass per doubling
round.  The scans are exact per record; only the sampling is random, and
it is fully determined by the seed.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolationError, NearZeroDenominatorError
from .exact import (
    _check_activity,
    _check_count,
    _check_finite,
    _component_prob,
    _neighbor_masks,
    ind_poly,
    ratio_P,
    ratio_R,
)
from .graphs import HardcoreBoundary, _all_vertices, _bfs, is_claw_free


@dataclass(frozen=True)
class SSMRecord:
    graph_id: str
    vertex: int
    distance: int
    gap: float
    # populated only when ssm_scan(collect_boundaries=True); not in CSV output
    sigma: HardcoreBoundary = None
    tau: HardcoreBoundary = None


@dataclass(frozen=True)
class SSMFit:
    """Least-squares fit gap ~ C * r^-distance over the usable records.

    cover_C rescales so that every fitted record satisfies
    gap <= cover_C * r^-distance exactly.
    """

    C: float
    r: float
    cover_C: float
    mean_gap_by_distance: dict
    n_fit: int
    n_records: int
    n_skipped_trials: int


GAP_FLOOR = 1e-14
MIN_RECORDS_PER_DISTANCE = 3
SPHERE_IN_PROB = 0.5
MAX_BOUNDARY_ATTEMPTS = 200
AVOID_TOL = 1e-12
PTS_PER_SIDE = 64
MAX_DOUBLINGS = 4
CONTOUR_TOL = 1e-9
_BLOCK_POINTS = 1 << 16

# uniforms an ssm_scan call draws per refill of its in-set stream; the block
# size changes no value read
_UNIFORM_BLOCK = 256


def _uniforms(rng):
    """The uniform floats of rng in stream order, drawn _UNIFORM_BLOCK at a
    time."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def _sample_in_set(uniforms, sphere, nbr):
    """Rejection-sample an independent in-set on the sphere (a vertex list)
    as a bit mask, given the graph's neighbor masks nbr; returns it with the
    mask of the vertices it blocks (its in-vertices' neighbors).  An attempt
    reads the next number of the iterator uniforms for each sphere vertex,
    in list order, and takes the vertex when it is below p; p starts at
    SPHERE_IN_PROB and is halved after every 50 failed attempts so dense
    spheres stay feasible.  None when all fail."""
    p = SPHERE_IN_PROB
    for attempt in range(MAX_BOUNDARY_ATTEMPTS):
        if attempt and attempt % 50 == 0:
            p /= 2.0
        ins = blocked = 0
        # sphere first: zip stops at its end without reading one more number
        for u, x in zip(sphere, uniforms):
            if x < p:
                ins |= 1 << u
                blocked |= nbr[u]
        if not ins & blocked:
            return ins, blocked
    return None


def _graph_ids(graphs, graph_ids):
    """graph_ids checked to match graphs in number, or g0, g1, ... when None,
    after checking that there is a graph to scan."""
    if not graphs:
        raise ValueError("no graphs to scan")
    if graph_ids is None:
        return [f"g{k}" for k in range(len(graphs))]
    if len(graph_ids) != len(graphs):
        raise ValueError("graph_ids must match graphs")
    return graph_ids


def _spheres(g, v, max_distance):
    """The distance spheres around v out to max_distance or to the last
    nonempty one, whichever comes first, index d holding the vertices at
    distance d, ascending, and the bit mask of the ball of radius d - 1 that
    the sphere encloses."""
    dist = _bfs(g, v, _all_vertices(g), max_distance)
    layers = [[] for _ in range(max(dist.values()) + 1)]
    for u, d in dist.items():
        layers[d].append(u)
    out, inner = [], 0
    for s in layers:
        out.append((sorted(s), inner))
        inner |= sum(1 << u for u in s)
    return out


def ssm_scan(
    graphs,
    lam,
    trials,
    max_distance,
    seed=0,
    graph_ids=None,
    collect_boundaries=False,
):
    """Sample boundary-condition pairs on distance spheres and record the
    conditional-probability gaps.

    Trial t picks the graph round-robin, a uniform vertex v and distance d,
    takes the full distance-d sphere as the boundary region, and draws two
    independent occupancy assignments on it (the second redrawn until it
    differs, so the disagreement distance is exactly d).  The draws come
    from three generators spawned from np.random.SeedSequence(seed): v is
    element t of one integers draw over each trial's graph size, d element
    t of one integers(1, max_distance + 1, size=trials) draw, and the
    in-set attempts read the third stream's uniforms in order.  So the
    first T records of a longer run are the T-trial run's.  A trial runs on
    bit masks: the spheres around v come from one breadth-first search per
    drawn (graph, vertex), and each draw's in-set is a mask tested for
    independence against the neighbor masks.  The sphere separates v from
    the rest of the graph, and the in-set blocks only vertices next to it,
    so when v is free its component is the ball inside the sphere less the
    blocked vertices, with no search; each gap is the difference of v's
    occupation probabilities on the two such free balls, and each
    probability is computed once per free ball in a call.
    HardcoreBoundary objects are built only with collect_boundaries=True.
    seed must be a non-negative integer, trials and max_distance integers
    of at least 1, and max_distance at most 2^63 - 1.  Returns (records,
    fit); fit is None when fewer than two distances have enough usable
    records.
    """
    graph_ids = _graph_ids(graphs, graph_ids)
    _check_count("max_distance", max_distance)
    if max_distance > np.iinfo(np.int64).max:  # the distances are drawn as int64
        raise ValueError(f"max_distance must be <= {np.iinfo(np.int64).max}, got {max_distance}")
    _check_count("trials", trials)
    _check_activity(lam)
    for gid, g in zip(graph_ids, graphs):
        if not g.n:
            raise ValueError(f"graph {gid} has no vertex to scan")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    streams = np.random.SeedSequence(int(seed)).spawn(3)
    vertex_rng, distance_rng, in_rng = map(np.random.default_rng, streams)
    vertices = vertex_rng.integers(np.resize([g.n for g in graphs], trials)).tolist()
    distances = distance_rng.integers(1, max_distance + 1, size=trials).tolist()
    uniforms = _uniforms(in_rng)
    records = []
    skipped = 0
    # neighbor masks per graph, spheres per drawn (graph, vertex) and
    # probabilities per (graph, vertex, free ball), computed once per call
    nbrs = {}
    spheres = {}
    probs = {}
    for t, (v, d) in enumerate(zip(vertices, distances)):
        k = t % len(graphs)
        g = graphs[k]
        if k not in nbrs:
            nbrs[k] = _neighbor_masks(g)
        if (k, v) not in spheres:
            spheres[k, v] = _spheres(g, v, max_distance)
        if d >= len(spheres[k, v]):  # no vertex at distance d
            skipped += 1
            continue
        sphere, inner = spheres[k, v][d]
        first = _sample_in_set(uniforms, sphere, nbrs[k])
        if first is None:
            skipped += 1
            continue
        second = None
        for _ in range(MAX_BOUNDARY_ATTEMPTS):
            cand = _sample_in_set(uniforms, sphere, nbrs[k])
            if cand is not None and cand[0] != first[0]:
                second = cand
                break
        if second is None:
            skipped += 1
            continue
        p = []
        for _, blocked in (first, second):
            key = k, v, inner & ~blocked
            if key not in probs:
                probs[key] = _component_prob(g, v, key[2], lam) if key[2] >> v & 1 else 0.0
            p.append(probs[key])
        gap = abs(p[0] - p[1])
        if collect_boundaries:
            sigma, tau = (
                HardcoreBoundary({u: ins >> u & 1 for u in sphere}) for ins, _ in (first, second)
            )
            records.append(SSMRecord(graph_ids[k], v, d, gap, sigma=sigma, tau=tau))
        else:
            records.append(SSMRecord(graph_ids[k], v, d, gap))

    usable = [rec for rec in records if rec.gap > GAP_FLOOR]
    by_d = {}
    for rec in usable:
        by_d.setdefault(rec.distance, []).append(rec.gap)
    kept = {d: gaps for d, gaps in by_d.items() if len(gaps) >= MIN_RECORDS_PER_DISTANCE}
    means = {d: float(np.mean(gaps)) for d, gaps in sorted(kept.items())}
    if len(kept) < 2:
        return records, None
    pts = [(rec.distance, math.log(rec.gap)) for rec in usable if rec.distance in kept]
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    r = math.exp(-slope)
    C = math.exp(intercept)
    cover = max(rec.gap * r**rec.distance for rec in usable if rec.distance in kept)
    fit = SSMFit(
        C=C,
        r=r,
        cover_C=cover,
        mean_gap_by_distance=means,
        n_fit=len(pts),
        n_records=len(records),
        n_skipped_trials=skipped,
    )
    return records, fit


@dataclass(frozen=True)
class ZeroScanReport:
    rect: tuple  # (re_min, re_max, im_min, im_max)
    resolution: tuple  # (n_re, n_im)
    counts: tuple  # counts[i][j], i indexes re, j indexes im; -1 inconclusive
    total: int
    inconclusive: tuple  # (i, j) cells
    min_abs_Z: float


def _windings(poly, corners, pts_per_side):
    """The winding integral of Z'/Z around each cell, given by its four
    corners counterclockwise, with the minimum sampled |Z|; (None, 0.0)
    when Z vanishes at a sampled point.  Z and Z' are evaluated once on a
    (cells, 4, points) array of side midpoints; each cell's sides are then
    summed in order."""
    starts = [a for cell in corners for a in cell]
    steps = [(b - a) / pts_per_side for cell in corners for a, b in zip(cell, cell[1:] + cell[:1])]
    step = np.array(steps).reshape(-1, 4, 1)
    z = np.array(starts).reshape(-1, 4, 1) + (np.arange(pts_per_side) + 0.5) * step
    val = poly(z)
    zero = val == 0
    mins = np.abs(val).min(axis=-1).tolist()
    val[zero] = 1  # those cells are dropped; the others' division must not warn
    sums = (poly.derivative_at(z) / val).sum(axis=-1).tolist()
    for c, hit in enumerate(zero.any(axis=(1, 2)).tolist()):
        total = 0j
        for s, h in zip(sums[c], steps[4 * c : 4 * c + 4]):
            total += s * h
        yield (None, 0.0) if hit else (total / (2j * math.pi), min(math.inf, *mins[c]))


def zero_scan(g, rect, resolution):
    """Count zeros of the independence polynomial of g per cell of a
    rectangle in the complex activity plane.

    Each cell's count is the winding number of Z around its boundary,
    integrated by the composite midpoint rule over PTS_PER_SIDE points per
    side.  When |Z| dips below CONTOUR_TOL on a contour or the integral is
    not close to an integer, the point count is doubled up to MAX_DOUBLINGS
    times; cells that never settle are flagged inconclusive (count -1)
    rather than guessed.  Each doubling round evaluates the contours of all
    cells still open in one array pass, in blocks of at most
    _BLOCK_POINTS points, so memory does not grow with the resolution.
    """
    re_min, re_max, im_min, im_max = rect
    for name, x in zip(("re_min", "re_max", "im_min", "im_max"), rect):
        _check_finite(f"rect {name}", x)
    if not (re_min < re_max and im_min < im_max):
        raise ValueError(f"degenerate rectangle {rect}")
    if isinstance(resolution, int):
        n_re = n_im = resolution
    else:
        n_re, n_im = resolution
    if n_re < 1 or n_im < 1:
        raise ValueError(f"resolution must be positive, got {resolution}")
    poly = ind_poly(g)
    dx = (re_max - re_min) / n_re
    dy = (im_max - im_min) / n_im
    counts = [[0] * n_im for _ in range(n_re)]
    overall_min = math.inf
    left = [(i, j) for i in range(n_re) for j in range(n_im)]
    pts = PTS_PER_SIDE
    for _ in range(MAX_DOUBLINGS + 1):
        block = max(1, _BLOCK_POINTS // (4 * pts))
        still = []
        for b in range(0, len(left), block):
            cells = left[b : b + block]
            corners = []
            for i, j in cells:
                x0, x1 = re_min + i * dx, re_min + (i + 1) * dx
                y0, y1 = im_min + j * dy, im_min + (j + 1) * dy
                corners.append([complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)])
            for (i, j), (winding, min_abs) in zip(cells, _windings(poly, corners, pts)):
                overall_min = min(overall_min, min_abs)
                if winding is not None and min_abs > CONTOUR_TOL:
                    rounded = round(winding.real)
                    if abs(winding - rounded) <= 0.2 and rounded >= 0:
                        counts[i][j] = int(rounded)
                        continue
                still.append((i, j))
        left = still
        pts *= 2
    for i, j in left:
        counts[i][j] = -1
    total = sum(c for row in counts for c in row if c >= 0)
    return ZeroScanReport(
        rect=tuple(rect),
        resolution=(n_re, n_im),
        counts=tuple(tuple(row) for row in counts),
        total=total,
        inconclusive=tuple(left),
        min_abs_Z=overall_min,
    )


@dataclass(frozen=True)
class ClawfreeRootReport:
    roots: tuple  # complex, sorted by real part
    all_real_negative: bool
    max_imag_residual: float


def clawfree_root_check(g):
    """Roots of the independence polynomial of a claw-free graph, with the
    verdict that they are all real and negative.

    The roots and their largest imaginary residual are numerical (np.roots);
    the verdict is exact: the count, with multiplicity, of the integer
    polynomial's roots in (-inf, 0] equals its degree.  Raises
    HypothesisViolationError naming a claw when g is not claw-free.
    """
    ok, witness = is_claw_free(g)
    if not ok:
        center, leaves = witness
        raise HypothesisViolationError(
            f"graph is not claw-free: vertex {center} with pairwise "
            f"non-adjacent neighbors {leaves}",
            witness=witness,
        )
    import sympy  # here, so that importing zeromix does not load it

    poly = ind_poly(g)
    roots = sorted((complex(r) for r in poly.roots()), key=lambda z: z.real)
    resid = max((abs(z.imag) / (1.0 + abs(z)) for z in roots), default=0.0)
    exact = sympy.Poly(list(reversed(poly.coeffs)), sympy.Symbol("x"))
    nonpositive = sum(m * f.count_roots(sup=0) for f, m in exact.sqf_list()[1])
    return ClawfreeRootReport(tuple(roots), nonpositive == exact.degree(), resid)


@dataclass(frozen=True)
class RatioScanReport:
    max_abs_ratio: float
    witness: tuple  # (graph_id, vertex, activity)
    n_evaluations: int
    violations: tuple  # (kind, graph_id, vertex, activity) tuples


def ratio_bound_scan(graphs, activities, graph_ids=None):
    """Sweep |P_{g,v}(lam)| over graphs, vertices, and activities.

    Tracks the maximum and its witness, and flags avoidance failures:
    the ratio hitting 0 at lam != 0, the ratio hitting 1, or either
    denominator Z_g or Z_{g - v} vanishing.
    """
    graph_ids = _graph_ids(graphs, graph_ids)
    activities = [complex(lam) for lam in activities]
    for lam in activities:
        _check_finite("activity", lam)
    best = 0.0
    witness = None
    violations = []
    n_eval = 0
    for gid, g in zip(graph_ids, graphs):
        for v in range(g.n):
            for lam in activities:
                n_eval += 1
                try:
                    p = ratio_P(g, v, lam)
                except NearZeroDenominatorError:
                    violations.append(("zero_Z", gid, v, lam))
                    continue
                try:
                    ratio_R(g, v, lam)
                except NearZeroDenominatorError:
                    violations.append(("zero_Z_minus_v", gid, v, lam))
                if abs(p) > best:
                    best = abs(p)
                    witness = (gid, v, lam)
                if lam != 0 and abs(p) <= AVOID_TOL:
                    violations.append(("ratio_zero", gid, v, lam))
                if abs(p - 1.0) <= AVOID_TOL:
                    violations.append(("ratio_one", gid, v, lam))
    return RatioScanReport(best, witness, n_eval, tuple(violations))
