"""Experiment harness: spatial-mixing scans, zero localization, and ratio
bound sweeps over graph families.

ssm_scan draws random boundary-condition pairs on distance spheres and
records the gap between the two conditional occupation probabilities; the
fit of log gap against distance estimates the decay rate.  zero_scan counts
partition-function zeros per cell of a rectangle by winding numbers of
Z'/Z.  The scans are exact per record; only the sampling is random, and it
is fully determined by the seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolationError, NearZeroDenominatorError
from .exact import cond_prob_hardcore, ind_poly, ratio_P, ratio_R
from .graphs import HardcoreBoundary, bfs_distances, is_claw_free


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


def _sample_boundary(rng, sphere, adj):
    """Rejection-sample an occupancy assignment on the sphere whose in-set is
    independent; the inclusion probability starts at SPHERE_IN_PROB and is
    halved after every 50 failed attempts so dense spheres stay feasible."""
    p = SPHERE_IN_PROB
    for attempt in range(MAX_BOUNDARY_ATTEMPTS):
        if attempt and attempt % 50 == 0:
            p /= 2.0
        values = {u: int(rng.random() < p) for u in sphere}
        ins = [u for u, s in values.items() if s == 1]
        ok = True
        for a in ins:
            if any(b in values and values[b] == 1 for b in adj[a] if b != a):
                ok = False
                break
        if ok:
            return values
    return None


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

    Each trial t is driven by its own generator seeded from (seed, t): pick
    the graph round-robin, a uniform vertex v and distance d, take the full
    distance-d sphere as the boundary region, and draw two independent
    occupancy assignments on it (the second redrawn until it differs, so the
    disagreement distance is exactly d).  Returns (records, fit); fit is
    None when fewer than two distances have enough usable records.
    """
    if graph_ids is None:
        graph_ids = [f"g{k}" for k in range(len(graphs))]
    if len(graph_ids) != len(graphs):
        raise ValueError("graph_ids must match graphs")
    records = []
    skipped = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        k = t % len(graphs)
        g = graphs[k]
        v = int(rng.integers(g.n))
        d = int(rng.integers(1, max_distance + 1))
        dist = bfs_distances(g, v)
        sphere = [u for u in range(g.n) if dist[u] == d]
        if not sphere:
            skipped += 1
            continue
        first = _sample_boundary(rng, sphere, g.adj)
        if first is None:
            skipped += 1
            continue
        second = None
        for _ in range(MAX_BOUNDARY_ATTEMPTS):
            cand = _sample_boundary(rng, sphere, g.adj)
            if cand is not None and cand != first:
                second = cand
                break
        if second is None:
            skipped += 1
            continue
        sigma = HardcoreBoundary(first)
        tau = HardcoreBoundary(second)
        gap = abs(
            cond_prob_hardcore(g, v, sigma, lam)
            - cond_prob_hardcore(g, v, tau, lam)
        )
        if collect_boundaries:
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


def _cell_winding(poly, corners, pts_per_side):
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


def zero_scan(g, rect, resolution):
    """Count zeros of the independence polynomial of g per cell of a
    rectangle in the complex activity plane.

    Each cell's count is the winding number of Z around its boundary,
    integrated by the composite midpoint rule over PTS_PER_SIDE points per
    side.  When |Z| dips below CONTOUR_TOL on a contour or the integral is
    not close to an integer, the point count is doubled up to MAX_DOUBLINGS
    times; cells that never settle are flagged inconclusive (count -1)
    rather than guessed.
    """
    re_min, re_max, im_min, im_max = rect
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
    inconclusive = []
    overall_min = math.inf
    for i in range(n_re):
        for j in range(n_im):
            x0, x1 = re_min + i * dx, re_min + (i + 1) * dx
            y0, y1 = im_min + j * dy, im_min + (j + 1) * dy
            corners = [
                complex(x0, y0),
                complex(x1, y0),
                complex(x1, y1),
                complex(x0, y1),
            ]
            pts = PTS_PER_SIDE
            settled = False
            for _ in range(MAX_DOUBLINGS + 1):
                winding, min_abs = _cell_winding(poly, corners, pts)
                overall_min = min(overall_min, min_abs)
                if winding is not None and min_abs > CONTOUR_TOL:
                    rounded = round(winding.real)
                    if abs(winding - rounded) <= 0.2 and rounded >= 0:
                        counts[i][j] = int(rounded)
                        settled = True
                        break
                pts *= 2
            if not settled:
                counts[i][j] = -1
                inconclusive.append((i, j))
    total = sum(c for row in counts for c in row if c >= 0)
    return ZeroScanReport(
        rect=tuple(rect),
        resolution=(n_re, n_im),
        counts=tuple(tuple(row) for row in counts),
        total=total,
        inconclusive=tuple(inconclusive),
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
    if graph_ids is None:
        graph_ids = [f"g{k}" for k in range(len(graphs))]
    if len(graph_ids) != len(graphs):
        raise ValueError("graph_ids must match graphs")
    best = 0.0
    witness = None
    violations = []
    n_eval = 0
    for gid, g in zip(graph_ids, graphs):
        for v in range(g.n):
            for lam in activities:
                lam = complex(lam)
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
