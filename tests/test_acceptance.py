"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single
``criterion N: PASS/FAIL`` line (run with ``pytest -s`` to see the lines on
success) and then asserts, so a red run still shows every verdict.
"""

import math
import time

import networkx as nx
import numpy as np

from zeromix import (
    HardcoreBoundary,
    SectorSpec,
    SpinBoundary,
    apply_hardcore_boundary,
    approx_cond_prob,
    barvinok_zero_check,
    bfs_distances,
    bounded_ratio_check,
    clawfree_root_check,
    cond_prob_hardcore,
    cycle_graph,
    delta_Delta,
    dist_to_disagreement,
    estimate_M,
    from_edges,
    gap_bound_hardcore,
    grid_graph,
    hom_Z,
    hom_Z_poly,
    hom_Z_via_polymers,
    hom_ratio_series,
    hom_ssm_experiment,
    ind_poly,
    line_graph_of_random_regular,
    logZ_series,
    path_graph,
    random_regular_graph,
    ratio_bound_scan,
    ratio_series_cluster,
    ratio_series_division,
    shearer_radius,
    ssm_scan,
    weitz_lambda_c,
)
from zeromix.cluster import _canonical_form
from zeromix.interpolate import StripSpec
from helpers import brute_hom_Z, random_graph, series_exp, series_quotient, ursell


def _report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _from_nx(a):
    return from_edges(a.number_of_nodes(), [tuple(sorted(e)) for e in a.edges()])


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_series_formula_equivalence():
    t0 = time.perf_counter()
    graphs = []
    for a in nx.graph_atlas_g()[1:]:
        n = a.number_of_nodes()
        if n > 7 or not nx.is_connected(a):
            continue
        if n > 1 and max(d for _, d in a.degree()) > 4:
            continue
        graphs.append(_from_nx(a))
    worst = 0.0
    pairs = 0
    for g in graphs:
        for v in range(g.n):
            a = ratio_series_cluster(g, v, 6).coeffs
            b = ratio_series_division(g, v, 6).coeffs
            worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
            pairs += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 300
    _report(
        1,
        ok,
        f"cluster vs division, K=6, {len(graphs)} connected graphs (<=7 vertices,"
        f" max degree <=4), {pairs} vertex series, max deviation {worst:.2e},"
        f" {dt:.0f}s",
    )


# ---------------------------------------------------------------- criterion 2


def _eight_vertex_classes():
    """All isomorphism classes on exactly 8 vertices: augment every 7-vertex
    class by one vertex joined to each of the 128 subsets, keeping the first
    graph of each canonical form of its adjacency (packed with bit
    u(u-1)/2 + w per edge u > w, as the cluster expansion packs its
    patterns, so vertex 7's row is the subset's mask from bit 21 on)."""
    classes = []
    seen = set()
    for h in (a for a in nx.graph_atlas_g()[1:] if a.number_of_nodes() == 7):
        base_edges = list(h.edges())
        base = sum(1 << (max(e) * (max(e) - 1) // 2 + min(e)) for e in base_edges)
        for mask in range(128):
            joined = [j for j in range(7) if mask >> j & 1]
            key, _ = _canonical_form(base | mask << 21, 8)
            if key not in seen:
                seen.add(key)
                classes.append(from_edges(8, base_edges + [(j, 7) for j in joined]))
    return classes


def test_criterion_2_cluster_expansion_sanity():
    k3 = cycle_graph(3)
    hand_ok = (
        ursell(from_edges(1, [])) == 1
        and ursell(from_edges(2, [(0, 1)])) == -1
        and ursell(k3) == 2
    )

    small = [_from_nx(a) for a in nx.graph_atlas_g()[1:]]
    eight = _eight_vertex_classes()
    # the class count on 8 vertices is known; hitting it exactly certifies
    # the generator
    count_ok = len(small) == 1252 and len(eight) == 12346

    worst = 0.0
    for g in small + eight:
        expZ = series_exp(logZ_series(g, 6).coeffs)
        zc = ind_poly(g).coeffs
        want = tuple(zc[: 7]) + (0,) * max(0, 7 - len(zc))
        worst = max(worst, max(abs(x - y) for x, y in zip(expZ, want)))
    ok = hand_ok and count_ok and worst <= 1e-9
    _report(
        2,
        ok,
        f"exp(logZ) vs independence polynomial to order 6 on {len(small) + len(eight)}"
        f" graphs (<=8 vertices, all isomorphism classes), max deviation {worst:.2e};"
        f" hand values {'ok' if hand_ok else 'WRONG'}",
    )


# ---------------------------------------------------------------- criterion 3


def _draw_sphere_boundary(rng, g, sphere, in_prob=0.35, attempts=60):
    for _ in range(attempts):
        values = {u: int(rng.random() < in_prob) for u in sphere}
        ins = [u for u, s in values.items() if s == 1]
        if all(w not in values or not values[w] for u in ins for w in g.adj[u]):
            return values
    return None


def test_criterion_3_locality():
    pool = [
        grid_graph(5, 5),
        grid_graph(6, 6),
        grid_graph(7, 7),
        random_regular_graph(3, 20, seed=101),
        random_regular_graph(3, 22, seed=102),
        random_regular_graph(3, 24, seed=103),
    ]
    checked = 0
    mismatches = 0
    seen_distances = set()
    t = 0
    while checked < 1000:
        rng = np.random.default_rng([777, t])
        g = pool[t % len(pool)]
        t += 1
        v = int(rng.integers(g.n))
        d = int(rng.integers(2, 7))
        dist = bfs_distances(g, v)
        sphere = [u for u in range(g.n) if dist[u] == d]
        if not sphere:
            continue
        first = _draw_sphere_boundary(rng, g, sphere)
        if first is None:
            continue
        second = None
        for _ in range(60):
            cand = _draw_sphere_boundary(rng, g, sphere)
            if cand is not None and cand != first:
                second = cand
                break
        if second is None:
            continue
        sigma, tau = HardcoreBoundary(first), HardcoreBoundary(second)
        assert dist_to_disagreement(g, v, sigma, tau) == d
        h1, m1 = apply_hardcore_boundary(g, sigma)
        h2, m2 = apply_hardcore_boundary(g, tau)
        s1 = ratio_series_division(h1, m1[v], order=d - 1, ball_radius=d - 2)
        s2 = ratio_series_division(h2, m2[v], order=d - 1, ball_radius=d - 2)
        if s1.coeffs != s2.coeffs:  # exact: the two are identical computations
            mismatches += 1
        seen_distances.add(d)
        checked += 1
    ok = mismatches == 0 and seen_distances == {2, 3, 4, 5, 6}
    _report(
        3,
        ok,
        f"coefficients 0..d-1 of the two boundary-reduced ratio series identical"
        f" on {checked} grid/random-regular instances, distances {sorted(seen_distances)},"
        f" {mismatches} mismatches",
    )


# ---------------------------------------------------------------- criterion 4


def _draw_small_boundary(rng, g, v, max_pins=3, attempts=40):
    others = [u for u in range(g.n) if u != v]
    for _ in range(attempts):
        k = int(rng.integers(0, max_pins + 1))
        region = rng.choice(others, size=min(k, len(others)), replace=False)
        values = {int(u): int(rng.random() < 0.5) for u in region}
        ins = [u for u, s in values.items() if s == 1]
        if all(w not in values or not values[w] for u in ins for w in g.adj[u]):
            return HardcoreBoundary(values)
    return HardcoreBoundary({})


def test_criterion_4_certified_approximation():
    t0 = time.perf_counter()
    pool = [
        grid_graph(4, 4),
        grid_graph(5, 5),
        grid_graph(6, 6),
        grid_graph(3, 12),
        random_regular_graph(3, 16, seed=201),
        random_regular_graph(3, 20, seed=202),
        random_regular_graph(3, 24, seed=203),
        line_graph_of_random_regular(3, 16, seed=204),
        path_graph(30),
        cycle_graph(36),
    ]
    assert max(g.n for g in pool) <= 36
    checked = 0
    violations = 0
    loose = 0
    t = 0
    while checked < 500:
        rng = np.random.default_rng([888, t])
        g = pool[t % len(pool)]
        t += 1
        v = int(rng.integers(g.n))
        lam = 0.1 * (0.1 + 0.9 * rng.random())
        eps = 1e-3 if checked % 2 == 0 else 1e-5
        sigma = _draw_small_boundary(rng, g, v)
        res = approx_cond_prob(g, v, sigma, lam, eps)
        exact = cond_prob_hardcore(g, v, sigma, lam)
        if abs(res.value - exact) > res.error_bound:
            violations += 1
        if res.error_bound > eps:
            loose += 1
        checked += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and loose == 0 and dt < 600
    _report(
        4,
        ok,
        f"{checked} instances (<=36 vertices, lam <= 0.1, eps in {{1e-3, 1e-5}}):"
        f" {violations} bound violations, {loose} bounds above target, {dt:.0f}s",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_closed_forms_and_shearer_scan():
    forms_ok = (
        shearer_radius(3) == 4 / 27
        and shearer_radius(4) == 27 / 256
        and weitz_lambda_c(3) == 4.0
    )
    rng = np.random.default_rng(999)
    radius = 0.999 * shearer_radius(4)
    worst = 0.0
    n_violations = 0
    n_eval = 0
    for _ in range(200):
        n = int(rng.integers(5, 11))
        g = random_graph(rng, n, p=0.5, max_degree=4)
        lams = radius * np.sqrt(rng.uniform(size=50)) * np.exp(
            2j * math.pi * rng.uniform(size=50)
        )
        rep = ratio_bound_scan([g], list(lams))
        worst = max(worst, rep.max_abs_ratio)
        n_violations += len(rep.violations)
        n_eval += rep.n_evaluations
    scan_ok = n_violations == 0 and worst < 4 / 3
    _report(
        5,
        forms_ok and scan_ok,
        f"closed forms {'ok' if forms_ok else 'WRONG'}; Shearer-disk scan"
        f" ({n_eval} ratio evaluations on 200 graphs, max degree <=4):"
        f" {n_violations} violations, max |P| = {worst:.6f} < 4/3",
    )


# ---------------------------------------------------------------- criterion 6


def _seg_dist(w):
    x = min(max(w.real, 0.0), 1.0)
    return abs(w - complex(x, 0.0))


def test_criterion_6_conformal_maps():
    endpoint_worst = 0.0
    for eps in (0.05, 0.1, 0.25, 0.5):
        spec = StripSpec(eps)
        endpoint_worst = max(endpoint_worst, abs(spec.point(0.0)), abs(spec.point(1.0) - 1.0))
    for delta in (0.05, 0.1, 0.5, 1.0):
        spec = SectorSpec(delta)
        endpoint_worst = max(endpoint_worst, abs(spec.point(0.0)), abs(spec.point(1.0) - 1.0))
    endpoints_ok = endpoint_worst <= 1e-12

    rng = np.random.default_rng(606)
    strip_excess = 0.0
    for eps in (0.05, 0.1, 0.25, 0.5):
        spec = StripSpec(eps)
        zs = spec.r * np.sqrt(rng.uniform(size=10000)) * np.exp(
            2j * math.pi * rng.uniform(size=10000)
        )
        for z in zs:
            strip_excess = max(strip_excess, _seg_dist(spec.point(z)) - 2 * eps)
    strips_ok = strip_excess <= 1e-9

    sector_shortfall = math.inf
    for delta in (0.05, 0.1, 0.5, 1.0):
        spec = SectorSpec(delta)
        zs = list(
            spec.r
            * np.sqrt(rng.uniform(size=8000))
            * np.exp(2j * math.pi * rng.uniform(size=8000))
        )
        zs += list(np.linspace(-spec.r, spec.r, 2000))  # the risky diameter
        for z in zs:
            w = spec.point(complex(z))
            if abs(w.imag) <= 1e-12:
                sector_shortfall = min(sector_shortfall, w.real - (-0.75 * delta))
    sectors_ok = sector_shortfall >= -1e-9

    _report(
        6,
        endpoints_ok and strips_ok and sectors_ok,
        f"endpoints within {endpoint_worst:.1e} of {{0, 1}}; strip images within"
        f" 2*eps of [0,1] (worst excess {strip_excess:.1e}); sector images stay"
        f" {sector_shortfall:+.1e} above -3*delta/4 on reals; 10^4 points per"
        f" parameter",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_clawfree_pipeline():
    t0 = time.perf_counter()
    sizes = (10, 12, 14, 16, 18, 20)
    graphs = [
        line_graph_of_random_regular(3, sizes[k % len(sizes)], seed=300 + k)
        for k in range(50)
    ]
    assert max(g.n for g in graphs) <= 30
    roots_ok = all(clawfree_root_check(g).all_real_negative for g in graphs)

    delta = 0.75 / (math.e * 4)  # line graphs of cubic graphs are 4-regular
    ids = [str(k) for k in range(len(graphs))]
    fits_ok = True
    bound_failures = 0
    n_records = 0
    for lam in (0.5, 1.0, 2.0):
        records, fit = ssm_scan(
            graphs,
            lam,
            trials=900,
            max_distance=4,
            seed=31,
            graph_ids=ids,
            collect_boundaries=True,
        )
        means = list(fit.mean_gap_by_distance.values())
        if not (fit.r > 1.0 and all(a > b for a, b in zip(means, means[1:]))):
            fits_ok = False
        spec = SectorSpec(delta / lam)
        for rec in records:
            g = graphs[int(rec.graph_id)]
            M = 0.0
            for boundary in (rec.sigma, rec.tau):
                h, mapping = apply_hardcore_boundary(g, boundary)
                if rec.vertex in mapping:
                    M = max(M, estimate_M(h, mapping[rec.vertex], lam, spec))
            if rec.gap > gap_bound_hardcore(M, spec.r, rec.distance):
                bound_failures += 1
            n_records += 1
    dt = time.perf_counter() - t0
    ok = roots_ok and fits_ok and bound_failures == 0 and dt < 900
    _report(
        7,
        ok,
        f"50 line graphs of cubic graphs (<=30 vertices), lam in {{0.5, 1, 2}}:"
        f" roots all real negative {'ok' if roots_ok else 'WRONG'}; fitted decay"
        f" r > 1 with monotone means {'ok' if fits_ok else 'WRONG'};"
        f" {bound_failures}/{n_records} gaps above the sector-route bound; {dt:.0f}s",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_polymer_identity():
    graphs = [
        _from_nx(a) for a in nx.graph_atlas_g()[1:] if a.number_of_nodes() <= 5
    ]
    rng = np.random.default_rng(1212)
    worst = 0.0
    checked = 0
    for g in graphs:
        for q in (2, 3):
            for _ in range(25):
                rad = 0.8 * np.sqrt(rng.uniform(size=(q, q)))
                ang = rng.uniform(0, 2 * math.pi, size=(q, q))
                A = 1.0 + rad * np.exp(1j * ang)
                A = (A + A.T) / 2
                xi = 0.5 + rng.uniform(size=(g.n, q)) + 0.4j * rng.uniform(size=(g.n, q))
                z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
                npin = int(rng.integers(0, g.n + 1))
                pins = {
                    int(u): int(rng.integers(q))
                    for u in rng.choice(g.n, size=npin, replace=False)
                }
                sigma = SpinBoundary(pins, q=q)
                got = hom_Z_via_polymers(g, A, z=z, sigma=sigma, xi=xi.tolist())
                J = np.ones((q, q))
                want = brute_hom_Z(g, J + z * (A - J), xi=xi.tolist(), sigma=sigma)
                worst = max(worst, abs(got - want) / (1.0 + abs(want)))
                checked += 1
    ok = worst <= 1e-10
    _report(
        8,
        ok,
        f"polymer form vs direct sum on {checked} instances ({len(graphs)} graphs"
        f" <=5 vertices, q in {{2,3}}, 50 draws each), max relative error {worst:.2e}",
    )


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_hom_series():
    rng = np.random.default_rng(1313)
    const_worst = 0.0
    coeff_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, p=0.5)
        q = 2
        rad = 0.2 * np.sqrt(rng.uniform(size=(q, q)))
        ang = rng.uniform(0, 2 * math.pi, size=(q, q))
        A = 1.0 + rad * np.exp(1j * ang)
        A = (A + A.T) / 2
        v = int(rng.integers(n))
        i = int(rng.integers(q))
        others = [u for u in range(n) if u != v]
        npin = int(rng.integers(0, n))
        pins = {
            int(u): int(rng.integers(q))
            for u in rng.choice(others, size=min(npin, len(others)), replace=False)
        }
        sigma = SpinBoundary(pins, q=q)
        L = int(rng.integers(1, 5))
        s = hom_ratio_series(g, v, i, sigma, A, order=L)
        const_worst = max(const_worst, abs(s.coeffs[0] - 1 / q))
        num = hom_Z_poly(g, A, sigma=sigma.extended(v, i))
        den = hom_Z_poly(g, A, sigma=sigma)
        oracle = series_quotient(num, den, L)
        coeff_worst = max(
            coeff_worst, max(abs(x - y) for x, y in zip(s.coeffs, oracle))
        )
    # constant term is 1/q for q = 3 too
    for _ in range(20):
        g = random_graph(rng, 4, p=0.5)
        s = hom_ratio_series(g, 0, 1, SpinBoundary({}, q=3), np.ones((3, 3)), order=1)
        const_worst = max(const_worst, abs(s.coeffs[0] - 1 / 3))

    base = path_graph(8)
    extended = from_edges(9, base.edges() + [(7, 8)])
    A = [[1.0, 0.8], [0.8, 1.3]]
    s_base = hom_ratio_series(base, 0, 0, SpinBoundary({}, q=2), A, order=4)
    s_ext = hom_ratio_series(extended, 0, 0, SpinBoundary({}, q=2), A, order=4)
    s_pin = hom_ratio_series(base, 0, 0, SpinBoundary({7: 1}, q=2), A, order=4)
    local_ok = s_base.coeffs == s_ext.coeffs == s_pin.coeffs

    ok = const_worst <= 1e-12 and coeff_worst <= 1e-9 and local_ok
    _report(
        9,
        ok,
        f"constant term 1/q (worst {const_worst:.1e}), 200 series vs division"
        f" oracle (worst {coeff_worst:.2e}), locality under distance-4"
        f" perturbation {'exact' if local_ok else 'BROKEN'}",
    )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_barvinok_region():
    rng = np.random.default_rng(1414)
    d3 = delta_Delta(3).delta
    min_abs = math.inf
    zero_ok = True
    for _ in range(200):
        n = int(rng.integers(3, 7))
        g = random_graph(rng, n, p=0.5, max_degree=3)
        q = int(rng.integers(2, 4))
        rad = 0.99 * d3 * np.sqrt(rng.uniform(size=(q, q)))
        ang = rng.uniform(0, 2 * math.pi, size=(q, q))
        A = 1.0 + rad * np.exp(1j * ang)
        A = (A + A.T) / 2
        npin = int(rng.integers(0, n + 1))
        pins = {
            int(u): int(rng.integers(q))
            for u in rng.choice(n, size=npin, replace=False)
        }
        sigma = SpinBoundary(pins, q=q)
        val = hom_Z(g, A, sigma=sigma)
        min_abs = min(min_abs, abs(val))
        rep = barvinok_zero_check(g, A, sigma=sigma)
        if not (rep.hypothesis_ok and rep.zero_free and abs(val) > 1e-12):
            zero_ok = False

    ratio_worst = 0.0
    residual_worst = 0.0
    n_violations = 0
    for k in range(50):
        n = int(rng.integers(4, 7))
        g = random_graph(rng, n, p=0.5, max_degree=3)
        v = int(rng.integers(n))
        if g.degree(v) == 0:
            continue
        q = int(rng.integers(2, 4))
        limit = delta_Delta(3).delta / ((1.5 ** 3) * 1.5)
        rad = 0.9 * limit * np.sqrt(rng.uniform(size=(q, q)))
        ang = rng.uniform(0, 2 * math.pi, size=(q, q))
        A = 1.0 + rad * np.exp(1j * ang)
        A = (A + A.T) / 2
        far = max(range(g.n), key=lambda u: (bfs_distances(g, v)[u], u))
        sigma = SpinBoundary({far: 0} if far != v else {}, q=q)
        rep = bounded_ratio_check(
            g, v, int(rng.integers(q)), sigma, A, eta=0.5, eps=0.5, samples=200, seed=k
        )
        n_violations += len(rep.violations)
        ratio_worst = max(ratio_worst, rep.max_abs_ratio)
        residual_worst = max(residual_worst, rep.max_identity_residual)
    bounded_ok = n_violations == 0 and ratio_worst <= 2.0 and residual_worst <= 1e-9

    _report(
        10,
        zero_ok and bounded_ok,
        f"200 boxed matrices: min |Z| = {min_abs:.3e} > 1e-12, zero checks"
        f" {'ok' if zero_ok else 'WRONG'}; bounded box, 200 z-samples in the"
        f" 1.5-disk per instance: max |P| = {ratio_worst:.4f} <= 2,"
        f" {n_violations} violations, identity residual {residual_worst:.1e}",
    )


# --------------------------------------------------------------- criterion 11


def test_criterion_11_hom_ssm():
    eta = 0.5
    d3 = delta_Delta(3).delta
    c = 0.9 * (1 - eta) * d3
    A_sym = [[1 + c, 1 - c], [1 - c, 1 + c]]
    g = path_graph(12)
    gaps = []
    bounds_ok = True
    for d in range(1, 8):
        sigma = SpinBoundary({d: 0}, q=2)
        tau = SpinBoundary({d: 1}, q=2)
        rep = hom_ssm_experiment(g, 0, 0, sigma, tau, A_sym, eta)
        if not (rep.passed and rep.gap <= rep.decay_C * (1 - eta) ** d):
            bounds_ok = False
        gaps.append(rep.gap)
    paths_monotone = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] > 0

    rng = np.random.default_rng(1515)
    pool = [path_graph(n) for n in (8, 10, 12)] + [
        random_regular_graph(3, n, seed=400 + n) for n in (8, 10, 12)
    ]
    checked = 0
    for k in range(30):
        g = pool[k % len(pool)]
        box = 0.9 * (1 - eta) * d3
        if k % 3 == 2:  # complex deviations, still inside the box
            rad = box * np.sqrt(rng.uniform(size=(2, 2)))
            ang = rng.uniform(0, 2 * math.pi, size=(2, 2))
            A = 1.0 + rad * np.exp(1j * ang)
        else:
            A = 1.0 + box * rng.uniform(-1, 1, size=(2, 2))
        A = (A + A.T) / 2
        v = int(rng.integers(g.n))
        dist = bfs_distances(g, v)
        far = max(range(g.n), key=lambda u: (dist[u], u))
        if far == v:
            continue
        rep = hom_ssm_experiment(
            g, v, 0, SpinBoundary({far: 0}, q=2), SpinBoundary({far: 1}, q=2), A, eta
        )
        if not (rep.passed and rep.gap <= rep.bound):
            bounds_ok = False
        checked += 1
    ok = bounds_ok and paths_monotone
    _report(
        11,
        ok,
        f"path gaps strictly decreasing over d=1..7 {'ok' if paths_monotone else 'WRONG'};"
        f" gap <= C*(1-eta)^d on {checked + 7} boxed instances"
        f" {'ok' if bounds_ok else 'WRONG'} (eta=0.5, paths and cubic graphs <=12 vertices)",
    )
