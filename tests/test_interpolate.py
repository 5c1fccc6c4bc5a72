import cmath
import math
import re
import time

import numpy as np
import pytest

from zeromix import (
    BoundaryError,
    HardcoreBoundary,
    SectorSpec,
    StripSpec,
    TruncationDepthError,
    ZeroRegionViolationError,
    approx_cond_prob,
    cond_prob_hardcore,
    cycle_graph,
    eval_poly,
    from_edges,
    gap_bound_hardcore,
    gap_bound_hom,
    grid_graph,
    ind_poly,
    line_graph_of_random_regular,
    path_graph,
    shearer_radius,
    tail_bound,
)
from zeromix.interpolate import EPS_LADDER, _certified, _check_samples, _circle_image, _sampled_M
from helpers import component_M, disjoint_union, pinned_grid_centre, random_graph


def seg_dist(w):
    """Distance from w to the real segment [0, 1]."""
    x, y = w.real, w.imag
    if x < 0:
        return abs(w)
    if x > 1:
        return abs(w - 1)
    return abs(y)


def test_strip_spec_derived_quantities():
    spec = StripSpec(0.5)
    assert spec.alpha == 1 - math.exp(-2.0)
    assert spec.r == (1 - math.exp(-3.0)) / (1 - math.exp(-2.0))
    assert spec.r > 1
    with pytest.raises(ValueError):
        StripSpec(0.0)


def test_sector_spec_derived_quantities():
    spec = SectorSpec(0.25)
    assert spec.zeta == 1 - math.sqrt(0.25 / 1.25)
    assert spec.r == 1.5
    assert 1 < spec.r < 1 / spec.zeta
    with pytest.raises(ValueError):
        SectorSpec(-1.0)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: StripSpec(float("inf")), "eps must be positive and finite, got inf"),
        (lambda: StripSpec(float("nan")), "eps must be positive and finite, got nan"),
        (lambda: SectorSpec(float("inf")), "delta must be positive and finite, got inf"),
        # r rounds to exactly 1 for strips narrower than about 0.027
        (lambda: StripSpec(0.02), "eps = 0.02 gives r = 1.0 in float64; need r > 1"),
        # alpha rounds to 0, which leaves r undefined
        (lambda: StripSpec(1e17), "eps = 1e+17 gives r = nan in float64; need r > 1"),
        (lambda: SectorSpec(1e-40), "delta = 1e-40 gives r = 1.0 in float64; need r > 1"),
    ],
    ids=["strip-inf", "strip-nan", "sector-inf", "strip-0.02", "strip-1e17", "sector-1e-40"],
)
def test_a_degenerate_map_spec_is_rejected(make, message):
    # all but nan were once accepted, and approx_cond_prob with
    # StripSpec(0.02) then raised a bare ZeroDivisionError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
    assert StripSpec(0.03).r > 1 and SectorSpec(1e-30).r > 1


def test_strip_map_endpoints():
    for eps in (0.05, 0.1, 0.25, 0.5, 1.0, 2.5):
        spec = StripSpec(eps)
        assert spec.point(0) == 0
        assert abs(spec.point(1) - 1) <= 1e-12


def test_sector_map_endpoints():
    for delta in (0.05, 0.1, 0.5, 1.0):
        spec = SectorSpec(delta)
        assert spec.point(0) == 0
        assert abs(spec.point(1) - 1) <= 1e-12


def test_g_series_coefficients():
    spec = StripSpec(0.3)
    s = spec.coeffs(5)
    assert s.dtype == np.float64 and s.shape == (6,) and s[0] == 0
    for k in range(1, 6):
        assert abs(s[k] - spec.eps * spec.alpha**k / k) <= 1e-15
    assert abs(s[1] - spec.eps * spec.alpha) <= 1e-15


def test_h_series_coefficients():
    spec = SectorSpec(0.4)
    s = spec.coeffs(5)
    assert s.dtype == np.float64 and s.shape == (6,) and s[0] == 0
    for k in range(1, 6):
        assert abs(s[k] - spec.delta * (k + 1) * spec.zeta**k) <= 1e-15
    assert abs(s[1] - 2 * spec.delta * spec.zeta) <= 1e-15


def test_series_converge_to_point_maps():
    rng = np.random.default_rng(40)
    for spec in (StripSpec(0.7), SectorSpec(0.3)):
        s = spec.coeffs(80)
        for _ in range(50):
            z = 0.8 * spec.r * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            assert abs(eval_poly(s, z) - spec.point(z)) <= 1e-9


def test_g_inverse_round_trip():
    rng = np.random.default_rng(41)
    spec = StripSpec(0.6)
    for _ in range(100):
        z = spec.r * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        w = complex(spec.point(z))
        (pre,) = spec.preimages(w)
        assert abs(pre - z) <= 1e-10 * (1 + abs(z))


def test_h_inverse_candidates_forward_check():
    rng = np.random.default_rng(42)
    spec = SectorSpec(0.8)
    for _ in range(50):
        z = spec.r * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        w = spec.point(z)
        cands = spec.preimages(w)
        assert any(abs(c - z) <= 1e-8 * (1 + abs(z)) for c in cands)
        for c in cands:
            assert abs(spec.point(c) - w) <= 1e-8 * (1 + abs(w))


def test_the_sector_map_has_no_preimage_of_minus_delta():
    # -delta is h(infinity); its preimage once divided by zero
    assert SectorSpec(0.5).preimages(-0.5) == ()
    assert SectorSpec(0.5).preimages(complex(-0.5)) == ()
    # Z_{K_2} = 1 + 2 lam vanishes at -1/2, which is -delta at lam = 1; the
    # sector image misses it, so the query certifies
    k2 = from_edges(2, [(0, 1)])
    res = approx_cond_prob(k2, 0, HardcoreBoundary({}), 1.0, 1e-3, spec=SectorSpec(0.5))
    assert abs(res.value - 1 / 3) <= res.error_bound <= 1e-3


def test_strip_image_containment_sampled():
    # g maps the closed disk of radius r into the 2*eps neighborhood of [0,1]
    rng = np.random.default_rng(43)
    for eps in (0.05, 0.1, 0.25, 0.5):
        spec = StripSpec(eps)
        worst = 0.0
        for _ in range(2500):
            z = spec.r * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            worst = max(worst, seg_dist(spec.point(z)))
        assert worst <= 2 * eps + 1e-9


def test_sector_image_avoids_forbidden_ray_sampled():
    # h on the closed disk of radius 1+sqrt(delta) stays off the reals below -3*delta/4
    rng = np.random.default_rng(44)
    for delta in (0.05, 0.1, 0.5, 1.0):
        spec = SectorSpec(delta)
        for _ in range(1500):
            z = spec.r * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            w = spec.point(z)
            if abs(w.imag) <= 1e-9:
                assert w.real >= -0.75 * delta + 1e-9
        # the real diameter, where the image is exactly real
        for x in np.linspace(-spec.r, spec.r, 1000):
            w = spec.point(complex(x))
            assert abs(w.imag) <= 1e-12
            assert w.real >= -0.75 * delta + 1e-9


def test_tail_bound_values():
    assert tail_bound(1.0, 2.0, 0) == 1.0
    assert tail_bound(1.0, 2.0, 3) == 1 / 8
    bounds = [tail_bound(1.0, 2.0, n) for n in range(8)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    with pytest.raises(ValueError):
        tail_bound(1.0, 0.9, 2)
    with pytest.raises(ValueError):
        tail_bound(-1.0, 2.0, 2)


def test_gap_bounds():
    assert gap_bound_hardcore(1.0, 2.0, 1) == 2.0
    assert gap_bound_hardcore(1.0, 2.0, 3) == 2 / 4
    assert gap_bound_hom(1.0, 2.0, 3) == 2 / 8
    with pytest.raises(ValueError):
        gap_bound_hardcore(1.0, 2.0, 0)


def test_estimate_M_is_an_upper_bound_on_resampled_points():
    g = path_graph(5)
    lam = 0.1
    spec = StripSpec(1.0)
    M = component_M(g, 2, lam, spec, samples=256)
    # the 1.5 safety factor dominates a coarser resampling
    for j in range(57):
        z = spec.r * cmath.exp(2j * math.pi * j / 57)
        w = lam * spec.point(z)
        num = w * ind_poly(from_edges(2, []))(w)  # P5 - N[2] is two lone vertices
        den = ind_poly(g)(w)
        assert abs(num / den) <= M


def test_estimate_M_shearer_disk_bound():
    # inside the Shearer disk the ratio stays below Delta/(Delta-1)
    rng = np.random.default_rng(45)
    for _ in range(10):
        g = random_graph(rng, 8, p=0.4, max_degree=3)
        v = int(rng.integers(8))
        lam = 0.25 * shearer_radius(3)
        M = component_M(g, v, lam, StripSpec(0.25), samples=64)
        assert M <= 1.5 * 3 / 2


def test_estimate_M_rejects_zero_samples():
    num, den = (0, 1), (1, 1)
    with pytest.raises(ValueError, match="^need at least one sample, got 0$"):
        _sampled_M(num, den, 0.1 * _circle_image(StripSpec(0.5), 0))
    # the check reports the count it is given
    with pytest.raises(ValueError, match="^need at least one sample, got -1$"):
        _check_samples(-1)


@pytest.mark.parametrize("samples", [2.5, True, "8"])
def test_a_sample_count_that_is_not_an_int_is_rejected(samples):
    # 2.5 once sampled 3 points and True one
    message = f"^samples must be an integer, got {re.escape(repr(samples))}$"
    with pytest.raises(ValueError, match=message):
        _check_samples(samples)
    _check_samples(np.int64(8))


@pytest.mark.parametrize("lam", [0, -0.5, 1j, float("nan")])
def test_strip_choice_and_M_reject_a_bad_activity(lam):
    # before any root finding or sampling: 0 once divided by zero in the
    # strip test, and the others raised exit-2 errors
    message = f"^activity must be a positive real, got {re.escape(repr(lam))}$"
    with pytest.raises(ValueError, match=message):
        approx_cond_prob(path_graph(3), 0, HardcoreBoundary({}), lam, 1e-3)


@pytest.mark.parametrize("max_depth", [0, -5])
def test_nonpositive_max_depth_is_rejected(max_depth):
    # a blocked vertex needs no depth, but its query is checked all the same
    message = f"^max_depth must be >= 1, got {max_depth}$"
    for v, sigma in ((0, HardcoreBoundary({})), (1, HardcoreBoundary({0: 1}))):
        with pytest.raises(ValueError, match=message):
            approx_cond_prob(path_graph(3), v, sigma, 0.5, 1e-3, max_depth=max_depth)


def test_an_infinite_error_target_is_rejected():
    # once a math domain error from the depth formula's log(0)
    message = "^error target must be positive and finite, got inf$"
    with pytest.raises(ValueError, match=message):
        approx_cond_prob(path_graph(3), 0, HardcoreBoundary({}), 0.5, float("inf"))


def test_an_error_target_below_the_float64_floor_is_rejected():
    # P(0 occupied) on K2 plus an isolated vertex is 1/4; at 1e-300 this once
    # returned 0.2500000000000001 with a bound of 6.0e-301, which rounding
    # alone breaks
    g = from_edges(3, [(0, 1)])
    message = r"^error target 1e-300 is below the float64 floor 2\.22e-16$"
    with pytest.raises(ValueError, match=message):
        approx_cond_prob(g, 0, HardcoreBoundary({}), 0.5, 1e-300, max_depth=10**6)
    # a few ulps above it are still a target
    res = approx_cond_prob(g, 0, HardcoreBoundary({}), 0.5, 1e-15, max_depth=10**6)
    assert abs(res.value - 0.25) <= res.error_bound


@pytest.mark.parametrize("max_depth", [True, 2.5, "64"])
def test_a_depth_cap_that_is_not_an_int_is_rejected(max_depth):
    # True once passed as depth 1 and 2.5 as a cap between 2 and 3, and
    # TruncationDepthError then reported "within depth True"
    message = f"^max_depth must be an integer, got {re.escape(repr(max_depth))}$"
    for v, sigma in ((0, HardcoreBoundary({})), (1, HardcoreBoundary({0: 1}))):
        with pytest.raises(ValueError, match=message):
            approx_cond_prob(path_graph(3), v, sigma, 0.5, 1e-3, max_depth=max_depth)
    # any Integral that is not a bool is a depth cap
    res = approx_cond_prob(path_graph(3), 0, HardcoreBoundary({}), 0.5, 1e-3, max_depth=np.int64(64))
    assert res.depth_used > 0


def test_sampled_M_bounds_the_points_and_stops_at_a_zero():
    num, den = (0, 1), (1, 2)  # z / (1 + 2z); the denominator vanishes at -0.5
    points = [0.1, 1j, -1.0, 0.4 - 0.3j]
    want = max(abs(complex(z) / (2 * complex(z) + 1)) for z in points)
    assert _sampled_M(num, den, points) == 1.5 * want
    # the first vanishing point is reported, not the exact zero after it
    near = -0.5 + 1e-14j
    with pytest.raises(ZeroRegionViolationError) as e:
        _sampled_M(num, den, [0.3, near, -0.5, 2.0])
    assert e.value.point == near
    with pytest.raises(ValueError, match="need at least one sample, got 0"):
        _sampled_M(num, den, [])


@pytest.mark.parametrize(
    "g,lam",
    [(path_graph(5), 0.1), (path_graph(5), 0.5), (cycle_graph(6), 0.1), (cycle_graph(6), 0.5),
     (grid_graph(3, 3), 0.1), (disjoint_union(grid_graph(3, 3), path_graph(11)), 0.5)],
    ids=["P5-0.1", "P5-0.5", "C6-0.1", "C6-0.5", "grid3x3-0.1", "grid3x3+P11-0.5"],
)
def test_given_strip_matches_the_ladder(g, lam):
    v, sigma = g.n // 2, HardcoreBoundary({})
    res = approx_cond_prob(g, v, sigma, lam, 1e-4)
    (eps,) = [eps for eps in EPS_LADDER if StripSpec(eps).r == res.rate_r]
    assert approx_cond_prob(g, v, sigma, lam, 1e-4, spec=StripSpec(eps)) == res
    assert abs(res.value - cond_prob_hardcore(g, v, sigma, lam)) <= res.error_bound


def test_no_strip_certifies_the_3x3_grid_at_half_within_default_depth():
    # a zero at -0.196 leaves only narrow strips with slow rates
    with pytest.raises(TruncationDepthError) as e:
        approx_cond_prob(grid_graph(3, 3), 4, HardcoreBoundary({}), 0.5, 1e-4)
    assert e.value.required > e.value.cap == 64


@pytest.mark.parametrize(
    "g,v,depth", [(cycle_graph(6), 3, 75), (grid_graph(3, 3), 4, 222)], ids=["C6", "grid3x3"]
)
def test_approx_cond_prob_holds_its_bound_past_depth_64(g, v, depth):
    # the ratio series alternates and grows like (lam / |nearest zero|)^k;
    # composing it with the strip map in doubles cancelled past depth 64
    # (off by 1.6e-6 on C6 and by 2.6e23 on the grid), composing the
    # numerator and the denominator does not
    sigma = HardcoreBoundary({})
    res = approx_cond_prob(g, v, sigma, 0.5, 1e-6, max_depth=256)
    assert res.depth_used == depth
    assert abs(res.value - cond_prob_hardcore(g, v, sigma, 0.5)) <= res.error_bound <= 1e-6


def test_approx_cond_prob_ignores_other_components():
    # the grid's zero at -0.196 blocks every wide strip; v's component has none
    sigma = HardcoreBoundary({})
    union = disjoint_union(path_graph(3), grid_graph(3, 3))
    want = approx_cond_prob(path_graph(3), 1, sigma, 0.5, 1e-4)
    assert repr(approx_cond_prob(union, 1, sigma, 0.5, 1e-4)) == repr(want)


def test_approx_cond_prob_sweeps_only_inside_a_pinned_sphere():
    want = approx_cond_prob(*pinned_grid_centre(8, 3), 0.1, 1e-8)
    start = time.perf_counter()
    got = approx_cond_prob(*pinned_grid_centre(100, 3), 0.1, 1e-8)
    assert time.perf_counter() - start < 2.0
    assert repr(got) == repr(want)


def test_approx_cond_prob_certifies_examples():
    g = path_graph(3)
    sigma = HardcoreBoundary({0: 1})
    res = approx_cond_prob(g, 2, sigma, 1.0, 1e-4)
    exact = cond_prob_hardcore(g, 2, sigma, 1.0)
    assert abs(exact - 0.5) <= 1e-15
    assert abs(res.value - exact) <= res.error_bound
    assert res.error_bound <= 1e-4
    assert res.depth_used >= 1


def test_approx_cond_prob_error_bound_invariant():
    g = grid_graph(4, 4)
    res = approx_cond_prob(g, 5, HardcoreBoundary({}), 0.1, 1e-6)
    assert res.error_bound == tail_bound(res.bound_M, res.rate_r, res.depth_used)
    exact = cond_prob_hardcore(g, 5, HardcoreBoundary({}), 0.1)
    assert abs(res.value - exact) <= res.error_bound
    assert res.error_bound <= 1e-6


def test_approx_cond_prob_grid_interior():
    g = grid_graph(6, 6)
    v = 2 * 6 + 3  # interior vertex
    res = approx_cond_prob(g, v, HardcoreBoundary({}), 0.1, 1e-6)
    exact = cond_prob_hardcore(g, v, HardcoreBoundary({}), 0.1)
    assert abs(res.value - exact) <= 1e-6


def test_approx_cond_prob_has_no_exact_oracle_size_cap():
    # 48 vertices after the boundary reduction
    g = grid_graph(7, 7)
    sigma = HardcoreBoundary({0: 0})
    res = approx_cond_prob(g, 24, sigma, 0.1, 1e-8)
    exact = cond_prob_hardcore(g, 24, sigma, 0.1)
    assert abs(res.value - exact) <= res.error_bound <= 1e-8


def test_approx_cond_prob_forced_out_vertex():
    g = path_graph(3)
    res = approx_cond_prob(g, 1, HardcoreBoundary({0: 1}), 0.5, 1e-3)
    assert res.value == 0.0
    assert res.error_bound == 0.0
    assert res.depth_used == 0


def test_approx_cond_prob_input_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        approx_cond_prob(g, 0, HardcoreBoundary({}), -1.0, 1e-3)
    with pytest.raises(ValueError):
        approx_cond_prob(g, 0, HardcoreBoundary({}), 0.5, 0.0)
    with pytest.raises(BoundaryError):
        approx_cond_prob(g, 0, HardcoreBoundary({0: 1}), 0.5, 1e-3)
    with pytest.raises(TypeError, match="^spec must be a StripSpec or a SectorSpec, got 0.5$"):
        approx_cond_prob(g, 0, HardcoreBoundary({}), 0.5, 1e-3, spec=0.5)


def test_zero_region_violation_with_explicit_wide_strip():
    # Z_{K_2} = 1 + 2*lam vanishes at -1/2; at lam=1.5 the scaled wide-strip
    # disk contains that zero
    k2 = from_edges(2, [(0, 1)])
    with pytest.raises(ZeroRegionViolationError) as e:
        approx_cond_prob(k2, 0, HardcoreBoundary({}), 1.5, 1e-3, spec=StripSpec(2.5))
    assert e.value.point is not None
    assert abs(e.value.point - (-0.5)) <= 1e-9


def test_ladder_exhausted_by_zeros():
    # at lam=20 even the narrowest strip's scaled image covers the zero
    k2 = from_edges(2, [(0, 1)])
    with pytest.raises(ZeroRegionViolationError):
        approx_cond_prob(k2, 0, HardcoreBoundary({}), 20.0, 1e-3)


def test_truncation_depth_error_reports_requirement():
    g = path_graph(3)
    with pytest.raises(TruncationDepthError) as e:
        approx_cond_prob(
            g, 1, HardcoreBoundary({}), 0.5, 1e-9, spec=StripSpec(1.0), max_depth=3
        )
    assert e.value.required > 3
    assert e.value.cap == 3


def test_the_ladder_prefers_wide_strips():
    res = approx_cond_prob(path_graph(3), 1, HardcoreBoundary({}), 0.01, 1e-3)
    assert res.rate_r == StripSpec(EPS_LADDER[0]).r


def test_the_ladder_narrows_as_activity_grows():
    # a narrower strip has a slower rate
    g = path_graph(3)
    wide = approx_cond_prob(g, 1, HardcoreBoundary({}), 0.01, 1e-3).rate_r
    mid = approx_cond_prob(g, 1, HardcoreBoundary({}), 0.2, 1e-3).rate_r
    assert mid <= wide


# (graph, vertex, lam, depth_used, bound_M, rate_r, error_bound, value) of
# approx_cond_prob at target 1e-8 with no boundary, as the Horner composition
# with complex long division computed them; the table route in real
# arithmetic keeps the first four by repr and moves the value only by
# rounding
CERTIFIED = [
    ("grid6x6", 0, 0.03, 20, 0.12203903486855933, 2.285255827655929, 6.292347231983929e-09, 0.02758466816852505),
    ("grid6x6", 0, 0.11, 26, 0.3902485942799855, 1.9744101008840758, 8.341191687786177e-09, 0.08438842404528146),
    ("grid6x6", 0, 0.21, 60, 0.4495670074857557, 1.3678794411714423, 8.398845205232693e-09, 0.13541427739798093),
    ("grid6x6", 14, 0.03, 20, 0.1066786171882204, 2.285255827655929, 5.5003622594946216e-09, 0.026198010246999352),
    ("grid6x6", 14, 0.11, 28, 1.1878143384020539, 1.9744101008840758, 6.5126927444526975e-09, 0.07346622766575442),
    ("grid6x6", 14, 0.21, 64, 1.7747563087563978, 1.3678794411714423, 9.470492938098463e-09, 0.11091626100984486),
    ("grid6x6", 27, 0.03, 20, 0.10621025518704205, 2.285255827655929, 5.476213458704324e-09, 0.02618065975522179),
    ("grid6x6", 27, 0.11, 28, 0.9958731706312559, 1.9744101008840758, 5.460294393727003e-09, 0.07312444423687978),
    ("grid6x6", 27, 0.21, 64, 1.413480123382856, 1.3678794411714423, 7.542643156468016e-09, 0.10988126160716914),
    ("line16", 0, 0.03, 20, 0.10560623472746467, 2.285255827655929, 5.4450700915761185e-09, 0.026161780907870885),
    ("line16", 0, 0.11, 27, 0.8701977772531619, 1.9744101008840758, 9.420356966907161e-09, 0.07267941229105597),
    ("line16", 0, 0.21, 63, 1.16970919346593, 1.3678794411714423, 8.538067452897464e-09, 0.10830253270271688),
    ("line16", 9, 0.03, 20, 0.10551253079927846, 2.285255827655929, 5.440238705833159e-09, 0.02616075475080947),
    ("line16", 9, 0.11, 27, 0.9234008679929735, 1.9744101008840758, 9.996308916697041e-09, 0.07260793974904117),
    ("line16", 9, 0.21, 63, 1.2720375497348568, 1.3678794411714423, 9.28499362313592e-09, 0.10790852937040483),
    ("line16", 17, 0.03, 20, 0.10490747320037722, 2.285255827655929, 5.4090418636773875e-09, 0.026141874427090064),
    ("line16", 17, 0.11, 27, 0.8132049385517839, 1.9744101008840758, 8.803378965861146e-09, 0.0721620633784576),
    ("line16", 17, 0.21, 63, 1.074576648641424, 1.3678794411714423, 7.843665725344417e-09, 0.10631955423833829),
]
CERTIFIED_GRAPHS = {
    "grid6x6": grid_graph(6, 6),
    "line16": line_graph_of_random_regular(3, 16, seed=5),
}


@pytest.mark.parametrize("name,v,lam,depth,M,r,bound,value", CERTIFIED)
def test_certified_metadata_is_pinned(name, v, lam, depth, M, r, bound, value):
    res = approx_cond_prob(CERTIFIED_GRAPHS[name], v, HardcoreBoundary({}), lam, 1e-8)
    assert (res.depth_used, repr(res.bound_M), repr(res.rate_r), repr(res.error_bound)) == (
        depth,
        repr(M),
        repr(r),
        repr(bound),
    )
    assert abs(res.value - value) <= 2 * bound


def test_queries_sharing_a_ratio_pair_share_one_certified_entry():
    # P9 pinned empty at 1 and 7 leaves vertex 4 the centre of a free P5
    small = (path_graph(5), 2, HardcoreBoundary({}))
    large = (path_graph(9), 4, HardcoreBoundary({1: 0, 7: 0}))
    _certified.cache_clear()
    first = approx_cond_prob(*small, 0.3, 1e-8)
    assert _certified.cache_info().hits == 0
    second = approx_cond_prob(*large, 0.3, 1e-8)
    assert _certified.cache_info().hits == 1
    _certified.cache_clear()
    cold = approx_cond_prob(*large, 0.3, 1e-8)
    assert repr(first) == repr(second) == repr(cold)
    # each of lam, the target, the cap and the spec is part of the key; the
    # two specs hash alike but are not equal
    assert hash(StripSpec(1.6)) == hash(SectorSpec(1.6)) and StripSpec(1.6) != SectorSpec(1.6)
    for lam, target, cap, spec in ((0.31, 1e-8, 64, None), (0.3, 1e-9, 64, None),
                                   (0.3, 1e-8, 63, None), (0.3, 1e-8, 64, StripSpec(1.6)),
                                   (0.3, 1e-8, 64, SectorSpec(1.6))):
        approx_cond_prob(*large, lam, target, spec=spec, max_depth=cap)
    assert _certified.cache_info().currsize == 6 and _certified.cache_info().hits == 0
    # a query that raises leaves no entry, and raises again
    for _ in range(2):
        with pytest.raises(TruncationDepthError):
            approx_cond_prob(*large, 0.3, 1e-8, max_depth=1)
    assert _certified.cache_info().currsize == 6 and _certified.cache_info().hits == 0
