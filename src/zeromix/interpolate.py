"""Certified truncation via conformal maps.

If f is analytic and bounded by M on the closed disk of radius r > 1, its
Taylor coefficients satisfy |a_k| <= M / r^k, so the partial sum through
order N - 1 is within M / ((r - 1) r^N) of f(1).  We apply this to
f(z) = P(lam * g(z)) where P is an occupation ratio and g maps the disk
into a thin zero-free neighborhood of [0, 1]:

  strip map   g(z) = eps * log(1 / (1 - alpha z)),  alpha = 1 - e^(-1/eps),
              r = (1 - e^(-1 - 1/eps)) / (1 - e^(-1/eps));
              image inside the eps-neighborhood... of [0, 1] of width 2 eps.

  sector map  h(z) = delta / (1 - zeta z)^2 - delta,
              zeta = 1 - sqrt(delta / (1 + delta)), r = 1 + sqrt(delta);
              image avoids the real ray left of -3 delta / 4, so it suits
              graphs whose partition-function zeros are real and negative.

Both maps send 0 to 0 and 1 to 1 and have explicit Taylor coefficients.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cluster import ratio_series_division
from .errors import (
    BoundaryError,
    TruncationDepthError,
    ZeroRegionViolationError,
)
from .exact import IndPoly, _ratio_polys, _ratios
from .graphs import _check_vertex, apply_hardcore_boundary
from .series import PowerSeries

DEFAULT_MAX_DEPTH = 64
DEFAULT_SAMPLES = 256


@dataclass(frozen=True)
class StripSpec:
    """Strip map parameters; eps is the half-width of the target neighborhood
    of [0, 1] (the image sits in the width-2*eps neighborhood)."""

    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    @property
    def alpha(self):
        return 1.0 - math.exp(-1.0 / self.eps)

    @property
    def r(self):
        return (1.0 - math.exp(-1.0 - 1.0 / self.eps)) / self.alpha


@dataclass(frozen=True)
class SectorSpec:
    """Sector map parameters; the image avoids reals <= -3*delta/4."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def zeta(self):
        return 1.0 - math.sqrt(self.delta / (1.0 + self.delta))

    @property
    def r(self):
        return 1.0 + math.sqrt(self.delta)


@dataclass(frozen=True)
class ApproxResult:
    """Certified approximation: |true - value| <= error_bound, where
    error_bound = bound_M / ((rate_r - 1) * rate_r**depth_used)."""

    value: float
    error_bound: float
    depth_used: int
    bound_M: float
    rate_r: float


def g_series(spec, order):
    """Taylor coefficients of the strip map: eps * alpha^k / k."""
    a = spec.alpha
    cs = [0j] + [spec.eps * a**k / k for k in range(1, order + 1)]
    return PowerSeries(tuple(cs))


def g_point(spec, z):
    # 1 - alpha*z written as (1 - z) + z*e^{-1/eps}: forming alpha first
    # cancels catastrophically near z = 1 for narrow strips
    w = (1.0 - z) + z * math.exp(-1.0 / spec.eps)
    return -spec.eps * np.log(np.asarray(w, dtype=complex))


def g_inverse(spec, w):
    """Inverse of the strip map where defined: z with g(z) = w."""
    return (1.0 - cmath.exp(-w / spec.eps)) / spec.alpha


def h_series(spec, order):
    """Taylor coefficients of the sector map: delta * (k + 1) * zeta^k for
    k >= 1, constant term 0."""
    z = spec.zeta
    cs = [0j] + [spec.delta * (k + 1) * z**k for k in range(1, order + 1)]
    return PowerSeries(tuple(cs))


def h_point(spec, z):
    return spec.delta / (1.0 - spec.zeta * z) ** 2 - spec.delta


def h_inverse_candidates(spec, w):
    """Both preimages of w under the sector map."""
    s = cmath.sqrt(spec.delta / (w + spec.delta))
    return ((1.0 - s) / spec.zeta, (1.0 + s) / spec.zeta)


def tail_bound(M, r, n):
    """Cauchy tail bound M / ((r - 1) r^n) for an analytic function bounded
    by M on the closed disk of radius r > 1."""
    if not r > 1:
        raise ValueError(f"need r > 1, got {r}")
    if M < 0:
        raise ValueError(f"need M >= 0, got {M}")
    return M / ((r - 1.0) * r**n)


def gap_bound_hardcore(M, r, d):
    """Bound 2 M / ((r - 1) r^(d - 1)) on the difference of two conditional
    probabilities whose boundary conditions agree within distance d."""
    if d < 1:
        raise ValueError(f"need disagreement distance >= 1, got {d}")
    return 2.0 * tail_bound(M, r, d - 1)


def gap_bound_hom(M, r, d):
    """Homomorphism analogue; series agree through order d, giving
    2 M / ((r - 1) r^d)."""
    if d < 0:
        raise ValueError(f"need disagreement distance >= 0, got {d}")
    return 2.0 * tail_bound(M, r, d)


def _map_point(spec, z):
    if isinstance(spec, StripSpec):
        return g_point(spec, z)
    if isinstance(spec, SectorSpec):
        return h_point(spec, z)
    raise TypeError(f"unsupported map spec {spec!r}")


def _sampled_M(num, den, points):
    """1.5 times the largest |num(z) / den(z)| over the sampled points.

    Raises ZeroRegionViolationError at the first point where den vanishes
    to working precision, and ValueError when there are no points.
    """
    points = np.asarray(points, dtype=complex)
    if not points.size:
        raise ValueError("need at least one sample, got 0")
    mags = np.abs(_ratios(num, den, points))
    zero = np.isnan(mags)
    if zero.any():
        z = complex(points[zero.argmax()])
        raise ZeroRegionViolationError(f"denominator vanishes at sampled point {z}", point=z)
    return 1.5 * float(mags.max())


def _circle(r, samples):
    """`samples` equally spaced points on |z| = r, starting at r."""
    return r * np.exp(2j * np.pi * np.arange(samples) / samples)


def estimate_M(g, v, lam, spec, samples=DEFAULT_SAMPLES):
    """Empirical bound on |P_{g,v}(lam * map(z))| over |z| = r.

    Samples the circle uniformly and returns 1.5x the observed maximum.
    Raises ZeroRegionViolationError if Z vanishes to working precision at a
    sampled point.
    """
    num, den = _ratio_polys(g, v)
    return _sampled_M(num, den, lam * _map_point(spec, _circle(spec.r, samples)))


def _zero_in_strip_disk(roots, spec, lam, margin):
    """The first of the activity-space zeros `roots` that pulls back into
    the closed disk of radius r * (1 + margin) under the strip map scaled
    by lam, or None."""
    r = spec.r * (1.0 + margin)
    for rho in roots:
        rho = complex(rho)
        try:
            z = g_inverse(spec, rho / lam)
        except OverflowError:
            # exp(-w/eps) overflows only when the preimage is astronomically
            # far outside the disk
            continue
        if abs(z) <= r:
            # guard against branch wrap of the closed-form inverse
            if abs(lam * g_point(spec, z) - rho) <= 1e-9 * (1.0 + abs(rho)):
                return rho
    return None


def _depth_for(M, r, eps_target):
    if M <= 0:
        return 1
    n = math.log(M / ((r - 1.0) * eps_target)) / math.log(r)
    n = max(1, math.ceil(n))
    while tail_bound(M, r, n) > eps_target:
        n += 1
    return n


EPS_LADDER = (2.5, 2.0, 1.6, 1.25, 1.0, 0.8, 0.6, 0.45, 0.35, 0.25, 0.18, 0.12, 0.08, 0.05)
# the ladder's disks must clear every zero by this fraction of r
LADDER_MARGIN = 0.05


def choose_strip_spec(g, v, lam, eps_target, max_depth=DEFAULT_MAX_DEPTH):
    """Pick a strip width whose disk clears the zeros of Z_g with margin and
    whose certified depth fits under max_depth.  Wider strips give faster
    rates, so EPS_LADDER is walked widest-first."""
    num, den = _ratio_polys(g, v)
    return _strip_and_M(num, den, lam, eps_target, max_depth, EPS_LADDER, LADDER_MARGIN)[0]


def _strip_and_M(num, den, lam, eps_target, max_depth, ladder, margin):
    """The first strip width of the ladder whose scaled disk, widened by
    margin, holds no zero of den and whose certified depth fits under
    max_depth, with its sampled bound M on num / den and that depth."""
    roots = IndPoly(den).roots()
    best_required = None
    nearest = None
    for eps in ladder:
        spec = StripSpec(eps)
        hit = _zero_in_strip_disk(roots, spec, lam, margin)
        if hit is not None:
            nearest = hit
            continue
        try:
            M = _sampled_M(num, den, lam * g_point(spec, _circle(spec.r, DEFAULT_SAMPLES)))
        except ZeroRegionViolationError as exc:
            nearest = exc.point
            continue
        n = _depth_for(M, spec.r, eps_target)
        if n <= max_depth:
            return spec, M, n
        if best_required is None or n < best_required:
            best_required = n
    if best_required is not None:
        raise TruncationDepthError(
            f"no strip width reaches the target within depth {max_depth}",
            required=best_required,
            cap=max_depth,
        )
    raise ZeroRegionViolationError(
        "every candidate strip disk contains a partition-function zero",
        point=nearest,
    )


def approx_cond_prob(
    g,
    v,
    sigma,
    lam,
    eps_target,
    spec=None,
    max_depth=DEFAULT_MAX_DEPTH,
):
    """Conditional occupation probability with a certified error bound.

    Reduces by the boundary, verifies the scaled strip image is zero-free
    (exactly, by pulling the zeros of Z back through the map), bounds
    P(lam * g(z)) on |z| = r by sampling, truncates the composed Taylor
    series at the smallest depth whose tail bound meets eps_target, and
    returns the partial sum at z = 1 with that bound.  A given spec is the
    one-rung ladder (spec.eps,) with no margin.
    """
    if not (isinstance(lam, (int, float)) and lam > 0):
        raise ValueError(f"activity must be a positive real, got {lam!r}")
    if not eps_target > 0:
        raise ValueError(f"error target must be positive, got {eps_target}")
    if spec is not None and not isinstance(spec, StripSpec):
        raise TypeError("approx_cond_prob runs on the strip map; pass a StripSpec")
    _check_vertex(g, v)
    sigma.validate(g)
    if v in sigma.region:
        raise BoundaryError(f"vertex {v} lies in the boundary region")

    h, mapping = apply_hardcore_boundary(g, sigma)
    if v not in mapping:
        # v is adjacent to an occupied boundary vertex: exactly zero
        r = spec.r if spec is not None else 2.0
        return ApproxResult(0.0, 0.0, 0, 0.0, r)
    vv = mapping[v]

    ladder, margin = (EPS_LADDER, LADDER_MARGIN) if spec is None else ((spec.eps,), 0.0)
    spec, M, n = _strip_and_M(*_ratio_polys(h, vv), lam, eps_target, max_depth, ladder, margin)
    p = ratio_series_division(h, vv, order=n - 1)
    scaled = PowerSeries(tuple(c * lam**k for k, c in enumerate(p.coeffs)))
    comp = scaled.compose(g_series(spec, n - 1))
    value = comp.partial_sum()
    return ApproxResult(value.real, tail_bound(M, spec.r, n), n, M, spec.r)
