"""Certified truncation via conformal maps.

If f is analytic and bounded by M on the closed disk of radius r > 1, its
Taylor coefficients satisfy |a_k| <= M / r^k, so the partial sum through
order N - 1 is within M / ((r - 1) r^N) of f(1).  We apply this to
f(z) = P(lam * map(z)) where P is an occupation ratio and the map takes the
disk into a thin zero-free neighborhood of [0, 1]:

  strip map   g(z) = eps * log(1 / (1 - alpha z)),  alpha = 1 - e^(-1/eps),
              r = (1 - e^(-1 - 1/eps)) / (1 - e^(-1/eps));
              image inside the eps-neighborhood... of [0, 1] of width 2 eps.

  sector map  h(z) = delta / (1 - zeta z)^2 - delta,
              zeta = 1 - sqrt(delta / (1 + delta)), r = 1 + sqrt(delta);
              image avoids the real ray left of -3 delta / 4, so it suits
              graphs whose partition-function zeros are real and negative.

Each map is a spec, StripSpec or SectorSpec, that owns its formulas: the
point map, its Taylor coefficients, the preimages of a point and r.  The
certify kernel reads only those, so both maps run through the same rung
walker.  Both maps send 0 to 0 and 1 to 1 and have positive Taylor
coefficients, so composing P's positive numerator x I(H - N[v]) and
denominator I(H) with lam * map cancels nothing; one long division then
gives P(lam * map(z)).

Each denominator's zeros are found once (_den_roots), and each rung's
sampled bound M evaluates both polynomials at lam times the rung's circle
image with one matrix product against a cached table of the points' powers
(_circle_powers).  The division (series._long_division) runs in blocks.
"""

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import TruncationDepthError, ZeroRegionViolationError
from .exact import (
    IndPoly,
    _check_count,
    _free_component,
    _hardcore_query,
    _near_zero,
    _ratio_polys,
)
from .series import _long_division

DEFAULT_MAX_DEPTH = 64
DEFAULT_SAMPLES = 256


def _check_map_param(name, value, rate):
    """Raise ValueError unless the map parameter is positive and finite and
    rate() gives a radius r > 1 in float64: a narrow strip rounds r to
    exactly 1, and the tail bound then divides by r - 1 = 0."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    r = rate()
    if not r > 1:
        raise ValueError(f"{name} = {value} gives r = {r} in float64; need r > 1")


@dataclass(frozen=True)
class StripSpec:
    """Strip map parameters; eps is the half-width of the target neighborhood
    of [0, 1] (the image sits in the width-2*eps neighborhood)."""

    eps: float

    def __post_init__(self):
        # alpha is 0 in float64 for eps past about 2^54, and r is then undefined
        _check_map_param("eps", self.eps, lambda: self.r if self.alpha > 0 else math.nan)

    @property
    def alpha(self):
        return 1.0 - math.exp(-1.0 / self.eps)

    @property
    def r(self):
        return (1.0 - math.exp(-1.0 - 1.0 / self.eps)) / self.alpha

    def point(self, z):
        # 1 - alpha*z written as (1 - z) + z*e^{-1/eps}: forming alpha first
        # cancels catastrophically near z = 1 for narrow strips
        w = (1.0 - z) + z * math.exp(-1.0 / self.eps)
        return -self.eps * np.log(np.asarray(w, dtype=complex))

    def coeffs(self, order):
        """Taylor coefficients 0..order: 0, then eps * alpha^k / k."""
        a = self.alpha
        return np.array([0.0] + [self.eps * a**k / k for k in range(1, order + 1)])

    def preimages(self, w):
        """The z with g(z) = w, by the closed-form inverse, or none."""
        # the map takes the slit plane onto exactly this strip; outside it
        # the closed-form inverse wraps w onto a false preimage
        if not -math.pi * self.eps <= w.imag < math.pi * self.eps:
            return ()
        try:
            return ((1.0 - cmath.exp(-w / self.eps)) / self.alpha,)
        except OverflowError:
            # exp(-w/eps) overflows only when the preimage is astronomically
            # far outside the disk
            return ()


@dataclass(frozen=True)
class SectorSpec:
    """Sector map parameters; the image avoids reals <= -3*delta/4."""

    delta: float

    def __post_init__(self):
        _check_map_param("delta", self.delta, lambda: self.r)

    @property
    def zeta(self):
        return 1.0 - math.sqrt(self.delta / (1.0 + self.delta))

    @property
    def r(self):
        return 1.0 + math.sqrt(self.delta)

    def point(self, z):
        return self.delta / (1.0 - self.zeta * z) ** 2 - self.delta

    def coeffs(self, order):
        """Taylor coefficients 0..order: 0, then delta * (k + 1) * zeta^k."""
        z = self.zeta
        return np.array([0.0] + [self.delta * (k + 1) * z**k for k in range(1, order + 1)])

    def preimages(self, w):
        """Both z with h(z) = w, or none for w = -delta, the image of
        infinity."""
        d = w + self.delta
        if d == 0:
            return ()
        s = cmath.sqrt(self.delta / d)
        return ((1.0 - s) / self.zeta, (1.0 + s) / self.zeta)


@dataclass(frozen=True)
class ApproxResult:
    """Certified approximation: |true - value| <= error_bound, where
    error_bound = bound_M / ((rate_r - 1) * rate_r**depth_used)."""

    value: float
    error_bound: float
    depth_used: int
    bound_M: float
    rate_r: float


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


def _check_samples(samples):
    """Raise ValueError unless samples is an int (not a bool) of at least 1."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")


def _powers(points, rows):
    """The complex array whose row j holds z^j at each of the points, for
    j < max(rows, 2): row 1 is the points themselves."""
    z = np.asarray(points, dtype=complex)
    out = np.empty((max(rows, 2), z.size), complex)
    out[0] = 1.0
    out[1] = z
    for j in range(2, len(out)):
        np.multiply(out[j - 1], z, out=out[j])
    return out


def _sampled_M(num, den, powers):
    """1.5 times the largest |num(z) / den(z)| over the sample points z, the
    columns of the table `_powers` gives (as many rows as num or den has
    coefficients, or more): both polynomials are evaluated by one product.

    Raises ZeroRegionViolationError at the first point where den vanishes
    to working precision, and ValueError when there are no points.
    """
    _check_samples(powers.shape[1])
    k = max(len(num), len(den))
    coeffs = np.zeros((2, k), complex)
    coeffs[0, : len(num)] = num
    coeffs[1, : len(den)] = den
    a, b = coeffs @ powers[:k]
    zero = _near_zero(a, b)
    if zero.any():
        z = complex(powers[1, zero.argmax()])
        raise ZeroRegionViolationError(f"denominator vanishes at sampled point {z}", point=z)
    return 1.5 * float(np.abs(a / b).max())


def _circle(r, samples):
    """`samples` equally spaced points on |z| = r, starting at r."""
    return r * np.exp(2j * np.pi * np.arange(samples) / samples)


@functools.lru_cache(maxsize=64)
def _circle_image(spec, samples=DEFAULT_SAMPLES):
    """The map's image of the circle |z| = spec.r, one read-only array per
    spec shared by every query."""
    w = spec.point(_circle(spec.r, samples))
    w.flags.writeable = False
    return w


def _pow2_ceil(k):
    """The least power of two >= k, for k >= 1."""
    return 1 << (k - 1).bit_length()


# the most rows of a shared _circle_powers table: 64 KiB at 256 samples.  A
# larger component's table is built for its query alone, so a few queries
# on long paths do not keep megabytes per (rung, lam) alive
_CACHED_ROWS = 16


@functools.lru_cache(maxsize=64)
def _circle_powers(spec, lam, rows):
    """The read-only `_powers` table of lam times the map's image of the
    circle |z| = spec.r, one per (spec, lam, rows) shared by every query;
    the ladder rounds rows up to a power of two, so denominators of nearby
    degree share a table."""
    P = _powers(lam * _circle_image(spec), rows)
    P.flags.writeable = False
    return P


@functools.lru_cache(maxsize=1024)
def _den_roots(den):
    """The zeros of the denominator den as Python complexes, found once per
    denominator: queries with different numerators or activities often
    share one."""
    return tuple(complex(rho) for rho in IndPoly(den).roots())


@functools.lru_cache(maxsize=64)
def _power_table(spec, lam, rows, cols):
    """The read-only float64 array T with T[j, k] = [z^k] (lam * map(z))^j
    for j < rows and k < cols, one per (spec, lam, shape) shared by every
    query.  It is keyed on lam, not on the map alone, so each entry has the
    magnitude of the Horner product it replaces; powers of the bare map,
    rescaled by lam^j afterwards, would underflow at narrow rungs and large
    j."""
    b = lam * spec.coeffs(cols - 1)
    T = np.zeros((rows, cols))
    T[0, 0] = 1.0
    for j in range(1, rows):
        T[j] = np.convolve(T[j - 1], b)[:cols]
    T.flags.writeable = False
    return T


def _composed(spec, lam, n, *polys):
    """Coefficients 0..n-1 of p(lam * map(z)) for each polynomial p
    (coefficients constant first), which read only p's coefficients 0..n-1:
    one vector-matrix product each with a shared power table.  The table's
    columns are rounded up to a power of two >= max(n, 64) and its rows to
    one >= the longest cut polynomial, so a deep query of low degree builds
    few rows and queries of nearby depth and degree share a table.  For
    polynomials with nonnegative coefficients every term is nonnegative:
    nothing cancels."""
    polys = [np.array(p[:n], dtype=float) for p in polys]
    cols = max(64, _pow2_ceil(n))
    T = _power_table(spec, lam, min(_pow2_ceil(max(map(len, polys))), cols), cols)
    return [p @ T[: len(p), :n] for p in polys]


def _check_target(eps_target, max_depth):
    """Raise ValueError unless the error target is positive and finite and
    the depth cap an int (not a bool) of at least 1."""
    if not 0 < eps_target < math.inf:
        raise ValueError(f"error target must be positive and finite, got {eps_target}")
    _check_count("max_depth", max_depth)


def _depth_for(M, r, eps_target):
    if M <= 0:
        return 1
    n = math.log(M / ((r - 1.0) * eps_target)) / math.log(r)
    n = max(1, math.ceil(n))
    while tail_bound(M, r, n) > eps_target:
        n += 1
    return n


# the strip widths of the default ladder, widest (fastest rate) first
EPS_LADDER = (2.5, 2.0, 1.6, 1.25, 1.0, 0.8, 0.6, 0.45, 0.35, 0.25, 0.18, 0.12, 0.08, 0.05)
_LADDER = tuple(StripSpec(eps) for eps in EPS_LADDER)
# the ladder's disks must clear every zero by this fraction of r
LADDER_MARGIN = 0.05


def _rung_and_M(num, den, lam, eps_target, max_depth, rungs, margin):
    """The first map spec of rungs whose disk, widened by margin, holds no
    preimage of a zero of den scaled by 1 / lam and whose certified depth
    fits under max_depth, with its sampled bound M on num / den and that
    depth."""
    roots = _den_roots(den)
    rows = max(len(num), len(den))
    best_required = None
    nearest = None
    for spec in rungs:
        r = spec.r * (1.0 + margin)
        hit = next(
            (rho for rho in roots if any(abs(z) <= r for z in spec.preimages(rho / lam))), None
        )
        if hit is not None:
            nearest = hit
            continue
        if rows <= _CACHED_ROWS:
            powers = _circle_powers(spec, lam, _pow2_ceil(rows))
        else:
            powers = _powers(lam * _circle_image(spec), rows)
        try:
            M = _sampled_M(num, den, powers)
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
            f"no candidate disk reaches the target within depth {max_depth}",
            required=best_required,
            cap=max_depth,
        )
    raise ZeroRegionViolationError(
        "every candidate disk contains a partition-function zero",
        point=nearest,
    )


def approx_cond_prob(g, v, sigma, lam, eps_target, spec=None, max_depth=DEFAULT_MAX_DEPTH):
    """Conditional occupation probability with a certified error bound.

    Reduces by the boundary and cuts to v's component, then walks a ladder
    of map specs and takes the first rung whose scaled image is zero-free
    (exactly, by pulling the zeros of that component's Z back through the
    map) and whose depth fits under max_depth: it bounds P(lam * map(z)) on
    |z| = r by sampling, takes the smallest depth n whose tail bound meets
    eps_target, composes the component's numerator and denominator, cut at
    n coefficients, with lam * map, long-divides them and returns the
    partial sum at z = 1 with that bound.  Each composition is one product
    with a cached table of the powers of lam * map for the rung and lam,
    and the division runs in float64; every input is real and every term of
    the compositions nonnegative.  Without a spec the ladder is the strip
    widths EPS_LADDER, whose disks must clear each zero by LADDER_MARGIN; a
    given StripSpec or SectorSpec is the one-rung ladder (spec,) with no
    margin.

    The graph enters only through the component's pair (x I(H - N[v]),
    I(H)), so everything after the cut to v's component is memoized on
    (num, den, lam, eps_target, max_depth, spec), spec None meaning the
    ladder; the key is taken after the query checks, and a query that
    raises is not stored.  Queries behind pinned spheres often land on the
    same small component, and a repeat returns the first result.  A target
    below 4 * 2**-52 * |value|, which rounding alone breaks, raises
    ValueError.
    """
    keep = _free_component(g, v, _hardcore_query(g, v, sigma, lam))
    _check_target(eps_target, max_depth)
    if spec is not None and not isinstance(spec, (StripSpec, SectorSpec)):
        raise TypeError(f"spec must be a StripSpec or a SectorSpec, got {spec!r}")
    if keep is None:
        # v is adjacent to an occupied boundary vertex: exactly zero
        r = spec.r if spec is not None else 2.0
        return ApproxResult(0.0, 0.0, 0, 0.0, r)
    return _certified(*_ratio_polys(g, v, keep), lam, eps_target, max_depth, spec)


@functools.lru_cache(maxsize=1024)
def _certified(num, den, lam, eps_target, max_depth, spec):
    """The certified value of num / den at lam for checked arguments: the
    rung of the ladder (spec None) or spec itself, its sampled M and depth,
    the compositions and the division.  It reads nothing but its arguments,
    so queries whose components share the pair (num, den) share one entry."""
    rungs, margin = (_LADDER, LADDER_MARGIN) if spec is None else ((spec,), 0.0)
    spec, M, n = _rung_and_M(num, den, lam, eps_target, max_depth, rungs, margin)
    top, bottom = _composed(spec, lam, n, num, den)
    value = float(_long_division(top, bottom, n - 1).sum())
    floor = 4 * 2.0**-52 * abs(value)  # rounding alone moves value this far
    if eps_target < floor:
        raise ValueError(f"error target {eps_target:.3g} is below the float64 floor {floor:.3g}")
    return ApproxResult(value, tail_bound(M, spec.r, n), n, M, spec.r)
