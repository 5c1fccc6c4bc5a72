import math

import numpy as np
import pytest

from zeromix import PowerSeries


def random_series(rng, order, zero_constant=False):
    re = rng.standard_normal(order + 1)
    im = rng.standard_normal(order + 1)
    coeffs = [complex(a, b) for a, b in zip(re, im)]
    if zero_constant:
        coeffs[0] = 0.0
    return PowerSeries(tuple(coeffs))


def close(a, b, tol=1e-10):
    return all(abs(x - y) <= tol for x, y in zip(a.coeffs, b.coeffs))


def test_from_coeffs_pads_and_truncates():
    s = PowerSeries.from_coeffs([1, 2], order=4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    t = PowerSeries.from_coeffs([1, 2, 3, 4], order=1)
    assert t.coeffs == (1, 2)


def test_add_sub_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_series(rng, 6)
        b = random_series(rng, 6)
        assert close(a.add(b).sub(b), a, tol=1e-12)


def test_mul_matches_polynomial_product():
    a = PowerSeries((1, 1, 0, 0))  # 1 + z
    b = PowerSeries((1, -1, 0, 0))  # 1 - z
    assert a.mul(b).coeffs == (1, 0, -1, 0)


def test_mul_truncates_at_order():
    a = PowerSeries((0, 1, 1))
    assert a.mul(a).coeffs == (0, 0, 1)


def test_mul_commutes_and_associates():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, c = (random_series(rng, 5) for _ in range(3))
        assert close(a.mul(b), b.mul(a), tol=1e-12)
        assert close(a.mul(b).mul(c), a.mul(b.mul(c)), tol=1e-10)


def test_reciprocal_inverts():
    rng = np.random.default_rng(2)
    one = PowerSeries.from_coeffs([1], order=6)
    for _ in range(20):
        a = random_series(rng, 6)
        # keep the constant term well away from 0
        a = PowerSeries((1.0,) + a.coeffs[1:])
        assert close(a.mul(a.reciprocal()), one, tol=1e-9)


def test_reciprocal_requires_unit_constant():
    with pytest.raises(ValueError):
        PowerSeries((0, 1, 2)).reciprocal()


def test_geometric_series_reciprocal():
    # 1/(1 - z) = 1 + z + z^2 + ...
    s = PowerSeries((1, -1, 0, 0, 0)).reciprocal()
    assert s.coeffs == (1, 1, 1, 1, 1)


def test_exp_of_linear_term():
    s = PowerSeries((0, 1, 0, 0, 0, 0)).exp()
    want = [1 / math.factorial(k) for k in range(6)]
    assert all(abs(c - w) <= 1e-12 for c, w in zip(s.coeffs, want))


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        PowerSeries((1, 1)).exp()


def test_exp_adds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_series(rng, 6, zero_constant=True)
        b = random_series(rng, 6, zero_constant=True)
        assert close(a.exp().mul(b.exp()), a.add(b).exp(), tol=1e-8)


def test_compose_with_identity():
    rng = np.random.default_rng(4)
    z = PowerSeries.identity(5)  # the series x
    for _ in range(10):
        a = random_series(rng, 5)
        assert close(a.compose(z), a, tol=1e-12)
        b = random_series(rng, 5, zero_constant=True)
        assert close(z.compose(b), b, tol=1e-12)


def test_compose_requires_zero_inner_constant():
    with pytest.raises(ValueError):
        PowerSeries((1, 1)).compose(PowerSeries((1, 1)))


def test_compose_matches_numeric_evaluation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        outer = random_series(rng, 12)
        inner = random_series(rng, 12, zero_constant=True)
        inner = inner.scale(0.1)
        comp = outer.compose(inner)
        # at x=0.1 the dropped cross terms (x-degree > 12) are ~1e-13
        x = 0.1
        assert abs(comp(x) - outer(inner(x))) <= 1e-9


def test_compose_coefficients_are_triangular():
    # if two outer series agree through z^N, so do the compositions
    rng = np.random.default_rng(6)
    inner = random_series(rng, 8, zero_constant=True)
    a = random_series(rng, 8)
    tail = PowerSeries((0,) * 5 + (1.0, 0.5, 0.25, 0.125))
    b = a.add(tail)
    ca = a.compose(inner)
    cb = b.compose(inner)
    for k in range(5):
        assert abs(ca.coeffs[k] - cb.coeffs[k]) <= 1e-12


def test_compose_of_a_zero_padded_polynomial_equals_the_unpadded_one():
    # compose starts Horner at the last nonzero coefficient; the zeros above
    # it would only have added exact zeros
    rng = np.random.default_rng(7)
    for degree in range(4):
        cs = list(random_series(rng, degree).coeffs)
        inner = random_series(rng, 12, zero_constant=True)
        padded = PowerSeries.from_coeffs(cs, 12)
        acc = np.zeros(13, dtype=complex)
        for c in reversed(cs):
            acc = np.convolve(acc, inner.coeffs)[:13]
            acc[0] += c
        assert padded.compose(inner) == PowerSeries(acc)


def test_partial_sum_and_call():
    s = PowerSeries((1, 2, 3))
    assert s(2) == 1 + 4 + 12
    assert s.partial_sum() == 6


def test_truncate_and_identity():
    s = PowerSeries((1, 2, 3, 4))
    assert s.truncate(1).coeffs == (1, 2)
    assert PowerSeries.identity(3).coeffs == (0, 1, 0, 0)
    assert PowerSeries.zero(2).coeffs == (0, 0, 0)
