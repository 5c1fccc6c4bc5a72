"""The PowerSeries container, _long_division and _padded, and the float
exp and Horner composition oracles in helpers.py that other tests read."""

import math

import numpy as np
import pytest

from zeromix import PowerSeries, eval_poly
from zeromix.series import _long_division, _padded
from helpers import horner_compose, series_exp


def random_series(rng, order, zero_constant=False):
    re = rng.standard_normal(order + 1)
    im = rng.standard_normal(order + 1)
    coeffs = np.array([complex(a, b) for a, b in zip(re, im)])
    if zero_constant:
        coeffs[0] = 0.0
    return coeffs


def close(a, b, tol=1e-10):
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def mul(a, b):
    """a * b cut to len(a) coefficients."""
    return np.convolve(a, b)[: len(a)]


def test_power_series_keeps_complex_coefficients():
    s = PowerSeries((1, 2.5, 3j))
    assert s.coeffs == (1 + 0j, 2.5 + 0j, 3j) and all(type(c) is complex for c in s.coeffs)
    assert s.order == 2
    with pytest.raises(ValueError, match="^a series needs at least the constant coefficient$"):
        PowerSeries(())


def test_padded_pads_and_truncates():
    s = _padded([1, 2], 4, float)
    assert s.dtype == np.float64 and list(s) == [1, 2, 0, 0, 0]
    t = _padded((1, 2, 3, 4), 1, complex)
    assert t.dtype == np.complex128 and list(t) == [1, 2]


def test_reciprocal_inverts():
    rng = np.random.default_rng(2)
    one = np.eye(1, 7)[0]
    for _ in range(20):
        a = random_series(rng, 6)
        # keep the constant term well away from 0
        a[0] = 1.0
        assert close(mul(a, _long_division((1,), a, 6)), one, tol=1e-9)


def test_geometric_series_reciprocal():
    # 1/(1 - z) = 1 + z + z^2 + ...
    s = _long_division((1,), (1, -1), 4)
    assert s.dtype == np.float64 and list(s) == [1, 1, 1, 1, 1]


def test_exp_of_linear_term():
    s = series_exp([0, 1, 0, 0, 0, 0])
    want = [1 / math.factorial(k) for k in range(6)]
    assert all(abs(c - w) <= 1e-12 for c, w in zip(s, want))


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        series_exp([1, 1])


def test_exp_adds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_series(rng, 6, zero_constant=True)
        b = random_series(rng, 6, zero_constant=True)
        assert close(mul(series_exp(a), series_exp(b)), series_exp(a + b), tol=1e-8)


def test_compose_with_identity():
    rng = np.random.default_rng(4)
    z = np.eye(1, 6, 1)[0]  # the series x
    for _ in range(10):
        a = random_series(rng, 5)
        assert close(horner_compose(a, z), a, tol=1e-12)
        b = random_series(rng, 5, zero_constant=True)
        assert close(horner_compose(z, b), b, tol=1e-12)


def test_compose_requires_zero_inner_constant():
    with pytest.raises(ValueError):
        horner_compose([1, 1], [1, 1])


def test_compose_matches_numeric_evaluation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        outer = random_series(rng, 12)
        inner = 0.1 * random_series(rng, 12, zero_constant=True)
        comp = horner_compose(outer, inner)
        # at x=0.1 the dropped cross terms (x-degree > 12) are ~1e-13
        x = 0.1
        assert abs(eval_poly(comp, x) - eval_poly(outer, eval_poly(inner, x))) <= 1e-9


def test_compose_coefficients_are_triangular():
    # if two outer series agree through z^N, so do the compositions
    rng = np.random.default_rng(6)
    inner = random_series(rng, 8, zero_constant=True)
    a = random_series(rng, 8)
    b = a + np.array((0,) * 5 + (1.0, 0.5, 0.25, 0.125))
    ca = horner_compose(a, inner)
    cb = horner_compose(b, inner)
    for k in range(5):
        assert abs(ca[k] - cb[k]) <= 1e-12


def test_compose_of_a_zero_padded_polynomial_equals_the_unpadded_one():
    # the oracle starts Horner at the last nonzero coefficient; the zeros
    # above it would only have added exact zeros
    rng = np.random.default_rng(7)
    for degree in range(4):
        cs = list(random_series(rng, degree))
        inner = random_series(rng, 12, zero_constant=True)
        acc = np.zeros(13, dtype=complex)
        for c in reversed(cs):
            acc = np.convolve(acc, inner)[:13]
            acc[0] += c
        assert np.array_equal(horner_compose(cs + [0] * (13 - len(cs)), inner), acc)
