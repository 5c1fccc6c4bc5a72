"""Truncated power series with complex coefficients.

A PowerSeries of order K stores coefficients 0..K and all arithmetic
truncates back to order K.  Composition requires the inner series to have
zero constant term, so that every retained coefficient of the composite is
a finite exact combination of the inputs.  Products are numpy convolutions;
coeffs stays a tuple of Python complex numbers.
"""

from dataclasses import dataclass

import numpy as np

from .exact import eval_poly


@dataclass(frozen=True)
class PowerSeries:
    coeffs: tuple  # complex, length order + 1

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def from_coeffs(cls, coeffs, order=None):
        cs = [complex(c) for c in coeffs]
        if order is not None:
            cs = (cs + [0j] * (order + 1))[: order + 1]
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order):
        return cls((0j,) * (order + 1))

    @classmethod
    def identity(cls, order):
        """The series x, truncated at `order`."""
        return cls.from_coeffs([0, 1], order)

    def truncate(self, order):
        return PowerSeries.from_coeffs(self.coeffs, order)

    def _matched(self, other):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return other

    def add(self, other):
        return PowerSeries(np.add(self.coeffs, self._matched(other).coeffs))

    def sub(self, other):
        return PowerSeries(np.subtract(self.coeffs, self._matched(other).coeffs))

    def scale(self, c):
        c = complex(c)
        return PowerSeries(tuple(c * a for a in self.coeffs))

    def mul(self, other):
        other = self._matched(other)
        return PowerSeries(np.convolve(self.coeffs, other.coeffs)[: self.order + 1])

    def compose(self, inner):
        """self(inner(x)), truncated; inner must have zero constant term."""
        inner = self._matched(inner)
        if inner.coeffs[0] != 0:
            raise ValueError(
                f"composition needs inner constant term 0, got {inner.coeffs[0]}"
            )
        K = self.order
        b = np.array(inner.coeffs)
        acc = np.zeros(K + 1, dtype=complex)
        # Horner from the last nonzero coefficient: zeros only add exact zeros
        top = max((k for k, c in enumerate(self.coeffs) if c), default=0)
        for c in reversed(self.coeffs[: top + 1]):
            acc = np.convolve(acc, b)[: K + 1]
            acc[0] += c
        return PowerSeries(acc)

    def reciprocal(self):
        """1/self, truncated; needs a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        return PowerSeries(_long_division((1,), self.coeffs, self.order))

    def exp(self):
        """exp of self; requires zero constant term so coefficients stay
        polynomial in the inputs."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        ka = np.arange(self.order + 1) * np.array(self.coeffs)
        out = np.zeros(self.order + 1, dtype=complex)
        out[0] = 1.0
        for n in range(1, self.order + 1):
            out[n] = np.dot(ka[1 : n + 1], out[n - 1 :: -1]) / n
        return PowerSeries(out)

    def partial_sum(self):
        """Sum of the coefficients: the value of the truncated series at 1."""
        return sum(self.coeffs, start=0j)

    def __call__(self, z):
        return eval_poly(self.coeffs, z)


def _long_division(num, den, order):
    """Coefficients 0..order of num / den, den[0] != 0, by long division:
    q_k = (num_k - sum_{j=1..k} den_j q_{k-j}) / den_0.  The arithmetic is
    complex when either input is complex and float64 otherwise."""
    dtype = complex if np.iscomplexobj(num) or np.iscomplexobj(den) else float
    num, den = (_padded(c, order, dtype) for c in (num, den))
    out = np.zeros(order + 1, dtype)
    for k in range(order + 1):
        out[k] = (num[k] - np.dot(den[1 : k + 1], out[:k][::-1])) / den[0]
    return out


def _padded(coeffs, order, dtype):
    """coeffs cut or zero-padded to order + 1 entries of the given dtype."""
    out = np.zeros(order + 1, dtype)
    coeffs = coeffs[: order + 1]
    out[: len(coeffs)] = coeffs
    return out
