"""Truncated power series and their long division.

A PowerSeries of order K is a container for the coefficients 0..K, kept as
a tuple of Python complex numbers; the ratio series of the hard-core and
homomorphism chains are returned in it.  _long_division divides one
coefficient array by another in float64 or complex arithmetic.
"""

from dataclasses import dataclass

import numpy as np


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
