"""Truncated power series and their long division.

A PowerSeries of order K is a container for the coefficients 0..K, kept as
a tuple of Python complex numbers; the ratio series of the hard-core and
homomorphism chains are returned in it.  _long_division divides one
coefficient array by another in float64 or complex arithmetic, in blocks of
_BLOCK coefficients: one convolution per block and one C-level sum per
coefficient, not one numpy call per coefficient.
"""

import operator
from dataclasses import dataclass

import numpy as np

# coefficients per block of _long_division
_BLOCK = 32


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
    complex when either input is complex and float64 otherwise.

    The recurrence runs on Python floats or complexes in blocks of _BLOCK
    coefficients.  Each block first subtracts the terms of every earlier
    block with one 'valid' convolution, O(block * done) work, and then each
    of its coefficients takes one C-level sum over the block's earlier ones.
    One np.dot per coefficient costs more in call overhead than in
    arithmetic at the depths certify uses (20-64).  Without blocks, a C-level
    sum over all earlier coefficients is slower than np.dot past depth ~150;
    a full-length convolution per block, O(n^3 / block) work, is slower
    past ~1 000."""
    kind = complex if np.iscomplexobj(num) or np.iscomplexobj(den) else float
    num, den = (_padded(c, order, kind) for c in (num, den))
    d0, *d = den.tolist()
    out = np.empty(order + 1, kind)
    for lo in range(0, order + 1, _BLOCK):
        hi = min(lo + _BLOCK, order + 1)
        block = num[lo:hi] - np.convolve(den[1:hi], out[:lo], "valid") if lo else num[:hi]
        rev = []  # this block's quotient so far, latest first
        for t in block.tolist():
            rev.insert(0, (t - sum(map(operator.mul, rev, d))) / d0)
        out[lo:hi] = rev[::-1]
    return out


def _padded(coeffs, order, dtype):
    """coeffs cut or zero-padded to order + 1 entries of the given dtype."""
    out = np.zeros(order + 1, dtype)
    coeffs = coeffs[: order + 1]
    out[: len(coeffs)] = coeffs
    return out
