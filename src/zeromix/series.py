"""Truncated power series with complex coefficients.

A PowerSeries of order K stores coefficients 0..K and all arithmetic
truncates back to order K.  Composition requires the inner series to have
zero constant term, so that every retained coefficient of the composite is
a finite exact combination of the inputs.
"""

from dataclasses import dataclass

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
        cs = [0j] * (order + 1)
        if order >= 1:
            cs[1] = 1.0 + 0j
        return cls(tuple(cs))

    def truncate(self, order):
        return PowerSeries.from_coeffs(self.coeffs, order)

    def _matched(self, other):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return other

    def add(self, other):
        other = self._matched(other)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def sub(self, other):
        other = self._matched(other)
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c):
        c = complex(c)
        return PowerSeries(tuple(c * a for a in self.coeffs))

    def mul(self, other):
        other = self._matched(other)
        K = self.order
        out = [0j] * (K + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(K + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(tuple(out))

    def compose(self, inner):
        """self(inner(x)), truncated; inner must have zero constant term."""
        inner = self._matched(inner)
        if inner.coeffs[0] != 0:
            raise ValueError(
                f"composition needs inner constant term 0, got {inner.coeffs[0]}"
            )
        K = self.order
        acc = PowerSeries.zero(K)
        for c in reversed(self.coeffs):
            acc = acc.mul(inner)
            acc = PowerSeries(tuple(a + (c if i == 0 else 0) for i, a in enumerate(acc.coeffs)))
        return acc

    def reciprocal(self):
        """1/self, truncated; needs a nonzero constant term."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        K = self.order
        out = [0j] * (K + 1)
        out[0] = 1 / a0
        for n in range(1, K + 1):
            s = 0j
            for k in range(1, n + 1):
                s += self.coeffs[k] * out[n - k]
            out[n] = -s / a0
        return PowerSeries(tuple(out))

    def exp(self):
        """exp of self; requires zero constant term so coefficients stay
        polynomial in the inputs."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        K = self.order
        out = [0j] * (K + 1)
        out[0] = 1.0 + 0j
        for n in range(1, K + 1):
            s = 0j
            for k in range(1, n + 1):
                s += k * self.coeffs[k] * out[n - k]
            out[n] = s / n
        return PowerSeries(tuple(out))

    def partial_sum(self, n_terms=None):
        """Sum of the first n_terms coefficients (all of them by default);
        equals the value of the truncated series at 1."""
        cs = self.coeffs if n_terms is None else self.coeffs[:n_terms]
        return sum(cs, start=0j)

    def __call__(self, z):
        return eval_poly(self.coeffs, z)
