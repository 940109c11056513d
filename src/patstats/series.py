"""Read-only truncated power series with exact integer coefficients.

The series builders in genfunc fill these containers; nothing here computes.
A Series holds [z^n] for n = 0..order.  A BivariateSeries holds, for each n,
the row of hole coefficients [z^n u^h] for h = 0..n.
"""

from __future__ import annotations


class Series:
    """Coefficients [z^0], ..., [z^order] of a power series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"{type(self).__name__}([{head}{tail}], order={self.order})"


class BivariateSeries(Series):
    """Series in z whose n-th coefficient is the tuple of [z^n u^h] for h = 0..n."""

    def coeff_hole(self, n: int, h: int) -> int:
        """The coefficient of z^n u^h."""
        if h < 0 or h > n:
            raise ValueError("hole power must lie in [0, n]")
        return self.coeff(n)[h]
