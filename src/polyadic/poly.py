"""Generating polynomials and exact tables of generalized binomial coefficients.

The coefficient table holds ``C(n, k)``, the coefficient of ``x^k`` in
``p(x)^n``, for a polynomial ``p`` with positive integer coefficients.  Entry
``(n, k)`` counts the paths from the root to vertex ``(n, k)`` of the graded
graph generated by ``p``, so everything downstream (ranking, measures, curve
extraction) leans on these integers being exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError

DEFAULT_ENTRY_BUDGET = 4_000_000


@dataclass(frozen=True)
class GenPolynomial:
    """Polynomial a_0 + a_1 x + ... + a_d x^d with positive integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if any(isinstance(a, bool) or not isinstance(a, int) for a in coeffs):
            raise ValueError(f"coefficients must be integers, got {coeffs!r}")
        if not coeffs:
            raise ValueError("at least one coefficient is required")
        if any(a < 1 for a in coeffs):
            raise ValueError("all coefficients must be positive integers")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def alphabet_size(self) -> int:
        """Number of edges into any vertex: p(1)."""
        return sum(self.coeffs)

    @classmethod
    def parse(cls, text: str) -> "GenPolynomial":
        """Build from a comma-separated coefficient list such as ``"1,1,3"``."""
        parts = [p for p in text.replace(" ", "").split(",") if p]
        try:
            return cls(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ValueError(f"bad coefficient list {text!r}") from exc

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.coeffs)


class DimTable:
    """Dense per-level rows of exact vertex dimensions C(n, k).

    The table grows on demand: asking :meth:`row` or :meth:`dim` for a level
    above ``n_max`` first builds the missing levels, within ``entry_budget``.
    Rows are append-only tuples: existing entries never change, so concurrent
    readers are safe once a level is built.
    """

    def __init__(self, poly: GenPolynomial, n_max: int = 0,
                 entry_budget: int = DEFAULT_ENTRY_BUDGET):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.poly = poly
        self.entry_budget = entry_budget
        self._rows: list[tuple[int, ...]] = [(1,)]
        self.extend(n_max)

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def extend(self, n_max: int) -> None:
        """Grow the table so that all levels up to ``n_max`` are present."""
        d = self.poly.degree
        coeffs = self.poly.coeffs
        entries = (n_max + 1) + d * n_max * (n_max + 1) // 2
        if entries > self.entry_budget:
            raise CapacityError(
                f"table with n_max={n_max}, degree={d} needs {entries} entries, "
                f"budget is {self.entry_budget}")
        while len(self._rows) <= n_max:
            prev = self._rows[-1]
            n = len(self._rows)
            row = [0] * (n * d + 1)
            for k, value in enumerate(prev):
                for j, a in enumerate(coeffs):
                    row[k + j] += a * value
            self._rows.append(tuple(row))

    def row(self, n: int) -> tuple[int, ...]:
        """Level n's entries C(n, 0..n*d), building the table up to n first."""
        if n >= len(self._rows):
            self.extend(n)
        elif n < 0:
            raise ValueError(f"level {n} is negative")
        return self._rows[n]

    def dim(self, n: int, k: int) -> int:
        """C(n, k); zero for k outside [0, n*d]."""
        row = self.row(n)
        return row[k] if 0 <= k < len(row) else 0

    def reflected_dim(self, n: int, k1: int) -> int:
        """Dimension indexed from the other end: C(n, n*d - k1)."""
        return self.dim(n, n * self.poly.degree - k1)


def is_unimodal(row) -> bool:
    """True if the sequence rises (weakly) to a peak and then falls (weakly)."""
    i = 0
    while i + 1 < len(row) and row[i] <= row[i + 1]:
        i += 1
    while i + 1 < len(row) and row[i] >= row[i + 1]:
        i += 1
    return i == len(row) - 1


def unimodal_start(table: DimTable, limit: int = 64):
    """Smallest n1 <= limit with rows n1..n_max all unimodal, or None."""
    last_bad = -1
    for n in range(min(limit, table.n_max) + 1):
        if not is_unimodal(table.row(n)):
            last_bad = n
    for n in range(limit + 1, table.n_max + 1):
        if not is_unimodal(table.row(n)):
            return None
    return last_bad + 1 if last_bad + 1 <= limit else None


def max_adjacent_ratio(row) -> Fraction:
    """Largest ratio between neighbouring entries of a positive row, both ways."""
    best = Fraction(0)
    for a, b in zip(row, row[1:]):
        if a == 0 or b == 0:
            raise ValueError("row has zero entries")
        best = max(best, Fraction(b, a), Fraction(a, b))
    return best


def ratio_constant(table: DimTable, n1: int, fit_up_to: int) -> Fraction:
    """Fit C1 with max_adjacent_ratio(row n) <= C1*n on levels n1..fit_up_to.

    The constant is meant to be fitted once on a low window and then asserted
    on every higher level of the table.
    """
    if not 1 <= n1 <= fit_up_to <= table.n_max:
        raise ValueError("need 1 <= n1 <= fit_up_to <= n_max")
    best = Fraction(0)
    for n in range(n1, fit_up_to + 1):
        best = max(best, max_adjacent_ratio(table.row(n)) / n)
    return best
