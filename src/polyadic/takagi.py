"""Jets, the coding reparametrization map, and generalized Takagi curves.

``coding_map`` re-reads the digits of a point under one parameter as a point
under another; differentiating it in the second parameter at the diagonal
produces a family of continuous, typically nowhere-smooth curves whose first
member (for the two-letter system at q = 1/2) is the classical Takagi curve
up to normalization.  Derivatives are taken by re-encoding the digits in
truncated Taylor arithmetic (forward mode; Griewank and Walther, *Evaluating
Derivatives*, 2008) through the implicitly defined root t(q): the letter
weights are jets once per (system, q, order), and ``measure.encode``, the
package's one digit coder, takes their Taylor columns and runs one float pass
per coefficient.  One evaluator, ``_takagi_rows``, reads those columns, the digit
horizon and the decoder's tables once per grid; a single point is a grid of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapacityError, DivisionByZeroJet, NoRoot
from .measure import (_decoder, _weights, _check_coder_budget, _check_unit,
                      cylinder, cylinder_measure, decode, digit_horizon, encode,
                      low_sums, measure_params, solve_t)
from .paths import letter_table
from .poly import GenPolynomial, _admit, _count

# The coding subdivides intervals in letter-label order, which runs through
# [0, 1] opposite to the step-ordered subdivision that the classical
# references (Takagi's curve, the large-degree parabola values) are stated
# in.  First-derivative values match those references after one global sign.
MIRROR_SIGN = -1.0


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor coefficients (c_0, ..., c_K) in one perturbation."""

    coeffs: tuple[float, ...]

    def _check(self, other: "Jet") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("jet orders differ")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        out = list(self.coeffs)
        out[0] += other
        return Jet(tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(tuple(a * other for a in self.coeffs))
        self._check(other)
        k = len(self.coeffs)
        out = [0.0] * k
        for i, a in enumerate(self.coeffs):
            if a == 0.0:
                continue
            for j in range(k - i):
                out[i + j] += a * other.coeffs[j]
        return Jet(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # long division: a quotient in float range needs no 1/other in range
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        self._check(other)
        b = other.coeffs
        if b[0] == 0.0:
            raise DivisionByZeroJet("constant term is zero")
        out = []
        for i, a in enumerate(self.coeffs):
            out.append((a - sum(b[j] * out[i - j] for j in range(1, i + 1))) / b[0])
        return Jet(tuple(out))


def jet_const(value: float, order: int) -> Jet:
    _admit("jet", _count(order, "order") + 1, "coefficients")
    return Jet((float(value),) + (0.0,) * order)


def jet_var(value: float, order: int) -> Jet:
    """The perturbation variable itself: value + epsilon."""
    _admit("jet", _count(order, "order") + 1, "coefficients")
    return Jet(((float(value), 1.0) + (0.0,) * order)[:order + 1])


def t_jet(poly: GenPolynomial, q: float, order: int) -> Jet:
    """Taylor expansion of q2 -> t(q2) at q2 = q, by Newton in jet arithmetic."""
    if poly.degree == 0:
        raise NoRoot("degree-0 system has no free parameter to expand in")
    t0 = solve_t(poly, q)
    if _count(order, "order") == 0:
        return Jet((t0,))
    q2 = jet_var(q, order)
    rest = 1.0 - poly.coeffs[0] * q2
    t = jet_const(t0, order)
    # Each Newton step doubles the number of correct coefficients.
    for _ in range(order.bit_length() + 2):
        total, slope, _ = _weights(poly, q2, t)
        step = (total - rest) / slope
        t = t - step
        if max(abs(c) for c in step.coeffs) <= 1e-15 * max(
                1.0, max(abs(c) for c in t.coeffs)):
            break
    return t


@lru_cache(maxsize=128, typed=True)
def _letter_jets(poly: GenPolynomial, q: float, order: int):
    """Taylor columns of the letter weights and low sums at q2 = q.

    Column i holds the i-th coefficient of every letter's weight (resp. low
    sum), formed as ``measure._weights`` forms it: when t is a polynomial in
    q2, as for (1, 1), so is every weight, and the derivatives past the
    degree of the re-encoding come out exactly zero.
    """
    ks = letter_table(poly).kstep
    by_step = _weights(poly, jet_var(q, order), t_jet(poly, q, order), set(ks))[2]
    wcols = tuple(zip(*(by_step[s].coeffs for s in ks)))
    # The weights sum to 1 at every q2, so each higher column sums to 0; at
    # small q their coefficients are differences of terms ~1/q apart.
    for i, col in enumerate(wcols[1:], 1):
        if not abs(math.fsum(col)) <= 1e-9 * math.fsum(map(abs, col)):
            raise CapacityError(f"Taylor coefficient {i} of the letter weights lost "
                                f"its precision at q={q}: they do not sum to 1")
    return wcols, tuple(low_sums(col, 0.0) for col in wcols)


def coding_map(poly: GenPolynomial, q1: float, q2: float, x: float,
               depth: int = 60) -> float:
    """Decode x in [0, 1] to exactly `depth` digits under q1, and re-encode them under q2.

    Monotone non-decreasing in x; the identity at q1 = q2 up to the
    truncation tail.  Digits are extracted in fixed point so they stay
    correct to the full depth; no horizon cuts them, so finite differences
    in q2 check ``takagi_function`` independently.
    """
    _check_unit(x)
    _admit("word", _count(depth, "depth", 1), "letters")
    mp2 = measure_params(poly, q2)
    return encode((mp2.weights,), (mp2.lows,), decode(poly, q1, x, depth))


def _takagi_rows(poly: GenPolynomial, q: float, k: int, xs, depth: int) -> list:
    """The one Takagi evaluator: rows (x, k! c_k) for each x of xs, checked as one x is
    (k, x, depth), with the floors, decoder tables, Taylor columns and k! read once."""
    _admit("jet", _count(k, "k") + 1, "coefficients")
    for x in xs:
        _check_unit(x)
    _count(depth, "depth", 1)
    if k == 0:
        return [(x, float(x)) for x in xs]
    floors, read = digit_horizon(poly, q, k, depth), _decoder(poly, q)
    cols, fact, rows = _letter_jets(poly, q, k), math.factorial(k), []
    for x in xs:
        c_k = encode(*cols, read(x, depth, floors))
        try:    # k! c_k formed exactly and rounded once: k! leaves float range at 171
            num, den = c_k.as_integer_ratio()
            rows.append((x, fact * num / den))
        except (OverflowError, ValueError):
            raise CapacityError(f"derivative of order {k} at x={x} is not a finite "
                                f"float: {k}! * {c_k!r}") from None
    return rows


def takagi_function(poly: GenPolynomial, q: float, k: int, x: float,
                    depth: int = 60) -> float:
    """k-th derivative of q2 -> coding_map(q1=q, q2, x) at the diagonal; k = 0 is the
    identity on [0, 1] by convention.  `depth` caps the digits: each point stops at its
    proven horizon (``measure.decode``).  This is ``takagi_grid``'s evaluator at one x."""
    return _takagi_rows(poly, q, k, (x,), depth)[0][1]


def takagi_grid(poly: GenPolynomial, q: float, k: int, grid: int, depth: int = 60):
    """Rows (x, takagi_function(poly, q, k, x, depth)) at x = i/grid, i = 0..grid,
    from one evaluator: the floors and tables are read once per grid, not per point."""
    _admit("grid", _count(grid, "grid", 1) + 1, "points")
    return _takagi_rows(poly, q, k, [i / grid for i in range(grid + 1)], depth)


def self_affinity_residual(poly: GenPolynomial, q1: float, q2: float, w0,
                           x: float, depth: int = 60) -> float:
    """Defect of S(x0 + r1 x) = S(x0) + r2 S(x) at the cylinder of w0.

    x0 is the coding of w0 under q1, r1 and r2 its cylinder widths under the
    two parameters.  The anchor point is formed exactly so the shifted
    argument decodes to w0 followed by the digits of x.
    """
    w0 = tuple(w0)
    mp2 = measure_params(poly, q2)
    x0, r1 = cylinder(poly, q1, w0)

    def recode(y) -> float:
        return coding_map(poly, q1, q2, y, depth)

    return abs(recode(x0 + r1 * Fraction(x)) - recode(x0)
               - cylinder_measure(mp2, w0) * recode(x))


def parabola_profile(d: int, grid: int, depth: int = 60):
    """First-derivative curve of the all-ones degree-d system at q = 1/(d+1).

    Rows (x, value, x(1-x), value - x(1-x)) at x = i/grid.  The value is
    scaled by 1/(d+1) and oriented by MIRROR_SIGN, so at the subdivision
    points i/(d+1) it equals a(1-a)(d+1)/d exactly, and as d grows the
    whole profile approaches the parabola x(1-x).
    """
    _count(d, "d", 1), _count(grid, "grid", 1)
    _check_coder_budget(d)
    poly, q = GenPolynomial((1,) * (d + 1)), 1.0 / (d + 1)
    return [(x, v, x * (1.0 - x), v - x * (1.0 - x))
            for x, value in takagi_grid(poly, q, 1, grid, depth)
            for v in [MIRROR_SIGN * value / (d + 1)]]
