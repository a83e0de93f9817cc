"""Jets, the coding reparametrization map, and generalized Takagi curves.

``coding_map`` re-reads the digits of a point under one parameter as a point
under another; differentiating it in the second parameter at the diagonal
produces a family of continuous, typically nowhere-smooth curves whose first
member (for the two-letter system at q = 1/2) is the classical Takagi curve
up to normalization.  Derivatives are taken by running the digit re-encoding
in truncated Taylor arithmetic through the implicitly defined root t(q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZeroJet, NoRoot
from .measure import (cylinder, cylinder_measure, decode, encode, low_sums,
                      measure_params, solve_t)
from .paths import letter_table
from .poly import GenPolynomial

# The coding subdivides intervals in letter-label order, which runs through
# [0, 1] opposite to the step-ordered subdivision that the classical
# references (Takagi's curve, the large-degree parabola values) are stated
# in.  First-derivative values match those references after one global sign.
MIRROR_SIGN = -1.0


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor coefficients (c_0, ..., c_K) in one perturbation."""

    coeffs: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

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

    def reciprocal(self) -> "Jet":
        c0 = self.coeffs[0]
        if c0 == 0.0:
            raise DivisionByZeroJet("constant term is zero")
        k = len(self.coeffs)
        out = [0.0] * k
        out[0] = 1.0 / c0
        for i in range(1, k):
            out[i] = -sum(self.coeffs[j] * out[i - j] for j in range(1, i + 1)) / c0
        return Jet(tuple(out))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __pow__(self, exponent: int) -> "Jet":
        if exponent < 0:
            return (self ** (-exponent)).reciprocal()
        out = jet_const(1.0, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


def jet_const(value: float, order: int) -> Jet:
    return Jet((float(value),) + (0.0,) * order)


def jet_var(value: float, order: int) -> Jet:
    """The perturbation variable itself: value + epsilon."""
    if order == 0:
        return Jet((float(value),))
    return Jet((float(value), 1.0) + (0.0,) * (order - 1))


def _weight_equation(poly: GenPolynomial, q2: Jet, t: Jet):
    """Phi(q2, t) = sum_j a_j t^j q2^(d-j) - q2^(d-1) and d(Phi)/dt."""
    d = poly.degree
    qpow = [jet_const(1.0, q2.order)]
    for _ in range(d):
        qpow.append(qpow[-1] * q2)
    tpow = [jet_const(1.0, q2.order)]
    for _ in range(d):
        tpow.append(tpow[-1] * t)
    phi = -qpow[d - 1]
    dphi = jet_const(0.0, q2.order)
    for j, a in enumerate(poly.coeffs):
        phi = phi + (a * tpow[j]) * qpow[d - j]
        if j >= 1:
            dphi = dphi + (j * a * tpow[j - 1]) * qpow[d - j]
    return phi, dphi


def t_jet(poly: GenPolynomial, q: float, order: int) -> Jet:
    """Taylor expansion of q2 -> t(q2) at q2 = q, by Newton in jet arithmetic."""
    if poly.degree == 0:
        raise NoRoot("degree-0 system has no free parameter to expand in")
    t0 = solve_t(poly, q)
    if order == 0:
        return Jet((t0,))
    q2 = jet_var(q, order)
    t = jet_const(t0, order)
    for _ in range(2 * order + 4):
        phi, dphi = _weight_equation(poly, q2, t)
        step = phi * dphi.reciprocal()
        t = t - step
        if max(abs(c) for c in step.coeffs) <= 1e-15 * max(
                1.0, max(abs(c) for c in t.coeffs)):
            break
    return t


def t_prime_closed_form(poly: GenPolynomial, q: float) -> float:
    """First derivative of t(q) from the implicit function theorem."""
    d = poly.degree
    if d == 0:
        raise NoRoot("degree-0 system has no free parameter")
    t = solve_t(poly, q)
    num = sum(a * (d - j) * q ** (d - j - 1) * t ** j
              for j, a in enumerate(poly.coeffs) if j < d)
    num -= (d - 1) * q ** (d - 2) if d >= 2 else 0.0
    den = sum(a * j * q ** (d - j) * t ** (j - 1)
              for j, a in enumerate(poly.coeffs) if j >= 1)
    return -num / den


@lru_cache(maxsize=128)
def _letter_jets(poly: GenPolynomial, q: float, order: int):
    """Per-letter weight jets and their low cumulative sums at q2 = q."""
    q2 = jet_var(q, order)
    b2 = t_jet(poly, q, order) * q2.reciprocal()
    d = poly.degree
    bpow = [jet_const(1.0, order)]
    for _ in range(d):
        bpow.append(bpow[-1] * b2)
    weights = tuple(q2 * bpow[s] for s in letter_table(poly).kstep)
    return weights, low_sums(weights, jet_const(0.0, order))


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")


def coding_map(poly: GenPolynomial, q1: float, q2: float, x: float,
               depth: int = 60) -> float:
    """Decode x to `depth` digits under q1 and re-encode them under q2.

    Monotone non-decreasing in x; the identity at q1 = q2 up to the
    truncation tail.  Digits are extracted in fixed point so they stay
    correct to the full depth.
    """
    _check_depth(depth)
    mp2 = measure_params(poly, q2)
    return encode(mp2.weights, mp2.lows, decode(poly, q1, x, depth))


def takagi_function(poly: GenPolynomial, q: float, k: int, x: float,
                    depth: int = 60) -> float:
    """k-th derivative of q2 -> coding_map(q1=q, q2, x) at the diagonal.

    k = 0 is the identity on [0, 1] by convention.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    _check_depth(depth)
    if k == 0:
        return float(x)
    weights, lows = _letter_jets(poly, q, k)
    acc = encode(weights, lows, decode(poly, q, x, depth))
    return math.factorial(k) * acc.coeffs[k]


def depth_for(poly: GenPolynomial, q: float, tol: float) -> int:
    """Digit depth making the truncated tail smaller than tol."""
    p_max = max(measure_params(poly, q).weights)
    needed = math.ceil(math.log(tol) / (0.99 * math.log(p_max)))
    return max(needed, 1)


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
        return encode(mp2.weights, mp2.lows, decode(poly, q1, y, depth))

    return abs(recode(x0 + r1 * Fraction(x)) - recode(x0)
               - cylinder_measure(mp2, w0) * recode(x))


def parabola_profile(d: int, grid: int, depth: int = 60):
    """First-derivative curve of the all-ones degree-d system at q = 1/(d+1).

    Rows (x, value, x(1-x), value - x(1-x)) at x = i/grid.  The value is
    scaled by 1/(d+1) and oriented by MIRROR_SIGN, so at the subdivision
    points i/(d+1) it equals a(1-a)(d+1)/d exactly, and as d grows the
    whole profile approaches the parabola x(1-x).
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    poly = GenPolynomial((1,) * (d + 1))
    q = 1.0 / (d + 1)
    rows = []
    for i in range(grid + 1):
        x = i / grid
        value = MIRROR_SIGN * takagi_function(poly, q, 1, x, depth) / (d + 1)
        rows.append((x, value, x * (1.0 - x), value - x * (1.0 - x)))
    return rows
