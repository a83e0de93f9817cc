"""Invariant Bernoulli measures, path sampling, and the interval coding.

For a parameter q the letter weights are ``t^s / q^(s-1)`` where ``s`` is the
letter's vertex step and ``t`` solves
``a_0 q^d + a_1 q^(d-1) t + ... + a_d t^d = q^(d-1)`` in (0, 1).  The product
measure built from these weights is invariant for the adic map because a
cylinder's mass then depends only on its end vertex.

The coding of [0, 1] subdivides nested intervals in letter-label order, first
letter most significant; stationary numbers are the points with a finite
expansion.  One coder serves every number type: ``encode`` runs Horner over
the digits in any ring (float, ``Fraction``, jets), and ``decode`` extracts
digits in fixed-point integer arithmetic, which keeps them faithful far past
the depth where a float remainder has run out of bits.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import CapacityError, NoRoot
from .paths import letter_table
from .poly import GenPolynomial

_STATIONARY_BUDGET = 2_000_000

# Fractional bits of the fixed-point coder (50 decimal digits are 166 bits).
# After k letters the decoder's remainder is off by about 2^-PREC over the
# width of their cylinder, so digits are exact while that width stays well
# above 2^-PREC: all 60 for two letters at q = 1/2, the first 36 for 33
# letters of 1/33, beyond which a letter moves a value by less than 2^-180.
PREC = 192
_ONE = 1 << PREC


def _weight_poly_coeffs(poly: GenPolynomial, q):
    """Coefficients of t -> sum_j a_j q^(d-j) t^j - q^(d-1)."""
    d = poly.degree
    coeffs = [a * q ** (d - j) for j, a in enumerate(poly.coeffs)]
    coeffs[0] -= q ** (d - 1)
    return coeffs


def _horner(coeffs, t):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


def solve_t(poly: GenPolynomial, q: float, tol: float = 1e-14) -> float:
    """Root t in (0, 1) of the weight equation; bisection then Newton polish.

    The degenerate degree-0 case has no free parameter: the equation forces
    q = 1/a_0, and t never enters the weights, so it is returned as q.
    """
    d = poly.degree
    a0 = poly.coeffs[0]
    if d == 0:
        if abs(a0 * q - 1.0) > 1e-9:
            raise NoRoot(f"degree-0 system requires q = 1/{a0}")
        return q
    if not 0.0 < q < 1.0 / a0:
        raise NoRoot(f"q={q} outside (0, 1/{a0})")
    coeffs = _weight_poly_coeffs(poly, q)
    deriv = [j * c for j, c in enumerate(coeffs)][1:]
    lo, hi = 0.0, 1.0
    flo = _horner(coeffs, lo)
    if flo >= 0.0 or _horner(coeffs, hi) <= 0.0:
        raise NoRoot(f"no sign change on (0,1) for q={q}")
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if _horner(coeffs, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(60):
        f = _horner(coeffs, t)
        fp = _horner(deriv, t)
        if fp == 0.0:
            break
        nxt = t - f / fp
        if not 0.0 < nxt < 1.0:
            nxt = min(max(nxt, 1e-300), 1.0 - 1e-16)
        if nxt == t:
            break
        t = nxt
    if abs(_horner(coeffs, t)) > tol:
        raise NoRoot(f"Newton polish left residual above {tol} for q={q}")
    return t


def weight_residual(poly: GenPolynomial, q: float, t: float) -> float:
    """Defining-equation residual at (q, t)."""
    if poly.degree == 0:
        return poly.coeffs[0] - 1.0 / q
    return _horner(_weight_poly_coeffs(poly, q), t)


@dataclass(frozen=True)
class MeasureParams:
    """Parameter q, its root t, the per-letter weights and their low sums."""

    poly: GenPolynomial
    q: float
    t: float
    weights: tuple[float, ...]
    lows: tuple[float, ...]


@lru_cache(maxsize=512)
def measure_params(poly: GenPolynomial, q: float) -> MeasureParams:
    t = solve_t(poly, q)
    ks = letter_table(poly).kstep
    b = t / q
    weights = tuple(q * b ** s for s in ks)
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise NoRoot(f"weights sum to {total}, not 1; degenerate parameters")
    return MeasureParams(poly, q, t, weights, low_sums(weights, 0.0))


def letter_weights(mp: MeasureParams) -> tuple[float, ...]:
    return mp.weights


def cylinder_measure(mp: MeasureParams, word) -> float:
    """Product of letter weights: q^n (t/q)^kappa, a function of (n, kappa)."""
    out = 1.0
    for c in word:
        out *= mp.weights[c]
    return out


def sample_word(mp: MeasureParams, n: int, seed: int) -> tuple[int, ...]:
    """n i.i.d. letters drawn from the weight vector, reproducible by seed."""
    rng = random.Random(seed)
    cums = _cumulative(mp.weights)
    return tuple(bisect_right(cums, rng.random(), 0, len(mp.weights) - 1)
                 for _ in range(n))


def letter_stream(mp: MeasureParams, seed: int):
    """Endless i.i.d. letter iterator; feeds PathPrefix extension."""
    rng = random.Random(seed)
    cums = _cumulative(mp.weights)
    top = len(mp.weights) - 1
    while True:
        yield bisect_right(cums, rng.random(), 0, top)


def _cumulative(weights) -> list[float]:
    cums = []
    acc = 0.0
    for w in weights:
        acc += w
        cums.append(acc)
    cums[-1] = 1.0
    return cums


@dataclass(frozen=True)
class CodingParams:
    """Measure parameters plus a decoding depth cap."""

    mp: MeasureParams
    max_depth: int = 60

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


def coding_params(poly: GenPolynomial, q: float, max_depth: int = 60) -> CodingParams:
    return CodingParams(measure_params(poly, q), max_depth)


def _mp_of(params) -> MeasureParams:
    return params.mp if isinstance(params, CodingParams) else params


def encode_theta(params, word) -> float:
    """Left endpoint in [0, 1] of the word's nested coding interval."""
    mp = _mp_of(params)
    return encode(mp.weights, mp.lows, word)


def decode_digits(cp: CodingParams, x: float, m: int | None = None) -> tuple[int, ...]:
    """First m letters of the coding of x; half-open intervals, 1 maps high.

    Points on an interval boundary take the right-hand letter, so a
    stationary number decodes to its finite word padded with the lowest
    letter; x = 1 takes the top letter at every depth.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    return decode(cp.mp.poly, cp.mp.q, x, cp.max_depth if m is None else m)


def stationary_points(cp: CodingParams, m: int) -> list[float]:
    """Sorted left endpoints of all coding intervals of rank m."""
    mp = cp.mp
    r = len(mp.weights)
    if r ** m > _STATIONARY_BUDGET:
        raise CapacityError(f"{r}^{m} stationary points exceed budget")
    lows = mp.lows
    points = {0.0}
    level = [(0.0, 1.0)]
    for _ in range(m):
        nxt = []
        for start, scale in level:
            for c in range(r):
                nxt.append((start + scale * lows[c], scale * mp.weights[c]))
        level = nxt
    points.update(start for start, _ in level)
    return sorted(points)


# -- the digit coder ----------------------------------------------------------


def low_sums(weights, zero) -> tuple:
    """Left ends of the rank-1 coding intervals: zero, w_0, w_0 + w_1, ..."""
    return tuple(accumulate(weights[:-1], initial=zero))


def encode(weights, lows, digits):
    """Left end of the digits' coding interval, by Horner from the last digit.

    Works in any ring the weights and lows live in (float, ``Fraction``,
    jets); ``lows[0]`` is that ring's zero, the value of the empty word.
    """
    acc = lows[0]
    for c in reversed(digits):
        acc = lows[c] + weights[c] * acc
    return acc


def _exact_t(poly: GenPolynomial, q: Fraction, t0: float) -> Fraction:
    """Root of the weight equation by Fraction Newton from the float root t0.

    Each iterate is kept on the grid of 2^-(2 PREC) so that its size stays
    bounded; the root is then correct far below the coder's resolution.
    """
    if poly.degree == 0:
        return q
    coeffs = _weight_poly_coeffs(poly, q)
    deriv = [j * c for j, c in enumerate(coeffs)][1:]
    t = Fraction(t0)
    scale = 1 << (2 * PREC)
    for _ in range(16):
        nxt = Fraction(round((t - _horner(coeffs, t) / _horner(deriv, t)) * scale),
                       scale)
        if abs(nxt - t) * scale <= 1:
            return nxt
        t = nxt
    raise NoRoot(f"exact Newton for t did not settle at q={float(q)}")


@lru_cache(maxsize=512)
def fixed_coder(poly: GenPolynomial, q: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Letter weights and low sums in units of 2^-PREC.

    Each weight q (t/q)^s is rounded once from the exact root; the top
    letter takes the remainder, so the rank-1 intervals tile [0, 1] exactly.
    """
    q_exact = Fraction(q)
    t = _exact_t(poly, q_exact, measure_params(poly, q).t)
    ks = letter_table(poly).kstep
    by_step = {s: round(q_exact ** (1 - s) * t ** s * _ONE) for s in set(ks)}
    weights = [by_step[s] for s in ks]
    weights[-1] = _ONE - sum(weights[:-1])
    return tuple(weights), low_sums(weights, 0)


def decode(poly: GenPolynomial, q: float, x, m: int) -> tuple[int, ...]:
    """First m letters of the coding of x (a float or a rational).

    Points on an interval boundary take the right-hand letter, so a
    stationary number decodes to its finite word padded with the lowest
    letter; x >= 1 takes the top letter at every depth, x <= 0 the lowest.
    """
    weights, lows = fixed_coder(poly, q)
    num, den = x.as_integer_ratio()
    y = min(max((num << PREC) // den, 0), _ONE)
    out = []
    for _ in range(m):
        c = bisect_right(lows, y) - 1
        out.append(c)
        y = ((y - lows[c]) << PREC) // weights[c]
    return tuple(out)


def cylinder(poly: GenPolynomial, q: float, word) -> tuple[Fraction, Fraction]:
    """Exact left end and width of the word's interval under the decoder's weights."""
    weights, lows = fixed_coder(poly, q)
    weights = [Fraction(w, _ONE) for w in weights]
    lows = [Fraction(v, _ONE) for v in lows]
    width = math.prod((weights[c] for c in word), start=Fraction(1))
    return encode(weights, lows, word), width
