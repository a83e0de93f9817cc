"""Invariant Bernoulli measures, path sampling, and the interval coding.

For a parameter q in (0, 1/a_0) a letter of vertex step s weighs
``q u^s`` with ``u = t/q``, where ``t`` solves ``q p(t/q) = 1`` in (0, 1):
the weights sum to one.  The product measure built from these weights is
invariant for the adic map because a cylinder's mass then depends only on its
end vertex.

The coding of [0, 1] subdivides nested intervals in letter-label order, first
letter most significant; stationary numbers are the points with a finite
expansion.  ``encode`` is the one Horner over the digits: it takes Taylor
columns of the letter weights in any ring and returns one coefficient, so the
plain coding (floats, ``Fraction``s) and the Takagi layer's derivatives of the
re-encoding run the same passes.
``decode`` extracts digits in fixed-point integer arithmetic, which keeps them
faithful far past the depth where a float remainder has run out of bits.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice, product, repeat

from .errors import CapacityError, NoRoot
from .paths import _check_letters, letter_table
from .poly import _BIT_BUDGET, GenPolynomial, _admit, _check_words, _count

# Fractional bits of the fixed-point coder (50 decimal digits are 166 bits).
# After k letters the decoder's remainder is off by about 2^-PREC over the
# width of their cylinder, so digits are exact while that width stays well
# above 2^-PREC: all 60 for two letters at q = 1/2, the first 36 for 33
# letters of 1/33, beyond which a letter moves a value by less than 2^-180.
PREC = 192
_ONE = 1 << PREC


def _weights(poly: GenPolynomial, q, t, steps=()):
    """Weight of the stepping letters, its t-slope and the step weights at (q, t).

    q and t may be floats, ``Fraction``s or jets.  With u = t/q, step s
    weighs w_0 = q, w_1 = t and w_s = t u^(s-1); the weights sum to one,
    q p(u) = 1, where sum_{s>=1} a_s w_s = 1 - a_0 q.  Returns that sum and
    its t-derivative a_1 + sum_{s>=2} s a_s u^(s-1), by Horner in u, and the
    weights of ``steps``, each the one before times u.  q divides only steps
    s >= 2, so a t polynomial in q (Pascal's 1 - q) keeps every weight one.
    """
    a, d = poly.coeffs, poly.degree
    u = t / q if d >= 2 else None
    h, dh = (a[d], d * a[d]) if d else (0, 0)
    for s in range(d - 1, 0, -1):
        h = h * u + a[s]
        dh = dh * u + s * a[s]
    by_step = [q, t]
    for _ in range(2, max(steps, default=0) + 1):
        by_step.append(by_step[-1] * u)
    return t * h, dh, {s: by_step[s] for s in steps}


def solve_t(poly: GenPolynomial, q: float) -> float:
    """Root t in (0, 1) of the weight equation q p(t/q) = 1, rounded once from ``_root``."""
    n, e, _, _ = _root(poly, q)
    return n / (1 << e)


def _round_div(a: int, b: int) -> int:
    """a / b (b > 0) rounded to the nearest integer, ties to even."""
    quo, rem = divmod(a, b)
    return quo + (2 * rem > b or 2 * rem == b and quo & 1)


@lru_cache(maxsize=512, typed=True)
def _root(poly: GenPolynomial, q: float) -> tuple[int, int, tuple[float, ...], tuple[int, ...]]:
    """Root t of the weight equation as (n, e, floats, fixed): t = n / 2^e to 2 PREC
    significant bits, rounded to nearest, and the step weights q, t and t u^(s-1)
    (s >= 2) there, exact integer ratios rounded once each to floats and to units
    of 2^-PREC; only the roundings are kept.

    The weight sum is increasing and convex in t and is a_0 q < 1 at t = 0,
    so float Newton from where the top step alone weighs 1 falls to the root.
    Integer Newton follows at 106 bits, doubled each pass up to 2 PREC, until
    a step moves n by at most one: with u = x / y, the weight sum less one
    times y^d / q is sum_s a_s x^s y^(d-s) - y^d / q, a Horner sum, no gcd.
    At degree 0 the equation forces q = 1/a_0; t, read by no weight, is q.  q must be a
    float: the integer Newton takes its ratio's denominator to be a power of two."""
    if not isinstance(q, float):
        raise ValueError(f"q must be a float, got {q!r} of type {type(q).__name__}")
    if not math.isfinite(q):
        raise NoRoot(f"q={q} is not a finite number")
    a, d = poly.coeffs, poly.degree
    if d == 0:
        if abs(a[0] * q - 1.0) > 1e-9:
            raise NoRoot(f"degree-0 system requires q = 1/{a[0]}")
        n, den = q.as_integer_ratio()
        return n, den.bit_length() - 1, (q,), (_round_div(n << PREC, den),)
    if not 0.0 < q < 1.0 / a[0]:
        raise NoRoot(f"q={q} outside (0, 1/{a[0]})")
    qn, qd = q.as_integer_ratio()
    rest = (qd - a[0] * qn) / qd            # what the stepping letters share
    t = nxt = q ** (1.0 - 1.0 / d) / a[d] ** (1.0 / d)   # a_d w_d = 1
    smallest = math.inf
    while True:
        total, slope, _ = _weights(poly, q, nxt)
        if not abs(total - rest) < smallest:
            break
        t, smallest = nxt, abs(total - rest)
        nxt = t - (total - rest) / slope
    e, bits = None, 106         # the float's 53 bits, doubled by each pass
    for _ in range(64):
        if e != (scale := bits - math.frexp(t)[1]):
            shift = min(qd.bit_length() - 1, scale)     # u's ratio shares no 2
            c, y = qd >> shift, qn << (scale - shift)
            n = int(math.ldexp(t, scale)) if e is None else (n << scale) >> e
            e = scale
        x = n * c
        h, dh, yd = a[d], 0, 1
        for s in range(d - 1, -1, -1):
            yd *= y
            dh = dh * x + h
            h = h * x + a[s] * yd
        step = _round_div(h - qd * (yd // qn), c * dh)
        n -= step
        t = n / (1 << e)
        if bits == 2 * PREC and abs(step) <= 1 and e == bits - math.frexp(t)[1]:
            break
        bits = min(2 * bits, 2 * PREC)
    else:
        raise NoRoot(f"integer Newton for t did not settle at q={q}")
    # each step ratio is the one before times u = n c / y: formed, rounded, dropped
    ratios = accumulate(range(2, d + 1), lambda r, _: (r[0] * n * c, r[1] * y),
                        initial=(n, 1 << e))
    return (n, e, *zip(*((num / den, _round_div(num << PREC, den))
                         for num, den in chain([(qn, qd)], ratios))))


def weight_residual(poly: GenPolynomial, q: float, t: float) -> float:
    """Weight-equation residual q p(t/q) - 1 at (q, t): the letter weights' sum less one.

    Each weight is the one before times u, at most one even at a subnormal t."""
    by_step = _weights(poly, q, t, range(poly.degree + 1))[2]
    return math.fsum(a * by_step[s] for s, a in enumerate(poly.coeffs)) - 1.0


@dataclass(frozen=True)
class MeasureParams:
    """Parameter q, its root t, the per-letter weights and their low sums."""

    poly: GenPolynomial
    q: float
    t: float
    weights: tuple[float, ...]
    lows: tuple[float, ...]


@lru_cache(maxsize=512, typed=True)
def measure_params(poly: GenPolynomial, q: float) -> MeasureParams:
    """The measure at q: t and each letter weight rounded once from the exact root."""
    t = solve_t(poly, q)
    by_step = _root(poly, q)[2]
    weights = tuple(by_step[s] for s in letter_table(poly).kstep)
    return MeasureParams(poly, q, t, weights, low_sums(weights, 0.0))


def cylinder_measure(mp: MeasureParams, word) -> float:
    """Product of letter weights: q^n (t/q)^kappa, a function of (n, kappa)."""
    _check_letters(word, len(mp.weights))
    out = 1.0
    for c in word:
        out *= mp.weights[c]
    return out


def sample_word(mp: MeasureParams, n: int, seed: int) -> tuple[int, ...]:
    """n i.i.d. letters drawn from the weight vector, reproducible by seed."""
    _admit("sample", _count(n, "n"), "letters")
    return tuple(islice(letter_stream(mp, seed), n))


def letter_stream(mp: MeasureParams, seed: int):
    """Endless i.i.d. letter iterator; feeds PathPrefix extension."""
    rng = random.Random(seed)
    while True:
        yield bisect_right(mp.lows, rng.random()) - 1


def encode_theta(mp: MeasureParams, word) -> float:
    """Left endpoint in [0, 1] of the word's nested coding interval."""
    _check_letters(word, len(mp.weights))
    return encode((mp.weights,), (mp.lows,), word)


def _check_unit(x) -> None:
    """Refuse a point outside [0, 1], nan included, and a bool: the coding's domain."""
    if isinstance(x, bool):
        raise ValueError(f"x must be a number, got {x!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")


def decode_digits(mp: MeasureParams, x: float, m: int) -> tuple[int, ...]:
    """First m letters of the coding of x in [0, 1], as ``decode`` reads them."""
    _check_unit(x)
    _admit("word", _count(m, "m"), "letters")
    return decode(mp.poly, mp.q, x, m)


def stationary_points(mp: MeasureParams, m: int) -> list[float]:
    """Sorted left endpoints of the rank-m coding intervals: encode_theta of each word."""
    r = len(mp.weights)
    _check_words(r, _count(m, "m"), "stationary points exceed budget")
    coder = (mp.weights,), (mp.lows,)
    return sorted({encode(*coder, w) for w in product(range(r), repeat=m)})


# -- the digit coder ----------------------------------------------------------


def low_sums(weights, zero) -> tuple:
    """Left ends of the rank-1 coding intervals: zero, w_0, w_0 + w_1, ..."""
    return tuple(accumulate(weights[:-1], initial=zero))


def encode(wcols, lcols, digits):
    """Coefficient K of the digits' coding, by Horner from the last digit.

    ``wcols`` and ``lcols`` hold K + 1 Taylor columns of the letter weights
    and low sums (column i: every letter's i-th coefficient) in any ring:
    float, ``Fraction`` or jet.  ``lcols[0][0]`` is the ring's zero, the
    value of the empty word; one column (K = 0) gives the plain coding, the
    left end of the digits' interval.  The step acc = l_c + w_c acc is linear
    in acc, so column i is that Horner plus sum_{j=1..i} w_j[c] a_{i-j}; columns
    0 and 1 run in one loop.  No zero is added: it could turn only -0.0 into
    0.0, which adding l_c (never -0.0) erases, so no bit moves.
    """
    zero, w0, l0, last = lcols[0][0], wcols[0], lcols[0], len(lcols) - 1
    a0 = a1 = zero
    if not last:            # the plain coding keeps no accumulators
        for c in reversed(digits):
            a0 = l0[c] + w0[c] * a0
        return a0
    w1, l1 = wcols[1], lcols[1]
    if last == 1:           # nor does the last column
        for c in reversed(digits):
            a1 = l1[c] + (w0[c] * a1 + w1[c] * a0)
            a0 = l0[c] + w0[c] * a0
        return a1
    seq, passes = digits[::-1], [[zero], [zero]]  # passes[i][s]: coefficient i before step s
    for c in seq:
        passes[1].append(a1 := l1[c] + (w0[c] * a1 + w1[c] * a0))
        passes[0].append(a0 := l0[c] + w0[c] * a0)
    for i, low in enumerate(lcols[2:], 2):
        acc, path = zero, [zero]
        offset = [w1[c] * a for c, a in zip(seq, passes[i - 1])]
        for j, wj in enumerate(wcols[2:i + 1], 2):
            offset = [o + wj[c] * a for o, c, a in zip(offset, seq, passes[i - j])]
        if i == last:       # nor does the last column
            for c, o in zip(seq, offset):
                acc = low[c] + (w0[c] * acc + o)
            return acc
        for c, o in zip(seq, offset):
            path.append(acc := low[c] + (w0[c] * acc + o))
        passes.append(path)


def _check_coder_budget(degree: int) -> None:
    """Refuse a degree whose exact coder weights pass the bit budget: with t
    held to 2 PREC bits by ``_root``, the weight of step s is a ratio of about
    2 PREC s bits, and the integer Newton that finds t runs Horner sums as large."""
    bits = PREC * degree * (degree + 1)
    if bits > _BIT_BUDGET:
        raise CapacityError(f"exact coder weights of degree {degree} need about "
                            f"{bits} bits, budget is {_BIT_BUDGET} bits")


@lru_cache(maxsize=512, typed=True)
def fixed_coder(poly: GenPolynomial, q: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Letter weights and low sums in units of 2^-PREC.

    Each weight t u^(s-1) is rounded once from the exact root; the top
    letter takes the remainder, so the rank-1 intervals tile [0, 1] exactly.
    """
    _check_coder_budget(poly.degree)
    by_step = _root(poly, q)[3]
    weights = [by_step[s] for s in letter_table(poly).kstep]
    weights[-1] = _ONE - sum(weights[:-1])
    if min(weights) <= 0:
        raise CapacityError(f"a letter weight at q={q} is below 2^-{PREC}, "
                            f"the coder's resolution")
    return tuple(weights), low_sums(weights, 0)


@lru_cache(maxsize=128, typed=True)
def digit_horizon(poly: GenPolynomial, q: float, k: int, depth: int) -> tuple[float, ...]:
    """``decode``'s width floors for coefficient k at depths D = 1, 2, ...: 2^-64 /
    sum_{i<=k} C(D+i-1, i) (1-w)^i, w the largest letter weight, up to `depth` or
    to where w^D, so every word's width, is below the floor (a floor 0, past float
    range, stops nothing).  ``fixed_coder`` is read first: its refusals come first."""
    fixed_coder(poly, q)
    w = max(measure_params(poly, q).weights)
    floors, top = [], 1.0
    for d in range(1, depth + 1):
        terms = accumulate(range(1, k + 1), lambda t, i: t * (d - 1 + i) / i * (1 - w),
                           initial=1.0)
        floors.append(2.0 ** -64 / sum(terms))
        top *= w
        if top < floors[-1]:
            break
    return tuple(floors)


def _decoder(poly: GenPolynomial, q: float):
    """``decode``'s digit reader for (poly, q): the fixed-point weights and low sums
    and the float weights are read once, so a Takagi grid reads them once in all."""
    (weights, lows), float_weights = fixed_coder(poly, q), measure_params(poly, q).weights
    def read(x, m: int, floors=()) -> tuple[int, ...]:
        num, den = x.as_integer_ratio()
        y = min(max((num << PREC) // den, 0), _ONE)
        out, width = [], 1.0
        for floor in floors or repeat(0.0, m):
            c = bisect_right(lows, y) - 1
            out.append(c)
            y = ((y - lows[c]) << PREC) // weights[c]
            width *= float_weights[c]
            if not y or width < floor:
                break
        return tuple(out) if floors else tuple(out) + (0,) * (m - len(out))
    return read


def decode(poly: GenPolynomial, q: float, x, m: int, floors=()) -> tuple[int, ...]:
    """First m letters of the coding of x (a float or a rational), read by ``_decoder``.

    Points on an interval boundary take the right-hand letter, so a
    stationary number decodes to its finite word padded with the lowest
    letter; x >= 1 takes the top letter at every depth, x <= 0 the lowest.

    With ``digit_horizon``'s floors for coefficient k the word ends at the
    first depth D where its cylinder's measure P_D is below floor D, or where
    the remainder is 0: only the lowest letter follows, whose low sums are 0
    in every Taylor column.  Past D the digits add at most P_D rho^k sum_{i<=k}
    C(D+i-1, i) / (1-w)^(k-i+1) to coefficient k, w the largest letter weight
    and rho the largest |w_j[c] / w_0[c]|^(1/j), 1 <= j <= k, since w_0[c] /
    (1 - rho e) dominates each weight's series; below the floor that is 2^-64
    of the bound at D = 0, the scale rho^k / (1-w)^(k+1), so rho cancels.
    """
    return _decoder(poly, q)(x, m, floors)


def cylinder(poly: GenPolynomial, q: float, word) -> tuple[Fraction, Fraction]:
    """Exact left end and width of the word's interval under the decoder's weights."""
    weights, lows = fixed_coder(poly, q)
    weights = [Fraction(w, _ONE) for w in weights]
    lows = [Fraction(v, _ONE) for v in lows]
    width = math.prod((weights[c] for c in word), start=Fraction(1))
    return encode((weights,), (lows,), word), width
