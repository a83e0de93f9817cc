"""Shared helpers for the test suite."""

from fractions import Fraction
from itertools import product

from polyadic import GenPolynomial, kappa


def tail_less(w1, w2) -> bool:
    """Order on equal-length words: compare at the largest differing index."""
    for a, b in zip(reversed(w1), reversed(w2)):
        if a != b:
            return a < b
    return False


def tower_words_sorted(poly: GenPolynomial, n: int, kap: int):
    """Enumeration oracle: the tower's words in most-significant-last order."""
    words = [w for w in product(range(poly.alphabet_size), repeat=n)
             if kappa(w, poly) == kap]
    words.sort(key=lambda w: w[::-1])
    return words


def tower_words_comparison_sorted(poly: GenPolynomial, n: int, kap: int):
    """Insertion sort with the explicit pairwise comparison; small towers only."""
    out = []
    for w in tower_words_sorted(poly, n, kap):
        i = len(out)
        while i > 0 and tail_less(w, out[i - 1]):
            i -= 1
        out.insert(i, w)
    return out


def poly_power_row(coeffs, n):
    """Coefficients of (sum_j a_j x^j)^n by repeated convolution."""
    row = [1]
    for _ in range(n):
        nxt = [0] * (len(row) + len(coeffs) - 1)
        for i, v in enumerate(row):
            for j, a in enumerate(coeffs):
                nxt[i + j] += v * a
        row = nxt
    return row


# -- reference digit decoder --------------------------------------------------
#
# An independent check on the library's fixed-point coder: its own root
# solver (Fraction bisection and Newton), its own letter order, rounding to
# nearest instead of down, five times the precision, and no import from the
# package.  Weights and remainders are exact rationals on the grid of
# 2^-REF_BITS, held as their integer numerators so a 257-point grid takes
# well under a second.

REF_BITS = 1088


def _round_to(x: Fraction, bits: int) -> Fraction:
    return Fraction(round(x * (1 << bits)), 1 << bits)


def reference_weights(coeffs, q):
    """Letter weights q (t/q)^s in label order (steps d, ..., 0), in units of 2^-REF_BITS."""
    q = Fraction(q)
    d = len(coeffs) - 1
    steps = [s for s in range(d, -1, -1) for _ in range(coeffs[s])]
    t = q
    if d > 0:
        def f(t):
            return sum(a * q ** (d - j) * t ** j for j, a in enumerate(coeffs)) - q ** (d - 1)

        def fprime(t):
            return sum(j * a * q ** (d - j) * t ** (j - 1) for j, a in enumerate(coeffs) if j)

        lo, hi = Fraction(0), Fraction(1)
        for _ in range(24):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        t = (lo + hi) / 2
        for _ in range(40):
            nxt = _round_to(t - f(t) / fprime(t), REF_BITS + 64)
            if abs(nxt - t) <= Fraction(1, 1 << (REF_BITS + 63)):
                break
            t = nxt
    return [round(q ** (1 - s) * t ** s * (1 << REF_BITS)) for s in steps]


def reference_digits(weights, x, m, min_bits=150):
    """Leading letters of x, at most m, while their cylinder is wider than 2^-min_bits.

    A point on an interval boundary takes the right-hand letter.
    """
    lows = [0]
    for w in weights[:-1]:
        lows.append(lows[-1] + w)
    y = round(Fraction(x) * (1 << REF_BITS))
    width = 1 << REF_BITS
    out = []
    while len(out) < m:
        c = max(c for c, low in enumerate(lows) if low <= y)
        width = width * weights[c] >> REF_BITS
        if width <= 1 << (REF_BITS - min_bits):
            break
        out.append(c)
        num = (y - lows[c]) << REF_BITS
        y = (2 * num + weights[c]) // (2 * weights[c])     # nearest
    return tuple(out)
