"""Shared helpers for the test suite."""

from fractions import Fraction
from itertools import product

import pytest

from polyadic import (CapacityError, DimTable, GenPolynomial, NoRoot, PathPrefix,
                      h_coeffs, kappa, letter_table, minimal_word, solve_t,
                      successor)


@pytest.fixture
def built_tables(monkeypatch):
    """Every DimTable constructed while the test runs, in order."""
    tables = []
    init = DimTable.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    monkeypatch.setattr(DimTable, "__init__", recorded)
    return tables


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


def poly_power_rows(coeffs, n_max):
    """Coefficients of (sum_j a_j x^j)^n for n = 0..n_max, by repeated convolution."""
    row = [1]
    yield row
    for _ in range(n_max):
        nxt = [0] * (len(row) + len(coeffs) - 1)
        for i, v in enumerate(row):
            for j, a in enumerate(coeffs):
                nxt[i + j] += v * a
        row = nxt
        yield row


def poly_power_row(coeffs, n):
    """Coefficients of (sum_j a_j x^j)^n by repeated convolution."""
    *_, row = poly_power_rows(coeffs, n)
    return row


def brute_tower_sums(g, n, kap, table, cap=1_000_000):
    """All partial sums over the tower, by walking successors from the bottom."""
    if n < g.N:
        raise ValueError("tower level below function rank")
    total = table.dim(n, kap)
    if total > cap:
        raise CapacityError(f"tower of {total} words exceeds cap {cap}")
    sums = []
    acc = 0.0
    word = None
    for _ in range(total):
        word = (minimal_word(n, kap, table.poly) if word is None
                else successor(PathPrefix(word), table.poly).known())
        acc += g(word)
        sums.append(acc)
    return sums


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


def reference_encode(weights, lows, digits):
    """Left end of the digits' coding interval, by the plain Horner in any ring.

    One weight and one low sum per letter (floats, Fractions or whole jets),
    where the package's coder takes Taylor columns and runs one pass each.
    """
    acc = lows[0]
    for c in reversed(digits):
        acc = lows[c] + weights[c] * acc
    return acc


# -- reference fluctuation grid -----------------------------------------------
#
# The grid as first written: every one of the r^m top blocks enumerated on its
# own, its block list rebuilt for each block, numerators combined as Fractions
# from full-length minimal words, and the nodes sorted by rank afterwards.
# Only the table, h_coeffs and minimal_word come from the package.  The
# library lists the same blocks level by level with shared prefix sums and
# integer numerators; these oracles pin it to the direct construction.


def reference_top_blocks(n, kap, m, table):
    """(top_word, bottom_kappa, rank, blocks) for every valid top-m block, unsorted.

    blocks lists (bottom_length, bottom_kappa) for every letter lying below
    the block in the order.
    """
    d = table.poly.degree
    ks = letter_table(table.poly).kstep
    r = table.poly.alphabet_size
    bot = n - m
    for u in product(range(r), repeat=m):
        rem = kap
        blocks = []
        ok = True
        for idx in range(m - 1, -1, -1):
            level = bot + 1 + idx
            for c in range(u[idx]):
                blocks.append((level - 1, rem - ks[c]))
            rem -= ks[u[idx]]
            if rem < 0:
                ok = False
                break
        if not ok or rem > bot * d:
            continue
        rank = 1 + sum(table.dim(bl, kb) for bl, kb in blocks)
        yield u, rem, rank, blocks


def reference_node_grid(n, kap, m, table):
    """(top_word, rank, minimal completion) of every valid top-m block, by rank."""
    out = [(u, rank, minimal_word(n - m, kb, table.poly) + u)
           for u, kb, rank, _ in reference_top_blocks(n, kap, m, table)]
    return sorted(out, key=lambda item: item[1])


def reference_grid(g, n, kap, m, table):
    """(H, [(L, H*F(L) - L*F(H) as a Fraction), ...]) sorted by L."""
    N = g.N
    d = table.poly.degree
    H = table.dim(n, kap)
    hfr = [Fraction(v) for v in h_coeffs(g, table.poly).values]
    T = [table.dim(n - N, kap - l) for l in range(N * d + 1)]
    nodes = []
    for _, kb, L, blocks in reference_top_blocks(n, kap, m, table):
        A = [0] * (N * d + 1)
        for bl, kbot in blocks:
            for l in range(N * d + 1):
                A[l] += table.dim(bl - N, kbot - l)
        num = sum(hl * (A[l] * H - T[l] * L) for l, hl in enumerate(hfr))
        num += Fraction(g(minimal_word(n - m, kb, table.poly))) * H
        nodes.append((L, num))
    nodes.sort(key=lambda item: item[0])
    return H, nodes


def reference_curve_value(xs, ys, x):
    """Piecewise-linear value at x by a hand-written bisection."""
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    lo, hi = 0, len(xs) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xs[mid] <= x:
            lo = mid
        else:
            hi = mid
    span = xs[hi] - xs[lo]
    if span == 0.0:
        return ys[lo]
    w = (x - xs[lo]) / span
    return ys[lo] * (1.0 - w) + ys[hi] * w


def classical_takagi(x, terms=60):
    """The classical Takagi function, sum of 2^-n dist(2^n x, Z) over n < terms."""
    return sum(min(y := (x * 2 ** n) % 1.0, 1 - y) / 2 ** n for n in range(terms))
