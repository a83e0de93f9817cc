"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they go.
Sampled-path criteria (A7, A8) use a fixed documented seed; the underlying
statements hold for almost every sample, and the chosen path exhibits the
typical behaviour at the modest depths tested here.
"""

import math
import random
import statistics
from fractions import Fraction
from itertools import product

import pytest

from conftest import brute_tower_sums, t_prime_closed_form, tower_words_sorted
from polyadic import (CylFunction, DegenerateCurve, DimTable, GenPolynomial,
                      MIRROR_SIGN, PathPrefix,
                      cohomology_verdict, coding_map, cylinder_measure,
                      extract_limiting_curve, fluctuation_curve,
                      iter_tower, kappa, letter_stream, letter_table,
                      measure_params, node_grid, parabola_profile, rank,
                      self_affinity_residual, solve_t, successor, t_jet,
                      takagi_function, unrank, weight_residual)
from polyadic.ergodic import _grid_numerators

CURVE_SEED = 2


def _report(line):
    print(line)


# ---------------------------------------------------------------- A1


def test_a1_rank_unrank_successor_exact():
    total = 0
    for coeffs in ((1, 1), (2, 1), (1, 1, 3)):
        poly = GenPolynomial(coeffs)
        table = DimTable(poly, 8)
        for n in range(1, 8):
            for kap in range(n * poly.degree + 1):
                words = tower_words_sorted(poly, n, kap)
                assert len(words) == table.dim(n, kap)
                for j, w in enumerate(words, 1):
                    assert rank(w, poly) == j
                    assert unrank(n, kap, j, table) == w
                assert list(iter_tower(n, kap, poly)) == words
                total += len(words)
    _report(f"A1 PASS: exhaustive bijectivity and successor order on {total} words")


# ---------------------------------------------------------------- A2


def _pascal_swapped_map(digits):
    ds = list(digits)
    i = 0
    while i < len(ds) and ds[i] == 0:
        i += 1
    zeros = i
    while i < len(ds) and ds[i] == 1:
        i += 1
    ones = i - zeros
    if ones < 1 or i >= len(ds) or ds[i] != 0:
        return None
    return [1] * (ones - 1) + [0] * zeros + [0, 1] + ds[i + 1:]


def test_a2_pascal_closed_form_oracle():
    poly = GenPolynomial((1, 1))
    rng = random.Random(12345)
    checked = 0
    for _ in range(10_000):
        x = tuple(rng.randint(0, 1) for _ in range(30))
        image = _pascal_swapped_map([1 - c for c in x])
        if image is None:     # needs a letter pattern deeper than the horizon
            continue
        back = successor(PathPrefix(tuple(1 - c for c in image)), poly).known()
        assert back == x
        checked += 1
    assert checked >= 9_990
    _report(f"A2 PASS: successor inverts the relabeled closed form on {checked} paths")


# ---------------------------------------------------------------- A3


def test_a3_convolution_and_weighted_identity():
    rng = random.Random(2024)
    polys = [GenPolynomial(c) for c in
             ((1, 1), (2, 1), (1, 2), (1, 1, 3), (2, 1, 1), (1, 1, 1),
              (3, 2), (1, 3, 1, 2))]
    tables = {p: DimTable(p, 60) for p in polys}
    for _ in range(200):
        poly = rng.choice(polys)
        table = tables[poly]
        d = poly.degree
        n = rng.randint(1, 60)
        N = rng.randint(0, n)
        k = rng.randint(0, n * d)
        assert table.dim(n, k) == sum(
            table.dim(N, l) * table.dim(n - N, k - l) for l in range(N * d + 1))
        lhs = n * sum(a * i * table.dim(n - 1, k - i)
                      for i, a in enumerate(poly.coeffs) if i >= 1)
        assert lhs == k * table.dim(n, k)
    _report("A3 PASS: Vandermonde and the weighted identity exact on 200 instances")


# ---------------------------------------------------------------- A4


def test_a4_measure_layer():
    for coeffs in ((1, 1), (2, 1), (1, 1, 3), (1, 2, 1, 1), (3, 1)):
        poly = GenPolynomial(coeffs)
        for frac in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
            q = frac / poly.coeffs[0]
            mp = measure_params(poly, q)
            assert abs(weight_residual(poly, q, mp.t)) <= 1e-14
            assert abs(sum(mp.weights) - 1.0) <= 1e-14
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        t = solve_t(GenPolynomial((1, 1)), q)
        assert abs(t - (1 - q)) <= 1e-15 * (1 - q)
    for d in range(1, 9):
        poly = GenPolynomial((1,) * (d + 1))
        assert abs(solve_t(poly, 1 / (d + 1)) - 1 / (d + 1)) <= 1e-12
    poly = GenPolynomial((1, 1, 3))
    mp = measure_params(poly, 0.13)
    for n in range(7):
        by_vertex = {}
        for w in product(range(5), repeat=n):
            key = kappa(w, poly)
            got = cylinder_measure(mp, w)
            ref = by_vertex.setdefault(key, got)
            assert abs(got - ref) <= 1e-15
    _report("A4 PASS: residuals <= 1e-14, closed forms match, centrality exact n<=6")


# ---------------------------------------------------------------- A5


def test_a5_jet_layer():
    rng = random.Random(99)
    for _ in range(50):
        coeffs = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
        poly = GenPolynomial(coeffs)
        q = rng.uniform(0.1, 0.9) / poly.coeffs[0]
        jet = t_jet(poly, q, 1).coeffs[1]
        closed = t_prime_closed_form(poly, q)
        assert abs(jet - closed) <= 1e-10 * max(1.0, abs(closed))
    for d in range(1, 9):
        poly = GenPolynomial((1,) * (d + 1))
        got = t_jet(poly, 1 / (d + 1), 1).coeffs[1]
        assert abs(got - (-(2 - d) / d)) <= 1e-10
    _report("A5 PASS: first-order jets match the implicit-derivative closed form")


# ---------------------------------------------------------------- A6


def _classical_takagi(x, terms=60):
    return sum(min(y := (x * 2 ** n) % 1.0, 1 - y) / 2 ** n for n in range(terms))


def test_a6_takagi_values():
    poly = GenPolynomial((1, 1))
    half = MIRROR_SIGN * 0.5 * takagi_function(poly, 0.5, 1, 0.5)
    assert abs(half - 0.5) <= 1e-8
    grid = [i / 1023 for i in range(1024)]          # contains 1/3 exactly
    ours = [MIRROR_SIGN * 0.5 * takagi_function(poly, 0.5, 1, x) for x in grid]
    peak = max(ours)
    assert abs(peak - 2 / 3) <= 1e-3
    at_third = ours[grid.index(341 / 1023)]
    assert abs(at_third - 2 / 3) <= 1e-3
    oracle_peak = max(_classical_takagi(x) for x in grid)
    assert abs(peak - oracle_peak) <= 1e-9
    h = 1e-5
    for coeffs in ((1, 1), (1, 1, 2)):
        p = GenPolynomial(coeffs)
        worst = 0.0
        for i in range(257):
            x = i / 256
            fd = (coding_map(p, 0.25, 0.25 + h, x)
                  - coding_map(p, 0.25, 0.25 - h, x)) / (2 * h)
            worst = max(worst, abs(takagi_function(p, 0.25, 1, x) - fd))
        assert worst <= 1e-4
    _report(f"A6 PASS: value 1/2 at 1/2, grid max {peak:.6f} at x=1/3, FD agrees")


# ---------------------------------------------------------------- A7 / A8


def _curve_protocol(poly, q, g, seed=CURVE_SEED, n_max=300):
    mp = measure_params(poly, q)
    x = PathPrefix((), extend=letter_stream(mp, seed), max_level=n_max)
    curve, diag = extract_limiting_curve(g, x, poly, eps=0.1, delta=0.1, m=6,
                                         tol=0.05, n_max=n_max, mp=mp)
    reference = [takagi_function(poly, q, 1, xx) for xx in curve.xs]
    scale = max(abs(v) for v in reference)
    ref_norm = [v / scale for v in reference]
    dist = min(max(abs(a - b) for a, b in zip(curve.ys, ref_norm)),
               max(abs(a + b) for a, b in zip(curve.ys, ref_norm)))
    return curve, diag, dist


def test_a7_pascal_limiting_curve():
    curve, diag, dist = _curve_protocol(
        GenPolynomial((1, 1)), 0.5, CylFunction(1, {(0,): 1.0}))
    assert diag["converged_at"] <= 300
    assert diag["distances"][-1] < 0.05
    assert dist < 0.05
    _report(f"A7 PASS: converged at n={curve.n}, sign-aligned distance to "
            f"(1/2-scaled) first-derivative curve {dist:.4f}")


def test_a8_polynomial_limiting_curve():
    poly = GenPolynomial((1, 1, 1))
    ks = letter_table(poly).kstep
    g = CylFunction(1, {(c,): -float(poly.degree - ks[c]) for c in range(3)})
    curve, diag, dist = _curve_protocol(poly, 0.25, g)
    assert diag["converged_at"] <= 300
    assert diag["distances"][-1] < 0.05
    assert dist < 0.05
    _report(f"A8 PASS: converged at n={curve.n}, sign-aligned distance {dist:.4f}")


# ---------------------------------------------------------------- A9


def test_a9_cohomology_dichotomy():
    p3 = GenPolynomial((3,))
    t3 = DimTable(p3, 14)
    rng = random.Random(7)
    for _ in range(5):
        g = CylFunction(2, {(a, b): rng.randint(-3, 3) * 0.5
                            for a in range(3) for b in range(3)})
        verdict, _ = cohomology_verdict(g, t3, 12, m=3)
        assert verdict == "BOUNDED"
    p11 = GenPolynomial((1, 1))
    t11 = DimTable(p11, 44)
    g7 = CylFunction(1, {(0,): 1.0})
    verdict, series = cohomology_verdict(g7, t11, 40, m=4)
    assert verdict == "UNBOUNDED"
    values = [v for _, v in series]
    assert all(b >= a for a, b in zip(values[20:], values[21:]))
    const = CylFunction.from_table(p11, 1, lambda w: 4.5)
    with pytest.raises(DegenerateCurve):
        fluctuation_curve(const, 12, 6, 4, t11)
    _, nodes = _grid_numerators(const, 12, 6, 4, t11)
    assert all(num == 0 for _, num in nodes)      # exactly-zero numerator
    _report("A9 PASS: odometer BOUNDED x5, two-letter UNBOUNDED with "
            "non-decreasing R, constant degenerates with exact zeros")


# ---------------------------------------------------------------- A10


def test_a10_self_affinity():
    rng = random.Random(42)
    pool = [(1, 1), (1, 2), (2, 1), (1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 1, 3)]
    worst = 0.0
    for _ in range(100):
        poly = GenPolynomial(rng.choice(pool))
        a0 = poly.coeffs[0]
        for _ in range(50):
            q1 = rng.uniform(0.2, 0.8) / a0
            q2 = rng.uniform(0.2, 0.8) / a0
            # keep coding weights off the extremes so the depth-60 tail
            # stays inside the tolerance budget
            if max(max(measure_params(poly, q1).weights),
                   max(measure_params(poly, q2).weights)) <= 0.6:
                break
        w0 = tuple(rng.randrange(poly.alphabet_size)
                   for _ in range(rng.randint(0, 6)))
        res = self_affinity_residual(poly, q1, q2, w0, rng.random(), 60)
        worst = max(worst, res)
        assert res <= 1e-10
    _report(f"A10 PASS: worst self-affinity residual {worst:.2e} over 100 cases")


# ---------------------------------------------------------------- A11


def test_a11_parabola_limit():
    for d in (1, 2, 4, 8, 16, 32):
        rows = parabola_profile(d, d + 1)
        for i in range(d + 2):
            a = i / (d + 1)
            expect = a * (1 - a) * (d + 1) / d
            assert abs(rows[i][1] - expect) <= 1e-9
    sups = {}
    for d in (4, 8, 16, 32):
        sups[d] = max(abs(dev) for _, _, _, dev in parabola_profile(d, 256))
    assert sups[8] < sups[4] and sups[16] < sups[8] and sups[32] < sups[16]
    assert sups[32] <= sups[4] / 2
    _report(f"A11 PASS: boundary identity to 1e-9; sup deviations "
            f"{[round(sups[d], 4) for d in (4, 8, 16, 32)]} strictly decreasing")


# ---------------------------------------------------------------- A12


def _interp_deviation(g, table, n_hi):
    """Exact max over towers of |node interpolation - exact partial sum|."""
    import bisect
    worst = Fraction(0)
    for n in range(g.N + 1, n_hi + 1):
        for kap in range(n + 1):
            H = table.dim(n, kap)
            sums = brute_tower_sums(g, n, kap, table)
            xs = [L for _, L, _ in node_grid(n, kap, n - g.N, table)]
            ys = [Fraction(sums[L - 1]) for L in xs]
            if xs[-1] != H:
                xs.append(H)
                ys.append(Fraction(sums[-1]))
            for j in range(1, H + 1):
                i = bisect.bisect_right(xs, j) - 1
                if i == len(xs) - 1:
                    val = ys[-1]
                else:
                    x0, y0, x1, y1 = xs[i], ys[i], xs[i + 1], ys[i + 1]
                    val = y0 + (y1 - y0) * Fraction(j - x0, x1 - x0)
                worst = max(worst, abs(val - Fraction(sums[j - 1])))
    return worst


def test_a12_node_vs_exact_stabilization():
    table = DimTable(GenPolynomial((1, 1)), 14)
    tests = [CylFunction(1, {(0,): 1.0}),
             CylFunction(2, {(0, 0): 1.0, (1, 1): -1.0}),
             CylFunction(2, {(0, 1): 2.0, (1, 0): 1.0, (0, 0): -1.0})]
    devs = []
    for g in tests:
        d8 = _interp_deviation(g, table, 8)
        d12 = _interp_deviation(g, table, 12)
        assert d8 == d12
        devs.append(d12)
    assert any(d > 0 for d in devs)
    _report(f"A12 PASS: interpolation deviations {[str(d) for d in devs]} "
            "identical over n<=8 and n<=12")


# ---------------------------------------------------------------- A13


def test_a13_flattening_diagnostic():
    rng = random.Random(11)
    for coeffs in ((1, 1), (1, 1, 1)):
        poly = GenPolynomial(coeffs)
        d = poly.degree
        nbar = 60
        table = DimTable(poly, nbar)
        kbar = round(nbar * d / 2)
        for _ in range(10):
            alpha = [rng.uniform(-1, 1) for _ in range(d + 1)]
            pts = []
            for n in range(1, nbar + 1):
                best = 0.0
                for k in range(0, min(kbar, n * d) + 1):
                    if n * d - k > nbar * d - kbar:
                        continue
                    val = sum(a * table.dim(n - 1, k - l)
                              for l, a in enumerate(alpha))
                    best = max(best, abs(val))
                if best > 0.0:
                    pts.append((nbar - n, best))
            scale = max(v for _, v in pts) / 2.0
            xs = [x for x, _ in pts]
            ys = [math.log(v / scale) for _, v in pts]
            slope = statistics.linear_regression(xs, ys).slope
            assert slope < 0.0
    _report("A13 PASS: log-peak slopes negative for both systems, 10 seeds each")
