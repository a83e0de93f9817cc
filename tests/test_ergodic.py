import json
import math
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_tower_sums, poly_power_row, tower_words_sorted
from polyadic import (CapacityError, CylFunction, DegenerateCurve, DimTable,
                      GenPolynomial, NoConvergence, PathPrefix, PolygonalCurve,
                      central_vertex,
                      cohomology_verdict, curve_value, extract_limiting_curve,
                      fluctuation_curve, h_coeffs, kappa, letter_stream,
                      letter_table, measure_params, measure_ray, node_grid,
                      rank, stationary_points, sup_distance,
                      tower_total, maximal_word, minimal_word,
                      iter_tower, prefix_walk)
from polyadic import poly as poly_module
from polyadic.ergodic import _grid_numerators, _stabilizing_levels
from polyadic.paths import path_column

P11 = GenPolynomial((1, 1))
P111 = GenPolynomial((1, 1, 1))
P112 = GenPolynomial((1, 1, 2))
P113 = GenPolynomial((1, 1, 3))
T11 = DimTable(P11, 300)
T113 = DimTable(P113, 8)

G_FIRST0 = CylFunction(1, {(0,): 1.0})


# -- partial-sum oracle -------------------------------------------------------
#
# A second, block-by-block accumulation of the partial sums: the words below
# a word in its tower split, for each level j and each letter c below the
# word's letter there, into the block of words that agree above j and carry
# c at j.  Deep blocks are summed through the vertex sums h_l and the
# convolution rows of conftest; shallow ones are enumerated.


@lru_cache(maxsize=None)
def _words_at(poly: GenPolynomial, length: int):
    """All words of a short length, bucketed by vertex index."""
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for w in product(range(poly.alphabet_size), repeat=length):
        buckets.setdefault(kappa(w, poly), []).append(w)
    return buckets


@lru_cache(maxsize=None)
def _row(coeffs, n):
    return tuple(poly_power_row(coeffs, n))


def _dim(poly, n, k):
    row = _row(poly.coeffs, n)
    return row[k] if 0 <= k < len(row) else 0


def partial_sum_exact(g: CylFunction, word, poly: GenPolynomial) -> Fraction:
    """Sum of g over the tower's words up to and including the given word."""
    n = len(word)
    N = g.N
    if n < N:
        raise ValueError("word shorter than function rank")
    ks = letter_table(poly).kstep
    hfr = [sum((Fraction(g(w)) for w in _words_at(poly, N).get(l, ())), Fraction(0))
           for l in range(N * poly.degree + 1)]
    kaps = [0]
    for c in word:
        kaps.append(kaps[-1] + ks[c])
    total = Fraction(0)
    for j in range(1, n + 1):
        for c in range(word[j - 1]):
            kbot = kaps[j] - ks[c]
            if kbot < 0 or kbot > (j - 1) * poly.degree:
                continue
            if j - 1 >= N:
                total += sum(hl * _dim(poly, j - 1 - N, kbot - l)
                             for l, hl in enumerate(hfr))
            else:
                tail = (c,) + tuple(word[j:N])
                for v in _words_at(poly, j - 1).get(kbot, ()):
                    total += Fraction(g(v + tail))
    return total + Fraction(g(word[:N]))


def test_cyl_function_basics():
    g = CylFunction(2, {(0, 1): 1.5})
    assert g((0, 1, 0, 0)) == 1.5
    assert g((1, 1)) == 0.0
    with pytest.raises(ValueError):
        g((0,))
    with pytest.raises(ValueError):
        CylFunction(0, {})
    with pytest.raises(ValueError):
        CylFunction(2, {(0, 1, 1): 1.0})


def test_cyl_function_json_round_trip():
    g = CylFunction(2, {(0, 1): 1.5, (4, 0): -2.0})
    text = g.to_json(P113)
    poly, back = CylFunction.from_json(text)
    assert poly == P113
    assert back.values == g.values
    with pytest.raises(ValueError):
        CylFunction.from_json(text, P11)
    bad = json.dumps({"poly": [1, 1], "N": 1, "values": {"7": 1.0}})
    with pytest.raises(ValueError):
        CylFunction.from_json(bad)


@pytest.mark.parametrize("bad", ["1.5", True, False, None, [1.0]])
def test_cyl_function_rejects_non_numbers(bad):
    with pytest.raises(ValueError, match="not a number"):
        CylFunction(1, {(0,): bad})


def test_cyl_function_rejects_ints_past_float_range():
    with pytest.raises(ValueError, match="not finite"):
        CylFunction(1, {(0,): 10 ** 400})


def test_h_coeffs_examples():
    h = h_coeffs(G_FIRST0, P11)
    assert h.values == (0.0, 1.0)
    const = CylFunction.from_table(P113, 1, lambda w: 2.5)
    h = h_coeffs(const, P113)
    assert h.values == tuple(2.5 * T113.dim(1, l) for l in range(3))
    ks = letter_table(P111).kstep
    g = CylFunction(1, {(c,): -float(P111.degree - ks[c]) for c in range(3)})
    assert h_coeffs(g, P111).values == (-2.0, -1.0, 0.0)


def test_tower_total_examples():
    one = CylFunction.from_table(P113, 1, lambda w: 1.0)
    for n in range(1, 7):
        for kap in range(2 * n + 1):
            assert tower_total(h_coeffs(one, P113), n, kap, T113) == T113.dim(n, kap)
    h = h_coeffs(G_FIRST0, P11)
    for n in range(1, 12):
        for kap in range(n + 1):
            assert tower_total(h, n, kap, T11) == T11.dim(n - 1, kap - 1)
    assert tower_total(h, 1, 1, T11) == 1.0   # n = N reduces to h itself


def test_partial_sum_extremes():
    g = CylFunction(2, {(0, 1): 2.0, (1, 0): -1.0})
    for n, kap in ((4, 2), (6, 3)):
        wmin = minimal_word(n, kap, P11)
        wmax = maximal_word(n, kap, P11)
        assert float(partial_sum_exact(g, wmin, P11)) == g(wmin)
        assert float(partial_sum_exact(g, wmax, P11)) == tower_total(h_coeffs(g, P11), n, kap, T11)


@pytest.mark.parametrize("poly,table,g", [
    (P11, T11, G_FIRST0),
    (P11, T11, CylFunction(2, {(0, 1): 1.0, (1, 0): -2.0, (0, 0): 0.5})),
    (P113, T113, CylFunction(1, {(0,): 1.0, (3,): -1.0})),
    (P113, T113, CylFunction(2, {(0, 4): 1.0, (2, 2): 3.0})),
])
def test_partial_sum_matches_brute(poly, table, g):
    for n in range(g.N, 6):
        for kap in range(n * poly.degree + 1):
            sums = brute_tower_sums(g, n, kap, table)
            for j, w in enumerate(iter_tower(n, kap, poly), 1):
                assert float(partial_sum_exact(g, w, poly)) == pytest.approx(sums[j - 1], abs=1e-12)


def test_brute_tower_sums_properties():
    zero = CylFunction(1, {})
    assert brute_tower_sums(zero, 5, 2, T11) == [0.0] * T11.dim(5, 2)
    sums = brute_tower_sums(G_FIRST0, 7, 3, T11)
    assert sums[-1] == tower_total(h_coeffs(G_FIRST0, P11), 7, 3, T11)
    with pytest.raises(CapacityError):
        brute_tower_sums(G_FIRST0, 30, 15, T11, cap=10)


def test_node_grid_examples():
    nodes = node_grid(6, 3, 0, T11)
    assert len(nodes) == 1 and nodes[0][1] == 1
    assert nodes[0][2] == minimal_word(6, 3, P11)
    nodes = node_grid(4, 2, 4, T11)
    assert [L for _, L, _ in nodes] == [1, 2, 3, 4, 5, 6]
    assert [w for _, _, w in nodes] == tower_words_sorted(P11, 4, 2)
    # representative words actually have the stated rank
    for _, L, w in node_grid(6, 8, 3, T113):
        assert rank(w, P113) == L


def test_node_grid_converges_to_stationary_points():
    pts = stationary_points(measure_params(P11, 0.5), 3)
    n, kap = 200, 100
    H = T11.dim(n, kap)
    for _, L, _ in node_grid(n, kap, 3, T11):
        assert min(abs(L / H - s) for s in pts) <= 0.01


def test_fluctuation_curve_shape():
    c = fluctuation_curve(G_FIRST0, 12, 6, 4, T11)
    assert c.xs[0] == 0.0 and c.ys[0] == 0.0
    assert c.xs[-1] == 1.0 and c.ys[-1] == 0.0
    assert all(b > a for a, b in zip(c.xs, c.xs[1:]))
    assert max(abs(y) for y in c.ys) == 1.0
    assert c.R > 0


def test_fluctuation_curve_degenerate_for_constants():
    const = CylFunction.from_table(P11, 1, lambda w: 3.25)
    with pytest.raises(DegenerateCurve):
        fluctuation_curve(const, 10, 5, 4, T11)


def test_fluctuation_invariances():
    g_plus = CylFunction(1, {(0,): 1.0 + 7.5, (1,): 7.5})   # g + constant
    base = fluctuation_curve(G_FIRST0, 12, 6, 4, T11)
    shifted = fluctuation_curve(g_plus, 12, 6, 4, T11)
    assert shifted.xs == base.xs and shifted.ys == base.ys
    scaled = fluctuation_curve(CylFunction(1, {(0,): 2.0}), 12, 6, 4, T11)
    assert scaled.ys == base.ys and scaled.R == pytest.approx(2 * base.R)
    negated = fluctuation_curve(CylFunction(1, {(0,): -1.0}), 12, 6, 4, T11)
    assert negated.ys == tuple(-y for y in base.ys)


def test_depth_refinement_orders_distances():
    # coarser grids sit farther from the deep grid, per the exponential decay
    n, kap = 120, 60
    c6 = fluctuation_curve(G_FIRST0, n, kap, 6, T11)
    d4 = sup_distance(fluctuation_curve(G_FIRST0, n, kap, 4, T11), c6)
    d5 = sup_distance(fluctuation_curve(G_FIRST0, n, kap, 5, T11), c6)
    assert d5 <= d4


def test_sup_distance_metric():
    c = fluctuation_curve(G_FIRST0, 12, 6, 4, T11)
    neg = PolygonalCurve(c.xs, tuple(-y for y in c.ys), c.R, c.n, c.kappa, c.depth)
    assert sup_distance(c, c) == 0.0
    assert sup_distance(c, neg) == pytest.approx(2.0)
    rng = random.Random(4)
    curves = []
    for _ in range(3):
        xs = (0.0,) + tuple(sorted(rng.random() for _ in range(5))) + (1.0,)
        ys = tuple(rng.uniform(-1, 1) for _ in range(7))
        curves.append(PolygonalCurve(xs, ys, 1.0, 0, 0, 0))
    a, b, c3 = curves
    assert sup_distance(a, b) == pytest.approx(sup_distance(b, a))
    assert sup_distance(a, c3) <= sup_distance(a, b) + sup_distance(b, c3) + 1e-12


def test_curve_value_interpolates():
    c = PolygonalCurve((0.0, 0.5, 1.0), (0.0, 1.0, 0.0), 1.0, 0, 0, 0)
    assert curve_value(c, 0.25) == pytest.approx(0.5)
    assert curve_value(c, -1.0) == 0.0
    assert curve_value(c, 2.0) == 0.0


def test_stabilizing_candidates_basics():
    # minimal-direction path of a system with two top-step letters: the rank
    # fraction decays geometrically, so every deep level qualifies
    poly = GenPolynomial((1, 2))
    table = DimTable(poly, 24)
    x = PathPrefix((0,) * 24)
    cands = [n for n, _ in _stabilizing_levels(x, table, 0.1, 0.0, 24)]
    assert set(cands) == set(range(4, 25))
    # eps = 1, delta = 0 accepts every level the prefix is not maximal at
    mp = measure_params(P11, 0.5)
    y = PathPrefix((), extend=letter_stream(mp, 1), max_level=40)
    cands = [n for n, _ in _stabilizing_levels(y, table=T11, eps=1.0, delta=0.0,
                                                n_max=40)]
    expected = [n for n, kap, rnk in
                [(n, kappa(y.prefix(n), P11), rank(y.prefix(n), P11))
                 for n in range(1, 41)]
                if rnk < T11.dim(n, kap)]
    assert cands == expected
    with pytest.raises(ValueError):
        [n for n, _ in _stabilizing_levels(y, T11, 0.0, 0.0, 10)]
    with pytest.raises(ValueError):
        [n for n, _ in _stabilizing_levels(y, T11, 0.5, 0.3, 10)]


def test_stabilizing_candidates_delta_band():
    x = PathPrefix((0,) * 20)         # kappa = n at every level: ratio 1
    cands = [n for n, _ in _stabilizing_levels(x, T11, 1.0, 0.1, 20)]
    assert cands == []


def _levels_by_fractions(x, poly, eps, delta, n_max):
    """The level test in Fractions: rank/H < eps, delta <= kappa/(n d) <= 1 - delta."""
    table, d = DimTable(poly), poly.degree
    eps, delta = Fraction(eps), Fraction(delta)
    return [(n, kap) for n, kap, rnk in prefix_walk(x, table, n_max)
            if Fraction(rnk, table.dim(n, kap)) < eps
            and (d == 0 or delta <= Fraction(kap, n * d) <= 1 - delta)]


@settings(max_examples=300, deadline=None)
@given(coeffs=st.sampled_from([(3,), (1, 1), (1, 1, 2), (1, 1, 3)]),
       data=st.data(),
       eps=st.one_of(st.sampled_from([1.0, 0.5, 0.25, 0.125]),
                     st.floats(0.0, 1.0, exclude_min=True)),
       delta=st.one_of(st.sampled_from([0.0, 0.125]),
                       st.floats(0.0, 0.25, exclude_max=True)),
       depth=st.integers(0, 3))
def test_stabilizing_levels_equal_the_fraction_test(coeffs, data, eps, delta, depth):
    # dyadic eps and delta are met exactly at small levels, where an
    # off-by-one comparison shows
    poly = GenPolynomial(coeffs)
    word = tuple(data.draw(st.lists(st.integers(0, poly.alphabet_size - 1),
                                    max_size=24)))
    levels = list(_stabilizing_levels(word, path_column(word, poly, depth),
                                      eps, delta, len(word)))
    assert levels == _levels_by_fractions(word, poly, eps, delta, len(word))


def test_stabilizing_recurrence_for_random_paths():
    mp = measure_params(P11, 0.4)
    table = DimTable(P11, 400)
    hits = 0
    for seed in range(100):
        x = PathPrefix((), extend=letter_stream(mp, seed), max_level=400)
        if [n for n, _ in _stabilizing_levels(x, table, 0.1, 0.0, 400)]:
            hits += 1
    assert hits >= 95


def test_extract_limiting_curve_converges_and_diagnoses():
    mp = measure_params(P11, 0.5)
    x = PathPrefix((), extend=letter_stream(mp, 2), max_level=300)
    curve, diag = extract_limiting_curve(G_FIRST0, x, P11, eps=0.1, delta=0.1,
                                         m=6, tol=0.05, n_max=300, mp=mp)
    assert diag["converged_at"] == curve.n
    assert diag["distances"][-1] < 0.05
    assert len(diag["levels"]) == len(diag["distances"]) + 1


def test_extract_limiting_curve_failure_modes():
    mp = measure_params(P11, 0.5)
    x = PathPrefix((), extend=letter_stream(mp, 2), max_level=100)
    with pytest.raises(NoConvergence) as err:
        extract_limiting_curve(G_FIRST0, x, P11, eps=0.1, delta=0.1, m=5,
                               tol=1e-9, n_max=100, mp=mp)
    assert err.value.distances
    const = CylFunction.from_table(P11, 1, lambda w: 1.0)
    y = PathPrefix((), extend=letter_stream(mp, 2), max_level=100)
    with pytest.raises(DegenerateCurve):
        extract_limiting_curve(const, y, P11, eps=0.9, delta=0.0, m=4,
                               tol=0.05, n_max=60)


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_extract_limiting_curve_rejects_bad_tol_before_walking(tol):
    def unread():
        raise AssertionError("the walk read the path")
        yield
    x = PathPrefix((), extend=unread(), max_level=100)
    with pytest.raises(ValueError, match="need tol >= 0"):
        extract_limiting_curve(G_FIRST0, x, P11, tol=tol, n_max=100)


def test_extract_limiting_curve_refuses_a_measure_of_another_polynomial():
    mp = measure_params(P112, 0.25)
    x = PathPrefix((), extend=letter_stream(measure_params(P11, 0.5), 2),
                   max_level=300)
    with pytest.raises(ValueError, match="does not match"):
        extract_limiting_curve(G_FIRST0, x, P11, mp=mp)


@pytest.mark.parametrize("word", [(3,), (-1,), (0, 2)])
def test_letters_outside_the_alphabet_name_the_word(word):
    # the first letter of the word outside 0..1, as paths._check_letters names it
    g = CylFunction(len(word), {word: 1.0})
    bad = next(c for c in word if c not in (0, 1))
    named = f"^{re.escape(f'letter {bad} outside the alphabet 0..1')}$"
    with pytest.raises(ValueError, match=named):
        fluctuation_curve(g, 20, 10, 4, T11)
    with pytest.raises(ValueError, match=named):
        cohomology_verdict(g, T11, 12)
    x = PathPrefix((), extend=letter_stream(measure_params(P11, 0.5), 2),
                   max_level=300)
    with pytest.raises(ValueError, match=named):
        extract_limiting_curve(g, x, P11)


def test_central_vertex_and_measure_ray():
    assert central_vertex(T11, 10) == 5
    assert central_vertex(T11, 11) == 5       # lowest index on ties
    mp = measure_params(P11, 0.5)
    assert measure_ray(mp, 100) == 50
    mp = measure_params(P111, 0.25)
    assert measure_ray(mp, 100) == 117


def test_cohomology_verdicts():
    # one vertex per level: every cylindric function averages out
    p3 = GenPolynomial((3,))
    t3 = DimTable(p3, 14)
    rng = random.Random(7)
    for _ in range(3):
        g = CylFunction(2, {(a, b): rng.randint(-3, 3) * 0.5
                            for a in range(3) for b in range(3)})
        verdict, series = cohomology_verdict(g, t3, 12, m=3)
        assert verdict == "BOUNDED"
    verdict, series = cohomology_verdict(G_FIRST0, T11, 36, m=4)
    assert verdict == "UNBOUNDED"
    values = [v for _, v in series]
    assert all(b >= a for a, b in zip(values[18:], values[19:]))
    # difference of the same indicator at two coordinates telescopes away
    tele = CylFunction(2, {(0, 1): 1.0, (1, 0): -1.0})
    verdict, series = cohomology_verdict(tele, T11, 20, m=4)
    assert verdict == "BOUNDED"


def test_cohomology_verdict_inconclusive():
    # at depth 0 the tail of the series is neither flat nor nondecreasing
    assert cohomology_verdict(G_FIRST0, DimTable(P11), 3, 0) == (
        "INCONCLUSIVE", [(1, 0.0), (2, 0.5), (3, 0.3333333333333333)])
    assert cohomology_verdict(G_FIRST0, DimTable(P11), 10, 0)[0] == "INCONCLUSIVE"


def test_cohomology_verdict_admits_its_table_before_level_one(monkeypatch):
    # a constant g keeps R at 0, so only the entry budget can end the run; a
    # cut budget keeps short any build of levels before the refusal
    monkeypatch.setattr(poly_module, "DEFAULT_ENTRY_BUDGET", 10_000)
    table = DimTable(P11)
    g = CylFunction(1, {(0,): 1.0, (1,): 1.0})
    with pytest.raises(CapacityError) as exc:
        cohomology_verdict(g, table, 3000)
    assert str(exc.value) == ("table with n_max=3000, degree=1 needs 4504501 entries, "
                              "budget is 10000")
    assert table.n_max == 0


@pytest.mark.parametrize("call, error, text", [
    (lambda: CylFunction.from_table(P113, 10, lambda w: 1.0), CapacityError,
     "5^10 words exceed tabulation budget"),
    (lambda: tower_total(h_coeffs(CylFunction(2, {(0, 1): 1.0}), P11), 1, 0, T11), ValueError,
     "n must be an integer >= 2, got 1"),
    (lambda: fluctuation_curve(G_FIRST0, 12, 6, 11, DimTable(GenPolynomial((1,) * 5), 12)),
     CapacityError, "5^11 top words exceed grid budget"),
    (lambda: node_grid(5, 2, 6, T11), ValueError, "n must be an integer >= 6, got 5"),
    (lambda: _grid_numerators(G_FIRST0, 6, 3, 6, T11), ValueError, "need depth m <= n - N = 5"),
    (lambda: _grid_numerators(G_FIRST0, 6, 9, 2, T11), ValueError, "empty tower at (6, 9)"),
    (lambda: DimTable(P11, -1), ValueError, "n_max must be an integer >= 0, got -1"),
    (lambda: minimal_word(-1, 0, P11), ValueError, "n must be an integer >= 0, got -1"),
], ids=["tabulation", "tower-rank", "grid-words", "node-depth", "grid-depth", "empty-tower",
        "table-level", "word-level"])
def test_refusals_name_their_reason_in_full(call, error, text):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == text


def test_partial_sum_exact_is_rational():
    from fractions import Fraction
    g = CylFunction(2, {(0, 1): 1.0, (1, 1): -3.0})
    val = partial_sum_exact(g, (0, 1, 1, 0, 1), P11)
    assert isinstance(val, Fraction)


def test_float_range_is_a_capacity_error_at_n1600():
    # Pascal heights and R pass float range near n = 1040 while the
    # numerators stay exact; each float conversion names the level instead.
    table = DimTable(P11, 1600)
    with pytest.raises(CapacityError, match="level 1600"):
        fluctuation_curve(G_FIRST0, 1600, 800, 4, table)
    with pytest.raises(CapacityError, match="level 1600"):
        tower_total(h_coeffs(G_FIRST0, P11), 1600, 800, table)
    with pytest.raises(CapacityError, match=r"level \d+ exceeds float range"):
        cohomology_verdict(G_FIRST0, table, 1600, m=4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_cyl_function_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="not finite"):
        CylFunction(1, {(0,): bad})
    text = json.dumps({"poly": [1, 1], "N": 1, "values": {"0": bad}})
    with pytest.raises(ValueError, match="not finite"):
        CylFunction.from_json(text)


def test_vertex_sums_past_float_range_end_in_capacity_errors():
    # h_l is an exact sum, so two values near the float maximum add up;
    # only the float conversions that need the sum can fail, naming the level
    g = CylFunction(2, {(0, 1): 1.7e308, (1, 0): 1.7e308})
    assert h_coeffs(g, P11).values == (0, 2 * Fraction(1.7e308), 0)
    assert fluctuation_curve(g, 6, 3, 2, T11).R == 1.7e308
    with pytest.raises(CapacityError, match="tower total at level 6 exceeds float range"):
        tower_total(h_coeffs(g, P11), 6, 3, T11)
    with pytest.raises(CapacityError, match="R at level 5 exceeds float range"):
        cohomology_verdict(g, T11, 8)


def test_vertex_sums_keep_values_past_53_bits():
    # 2^60 + 1 is not a float: the grid numerators and partial sums are
    # exact only if h_l is summed exactly
    g = CylFunction(2, {(0, 1): 2.0 ** 60, (1, 0): 1.0})
    n, kap = 6, 3
    words = tower_words_sorted(P11, n, kap)
    F = list(accumulate((Fraction(g(w)) for w in words), initial=Fraction(0)))
    H = len(words)
    assert h_coeffs(g, P11).values == (0, 2 ** 60 + 1, 0)
    grid_H, nodes = _grid_numerators(g, n, kap, 2, T11)
    assert grid_H == H and len(nodes) == 4
    for L, num in nodes:
        assert num == H * F[L] - L * F[H]
    for L, w in enumerate(words, 1):
        assert partial_sum_exact(g, w, P11) == F[L]


def test_extract_limiting_curve_reads_no_dense_row(built_tables):
    mp = measure_params(P11, 0.5)

    def extract():
        x = PathPrefix((), extend=letter_stream(mp, 2), max_level=300)
        return x, extract_limiting_curve(G_FIRST0, x, P11, m=6, n_max=300, mp=mp)

    x, (curve, diag) = extract()
    assert (curve, diag) == extract()[1]
    # the walk stops pulling path letters once it converges
    assert len(x) == diag["converged_at"] < 300
    # and reads a column along the path, never a dense table ...
    assert built_tables == []
    # ... whose rows give the same curve
    assert curve == fluctuation_curve(G_FIRST0, curve.n, curve.kappa, 6, T11)


def test_extract_limiting_curve_past_the_table_budget(built_tables):
    mp = measure_params(P112, 0.25)
    g = CylFunction(1, {(2,): -1.0, (3,): -2.0})
    with mock.patch("polyadic.poly.DEFAULT_ENTRY_BUDGET", 10):
        tiny = DimTable(P112, 1)
        with pytest.raises(CapacityError):
            tiny.row(300)
        x = PathPrefix((), extend=letter_stream(mp, 2), max_level=300)
        curve, diag = extract_limiting_curve(g, x, P112, m=6, n_max=300, mp=mp)
    assert built_tables == [tiny]       # the walk builds no table of its own
    dense = fluctuation_curve(g, curve.n, curve.kappa, 6, DimTable(P112, curve.n))
    assert curve == dense and diag["converged_at"] == curve.n


def test_curve_value_of_nan_is_nan():
    c = PolygonalCurve((0.0, 0.5, 1.0), (0.0, 1.0, 0.0), 1.0, 0, 0, 0)
    assert math.isnan(curve_value(c, float("nan")))
