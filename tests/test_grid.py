"""The level-by-level integer grid against the enumerate-all-blocks oracle in conftest."""

import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (reference_curve_value, reference_grid,
                      reference_node_grid, reference_top_blocks)
from polyadic import (CylFunction, DegenerateCurve, DimTable, GenPolynomial,
                      PathPrefix, PolygonalCurve,
                      cohomology_verdict, curve_value, extract_limiting_curve,
                      fluctuation_curve, kappa, letter_stream, letter_table,
                      measure_params, node_grid, sup_distance)
from polyadic.ergodic import _dyadic_bits, _grid_numerators
from polyadic.paths import path_column
from polyadic.poly import PathColumn


def assert_grid_matches(g, n, kap, m, table):
    """Numerators over 2^s equal the oracle's Fractions, node for node in rank order."""
    H, nodes = _grid_numerators(g, n, kap, m, table)
    ref_H, ref = reference_grid(g, n, kap, m, table)
    assert H == ref_H
    assert [L for L, _ in nodes] == [L for L, _ in ref]
    assert all(type(num) is int for _, num in nodes)
    scale = 1 << _dyadic_bits(g.values.values())
    assert [Fraction(num, scale) for _, num in nodes] == [num for _, num in ref]
    return H, ref


def assert_curve_matches(g, n, kap, m, table):
    """The curve is the oracle's Fraction construction, rounded once per value."""
    H, ref = assert_grid_matches(g, n, kap, m, table)
    if all(num == 0 for _, num in ref):
        with pytest.raises(DegenerateCurve):
            fluctuation_curve(g, n, kap, m, table)
        return
    R = max(abs(num) for _, num in ref) / H
    xs, ys = [0.0], [0.0]
    for L, num in ref:
        if L / H > xs[-1]:
            xs.append(L / H)
            ys.append(float(num / H / R))
    if xs[-1] < 1.0:
        xs.append(1.0)
        ys.append(0.0)
    curve = fluctuation_curve(g, n, kap, m, table)
    assert (curve.xs, curve.ys, curve.R) == (tuple(xs), tuple(ys), float(R))


def _protocol_levels(coeffs, q, g, m=6, n_max=300, seed=2):
    """Levels (and vertices) the A7/A8 extraction visits on its sampled path."""
    poly = GenPolynomial(coeffs)
    table = DimTable(poly, n_max)
    mp = measure_params(poly, q)
    x = PathPrefix((), extend=letter_stream(mp, seed), max_level=n_max)
    _, diag = extract_limiting_curve(g, x, poly, eps=0.1, delta=0.1, m=m,
                                     tol=0.05, n_max=n_max, mp=mp)
    return table, [(n, kappa(x.prefix(n), poly)) for n in diag["levels"]]


def test_a7_tower_grids_match_reference():
    g = CylFunction(1, {(0,): 1.0})
    table, levels = _protocol_levels((1, 1), 0.5, g)
    assert len(levels) >= 2
    for n, kap in levels:
        assert_curve_matches(g, n, kap, 6, table)


def test_a8_tower_grids_match_reference():
    poly = GenPolynomial((1, 1, 1))
    ks = letter_table(poly).kstep
    g = CylFunction(1, {(c,): -float(poly.degree - ks[c]) for c in range(3)})
    table, levels = _protocol_levels((1, 1, 1), 0.25, g)
    assert len(levels) >= 2
    for n, kap in levels:
        assert_curve_matches(g, n, kap, 6, table)


@pytest.mark.parametrize("g", [
    CylFunction(1, {(0,): 1.0}),
    CylFunction(2, {(0, 0): 1.0, (1, 1): -1.0}),
    CylFunction(2, {(0, 1): 2.0, (1, 0): 1.0, (0, 0): -1.0}),
])
def test_a12_towers_full_depth(g):
    table = DimTable(GenPolynomial((1, 1)), 14)
    for n in range(g.N + 1, 13):
        for kap in range(n + 1):
            assert node_grid(n, kap, n - g.N, table) == \
                reference_node_grid(n, kap, n - g.N, table)
            assert_grid_matches(g, n, kap, n - g.N, table)


POOL = [(1, 1), (2, 1), (1, 2), (1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 1, 3)]


@pytest.mark.parametrize("coeffs", POOL)
def test_node_grid_matches_reference(coeffs):
    poly = GenPolynomial(coeffs)
    table = DimTable(poly, 7)
    r, d = poly.alphabet_size, poly.degree
    for n in range(8):
        for m in range(n + 1):
            if r ** m > 3000:
                break
            for kap in range(n * d + 1):
                assert node_grid(n, kap, m, table) == reference_node_grid(n, kap, m, table)
            assert node_grid(n, -1, m, table) == node_grid(n, n * d + 1, m, table) == []


_DYADIC = st.one_of(
    st.integers(-7, 7).flatmap(
        lambda k: st.integers(-70, 30).map(lambda e: k * 2.0 ** e)),
    st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(coeffs=st.sampled_from(POOL), data=st.data())
def test_grid_matches_reference_on_drawn_functions(coeffs, data):
    poly = GenPolynomial(coeffs)
    r, d = poly.alphabet_size, poly.degree
    N = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(0, 6).filter(lambda m: r ** m <= 1024))
    n = N + m + data.draw(st.integers(0, 12))
    kap = data.draw(st.integers(0, n * d))
    words = [tuple(w) for w in data.draw(st.lists(
        st.lists(st.integers(0, r - 1), min_size=N, max_size=N), max_size=6))]
    g = CylFunction(N, {w: data.draw(_DYADIC) for w in words})
    table = DimTable(poly, n)
    assert_curve_matches(g, n, kap, m, table)


@settings(max_examples=100, deadline=None)
@given(coeffs=st.lists(st.integers(1, 2), min_size=2, max_size=4), data=st.data())
def test_column_grids_match_dense_grids_along_a_path(coeffs, data):
    poly = GenPolynomial(tuple(coeffs))
    r = poly.alphabet_size
    x = tuple(data.draw(st.lists(st.integers(0, r - 1), min_size=30, max_size=60)))
    N = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(0, 4))
    words = [tuple(w) for w in data.draw(st.lists(
        st.lists(st.integers(0, r - 1), min_size=N, max_size=N), max_size=6))]
    g = CylFunction(N, {w: data.draw(_DYADIC) for w in words})
    table = DimTable(poly, len(x))
    column = path_column(x, poly, m + N)
    for n in range(m + N, len(x) + 1):  # upward: the column keeps m + N + 1 levels
        kap = kappa(x[:n], poly)
        assert _grid_numerators(g, n, kap, m, column) == \
            _grid_numerators(g, n, kap, m, table)


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 2), (2, 1, 1, 1)])
def test_grid_numerators_read_each_block_size_once(coeffs):
    # N = 1 < m: the other reads, H at level n, F(H) at n - 1 and the block
    # sums at n - m - 1, stay off level n - m, where only block sizes are read
    poly = GenPolynomial(coeffs)
    r = poly.alphabet_size
    rng = random.Random(20)
    x = tuple(rng.randrange(r) for _ in range(24))
    g = CylFunction(1, {(0,): 1.0, (r - 1,): -0.5})
    table = DimTable(poly, len(x))
    reads = Counter()
    dim = PathColumn.dim

    def counted(self, n, k):
        reads[n, k] += 1
        return dim(self, n, k)

    for m in (2, 3, 4):
        column = path_column(x, poly, m + g.N)
        for n in range(m + g.N, len(x) + 1):
            kap = kappa(x[:n], poly)
            reads.clear()
            with mock.patch.object(PathColumn, "dim", counted):
                _grid_numerators(g, n, kap, m, column)
            kbs = {kb for _, kb, _, _ in reference_top_blocks(n, kap, m, table)}
            assert kbs
            assert {k: c for (L, k), c in reads.items() if L == n - m} == \
                dict.fromkeys(kbs, 1)


def test_cohomology_series_is_the_exact_ratio_rounded_once():
    poly = GenPolynomial((1, 1))
    table = DimTable(poly, 40)
    g = CylFunction(2, {(0, 1): 0.375, (1, 1): -1.5, (0, 0): 2.0 ** -40})
    _, series = cohomology_verdict(g, table, 40, m=4)
    for n, R in series:
        kap = max(range(n + 1), key=lambda k: (table.dim(n, k), -k))
        H, ref = reference_grid(g, n, kap, min(4, n - g.N), table)
        assert R == float(max(abs(num) for _, num in ref) / H)


def _random_curves(rng, count):
    for _ in range(count):
        size = rng.randint(2, 12)
        xs = sorted(rng.random() for _ in range(size - 2))
        if xs and rng.random() < 0.3:
            i = rng.randrange(len(xs))
            xs.insert(i, xs[i])                     # repeated node
        xs = [0.0] + xs + [1.0]
        ys = [0.0] + [rng.uniform(-1, 1) for _ in range(len(xs) - 2)] + [0.0]
        yield PolygonalCurve(tuple(xs), tuple(ys), 1.0, 0, 0, 0)


def test_curve_value_matches_reference_bisection():
    rng = random.Random(20170125)
    for curve in _random_curves(rng, 300):
        points = list(curve.xs) + [-0.5, -0.0, 1.5, 1.0 + 2 ** -52, -1e-300]
        points += [rng.uniform(-0.2, 1.2) for _ in range(20)]
        points += [(a + b) / 2 for a, b in zip(curve.xs, curve.xs[1:])]
        for x in points:
            assert curve_value(curve, x) == reference_curve_value(curve.xs, curve.ys, x)
    c = fluctuation_curve(CylFunction(1, {(0,): 1.0}), 40, 20, 5,
                          DimTable(GenPolynomial((1, 1)), 40))
    for x in c.xs + tuple(i / 97 for i in range(98)):
        assert curve_value(c, x) == reference_curve_value(c.xs, c.ys, x)


def test_sup_distance_matches_reference_on_the_union_grid():
    rng = random.Random(6)
    curves = list(_random_curves(rng, 120))
    # curves on a sub-interval take the merge through both outer branches
    curves += [PolygonalCurve(tuple(0.2 + 0.6 * x for x in c.xs), c.ys, 1.0, 0, 0, 0)
               for c in curves[:40]]
    table = DimTable(GenPolynomial((1, 1, 2)), 90)
    g = CylFunction(1, {(2,): -1.0, (3,): -2.0})
    curves += [fluctuation_curve(g, n, n, 5, table) for n in (60, 61, 90)]
    for a, b in zip(curves, curves[1:]):
        grid = sorted(set(a.xs) | set(b.xs))
        assert sup_distance(a, b) == max(
            abs(reference_curve_value(a.xs, a.ys, x) - reference_curve_value(b.xs, b.ys, x))
            for x in grid)


def test_sup_distance_on_shared_nodes_matches_reference():
    # Curves sharing all, some or none of their interior nodes take the merge
    # through its equal-x branch as well as through each curve's own nodes.
    rng = random.Random(19)
    for _ in range(200):
        base = sorted(rng.random() for _ in range(rng.randint(1, 12)))
        keep = rng.choice((1.0, 0.5, 0.0))
        shared = [x for x in base if rng.random() < keep]
        other = sorted(shared + [rng.random() for _ in range(rng.randint(0, 8))])
        # the second curve spans [0, 1] or lies inside the first one's span
        lo, hi = (0.0, 1.0) if rng.random() < 0.7 else (0.05, 0.95)
        other = [x for x in other if lo < x < hi]
        if other and rng.random() < 0.3:
            i = rng.randrange(len(other))
            other.insert(i, other[i])               # repeated node
        curves = [PolygonalCurve(tuple(xs), tuple(rng.uniform(-1, 1) for _ in xs),
                                 1.0, 0, 0, 0)
                  for xs in ([0.0, *base, 1.0], [lo, *other, hi])]
        for c1, c2 in (curves, curves[::-1]):
            grid = sorted(set(c1.xs) | set(c2.xs))
            assert sup_distance(c1, c2) == max(
                abs(reference_curve_value(c1.xs, c1.ys, x)
                    - reference_curve_value(c2.xs, c2.ys, x)) for x in grid)
