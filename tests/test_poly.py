import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly_power_row, poly_power_rows, reference_store_dim
from polyadic import CapacityError, DimTable, GenPolynomial, letter_table, poly, prefix_walk
from polyadic.measure import fixed_coder
from polyadic.paths import path_column
from polyadic.poly import (_BIT_BUDGET, PathColumn, VertexCone, VertexDescent, _cone_bits,
                           _cone_entries, _descent_entries, _table_entries)


def read_run(source, n, k):
    """{k': C(n, k')} over the run of level n that ``source.dim`` answers around k.

    The run is read outwards from k, which must be held, and stops at a
    KeyError or at an end of the row [0, n*d]; so its extent is the held
    window's, shown by the values inside and the KeyError just outside.
    """
    top = n * source.poly.degree
    run = {k: source.dim(n, k)}
    for outwards in (range(k - 1, -1, -1), range(k + 1, top + 1)):
        for j in outwards:
            try:
                run[j] = source.dim(n, j)
            except KeyError:
                break
    return run


def test_parse_and_validation():
    assert GenPolynomial.parse("1, 1,3").coeffs == (1, 1, 3)
    assert GenPolynomial((2,)).degree == 0
    assert GenPolynomial((1, 1, 3)).alphabet_size == 5
    with pytest.raises(ValueError):
        GenPolynomial((1, 0, 2))
    with pytest.raises(ValueError):
        GenPolynomial(())
    with pytest.raises(ValueError):
        GenPolynomial.parse("1,x")
    # fields are split on commas and stripped; each must be ASCII digits
    for text in ["1 1", "1 1,3", "1,,1", "1,1,", "", "\u0661,1", "+1,1", "1_0,1"]:
        with pytest.raises(ValueError, match="bad coefficient list"):
            GenPolynomial.parse(text)


@pytest.mark.parametrize("coeffs", [(True, 2), (1, 2.7), (1.0, 1), ("1", 2), (1, None)])
def test_coefficients_must_be_ints(coeffs):
    with pytest.raises(ValueError):
        GenPolynomial(coeffs)


def test_pascal_row():
    table = DimTable(GenPolynomial((1, 1)), 4)
    assert table.row(4) == (1, 4, 6, 4, 1)


def test_known_entries():
    t113 = DimTable(GenPolynomial((1, 1, 3)), 3)
    assert t113.dim(2, 2) == 7
    assert t113.dim(2, 4) == 9
    assert t113.dim(3, 0) == 1
    assert DimTable(GenPolynomial((1, 1)), 4).dim(4, 2) == 6
    assert DimTable(GenPolynomial((2, 1)), 2).dim(2, 0) == 4


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 1, 3), (2, 3, 1), (1,), (3,),
                                    (2, 1, 1, 2), (7, 1, 5)])
def test_rows_match_convolution_oracle(coeffs):
    table = DimTable(GenPolynomial(coeffs), 30)
    for n in range(31):
        assert list(table.row(n)) == poly_power_row(coeffs, n)


def test_reflected_dim():
    t113 = DimTable(GenPolynomial((1, 1, 3)), 2)
    # indexed from the other end: C(n, n*d - k1)
    d = t113.poly.degree
    assert t113.dim(2, 2 * d - 0) == t113.dim(2, 4) == 9
    assert t113.dim(0, 0 * d - 0) == 1
    t11 = DimTable(GenPolynomial((1, 1)), 4)
    assert t11.dim(4, 4 * t11.poly.degree - 1) == t11.dim(4, 3) == 4


def test_out_of_range_is_zero_and_level_errors():
    table = DimTable(GenPolynomial((1, 2)), 5)
    assert table.dim(3, -1) == 0
    assert table.dim(3, 4) == 0
    # a level above n_max grows the table
    assert table.dim(6, 0) == 1 and table.n_max == 6
    assert list(table.row(7)) == poly_power_row((1, 2), 7) and table.n_max == 7
    with pytest.raises(ValueError):
        table.dim(-1, 0)
    with pytest.raises(ValueError):
        table.row(-1)


@pytest.mark.parametrize("coeffs", [(1, 1), (3,), (1, 1, 3), (2, 1, 1, 2)])
def test_recursion_and_row_sums(coeffs):
    poly = GenPolynomial(coeffs)
    table = DimTable(poly, 12)
    r = poly.alphabet_size
    for n in range(1, 13):
        assert sum(table.row(n)) == r ** n
        for k in range(n * poly.degree + 1):
            assert table.dim(n, k) == sum(
                a * table.dim(n - 1, k - j) for j, a in enumerate(coeffs))


def test_vandermonde_exhaustive_small():
    poly = GenPolynomial((1, 1, 3))
    table = DimTable(poly, 10)
    for n in range(11):
        for N in range(n + 1):
            for k in range(n * poly.degree + 1):
                assert table.dim(n, k) == sum(
                    table.dim(N, l) * table.dim(n - N, k - l)
                    for l in range(N * poly.degree + 1))


def test_weighted_identity_integer_cleared():
    poly = GenPolynomial((2, 1, 3))
    table = DimTable(poly, 20)
    for n in range(1, 21):
        for k in range(n * poly.degree + 1):
            lhs = n * sum(a * i * table.dim(n - 1, k - i)
                          for i, a in enumerate(poly.coeffs) if i >= 1)
            assert lhs == k * table.dim(n, k)
            # per-term consequence for each positive step
            for i, a in enumerate(poly.coeffs):
                if i >= 1:
                    assert n * a * i * table.dim(n - 1, k - i) <= k * table.dim(n, k)


def test_extend_is_append_only():
    table = DimTable(GenPolynomial((1, 2)), 3)
    row3 = table.row(3)
    table.extend(8)
    assert table.row(3) == row3
    assert table.n_max == 8


def test_capacity_budget(monkeypatch):
    monkeypatch.setattr(poly, "DEFAULT_ENTRY_BUDGET", 50)
    with pytest.raises(CapacityError):
        DimTable(GenPolynomial((1, 1)), 100)
    table = DimTable(GenPolynomial((1, 1)), 3)
    with pytest.raises(CapacityError):
        table.extend(100)


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 1, 3), (2, 3, 1), (3,)])
def test_grown_table_equals_eager_table(coeffs):
    poly = GenPolynomial(coeffs)
    eager = DimTable(poly, 40)
    grown = DimTable(poly)
    assert grown.n_max == 0
    assert grown.dim(25, 3) == eager.dim(25, 3) and grown.n_max == 25
    for n in range(41):
        for k in range(-1, n * poly.degree + 2):
            assert grown.dim(n, k) == eager.dim(n, k)
        assert grown.row(n) == eager.row(n)
    assert grown.n_max == 40


def test_growth_on_demand_keeps_the_budget(monkeypatch):
    monkeypatch.setattr(poly, "DEFAULT_ENTRY_BUDGET", 50)
    table = DimTable(GenPolynomial((1, 1)))
    assert table.dim(8, 4) == 70        # levels 0..8 hold 45 entries
    with pytest.raises(CapacityError):
        table.dim(9, 0)                 # 55 entries
    with pytest.raises(CapacityError):
        table.row(100)
    assert table.n_max == 8


# -- row diagnostics: unimodality and the adjacent-ratio bound ---------------


def is_unimodal(row) -> bool:
    """True if the sequence rises (weakly) to a peak and then falls (weakly)."""
    i = 0
    while i + 1 < len(row) and row[i] <= row[i + 1]:
        i += 1
    while i + 1 < len(row) and row[i] >= row[i + 1]:
        i += 1
    return i == len(row) - 1


def unimodal_start(rows, limit: int = 64):
    """Smallest n1 <= limit with rows n1..len(rows)-1 all unimodal, or None."""
    last_bad = -1
    for n in range(min(limit + 1, len(rows))):
        if not is_unimodal(rows[n]):
            last_bad = n
    for n in range(limit + 1, len(rows)):
        if not is_unimodal(rows[n]):
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


def ratio_constant(rows, n1: int, fit_up_to: int) -> Fraction:
    """Fit C1 with max_adjacent_ratio(row n) <= C1*n on levels n1..fit_up_to.

    The constant is meant to be fitted once on a low window and then asserted
    on every higher level.
    """
    if not 1 <= n1 <= fit_up_to < len(rows):
        raise ValueError("need 1 <= n1 <= fit_up_to <= n_max")
    best = Fraction(0)
    for n in range(n1, fit_up_to + 1):
        best = max(best, max_adjacent_ratio(rows[n]) / n)
    return best


def test_is_unimodal():
    assert is_unimodal([1, 2, 2, 1])
    assert is_unimodal([1])
    assert not is_unimodal([2, 1, 2])


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 1, 3), (3, 1, 2),
                                    (1, 1, 1, 1), (1, 4, 1), (5, 1)])
def test_unimodality_sets_in_and_ratio_bound(coeffs):
    # rows become and stay unimodal early; the adjacent-ratio constant fitted
    # on a low window keeps bounding every higher level
    rows = [poly_power_row(coeffs, n) for n in range(81)]
    n1 = unimodal_start(rows, 64)
    assert n1 is not None and n1 <= 64
    for n in range(max(n1, 1), 81):
        assert is_unimodal(rows[n])
    c1 = ratio_constant(rows, max(n1, 1), 32)
    for n in range(33, 81):
        assert max_adjacent_ratio(rows[n]) <= c1 * n


def test_ratio_constant_argument_checks():
    rows = [poly_power_row((1, 1), n) for n in range(11)]
    with pytest.raises(ValueError):
        ratio_constant(rows, 0, 5)
    with pytest.raises(ValueError):
        ratio_constant(rows, 5, 20)


def test_random_row_sums_against_oracle():
    rng = random.Random(17)
    for _ in range(10):
        coeffs = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        n = rng.randint(1, 9)
        table = DimTable(GenPolynomial(coeffs), n)
        assert list(table.row(n)) == poly_power_row(coeffs, n)


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       depth=st.integers(0, 3), data=st.data())
def test_path_column_windows_equal_the_dense_table(coeffs, depth, data):
    poly = GenPolynomial(tuple(coeffs))
    d = poly.degree
    # A balanced run puts the vertex clear of both row ends; the step 0 then
    # widens the next window to the left, the step d to the right.
    steps = [d, 0] * (2 * depth + 3) + [0, d] + data.draw(
        st.lists(st.integers(0, d), max_size=30))
    column = PathColumn(poly, steps, depth)
    # The oracle is the plain convolution of the tests, not DimTable, which
    # builds its rows with the column's own level builder.
    rows = [poly_power_row(coeffs, n) for n in range(len(steps) + 1)]
    reach = max(depth, 1) * d
    kaps = [0]
    for n, step in enumerate(steps, 1):
        kap = kaps[-1] + step
        kaps.append(kap)
        lo, hi = max(kap - reach, 0), min(kap + reach, n * d)
        assert read_run(column, n, kap) == {k: rows[n][k] for k in range(lo, hi + 1)}
        for k in range(-1, n * d + 2):
            if lo <= k <= hi or not 0 <= k <= n * d:
                assert column.dim(n, k) == (rows[n][k] if 0 <= k <= n * d else 0)
            else:
                with pytest.raises(KeyError):
                    column.dim(n, k)
        # the last depth + 1 levels stay readable, older ones are gone
        for back in range(1, depth + 1):
            if n - back >= 0:
                assert column.dim(n - back, kaps[n - back]) == rows[n - back][kaps[n - back]]
        if n - depth - 1 >= 0:
            with pytest.raises(KeyError):
                column.dim(n - depth - 1, kaps[n - depth - 1])


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       depth=st.integers(0, 4), data=st.data())
def test_path_column_widens_only_the_levels_read_wide(coeffs, depth, data):
    gp = GenPolynomial(tuple(coeffs))
    d = gp.degree
    steps = data.draw(st.lists(st.integers(0, d), min_size=1, max_size=40))
    rows = [poly_power_row(coeffs, n) for n in range(len(steps) + 1)]
    kaps = [0]
    for step in steps:
        kaps.append(kaps[-1] + step)
    reach = max(depth, 1) * d
    sizes, wide = {}, set()
    sideways = poly._sideways

    def counted(a, n, start, vals, lo, hi):
        out = sideways(a, n, start, vals, lo, hi)
        sizes[n] = len(out)         # every entry of level n built so far
        return out

    with mock.patch.object(poly, "_sideways", counted):
        column = PathColumn(gp, steps, depth)
        for n in range(1, len(steps) + 1):
            kap = kaps[n]
            # the reads of a prefix walk and of the level tests, all narrow
            for k in range(kaps[n - 1] - d, kaps[n - 1] + 1):
                assert column.dim(n - 1, k) == (rows[n - 1][k] if k >= 0 else 0)
            assert column.dim(n, kap) == rows[n][kap]
            # wide reads at random kept levels, as a depth-m curve makes them
            for _ in range(data.draw(st.integers(0, 2))):
                L = data.draw(st.integers(max(n - depth, 0), n))
                lo, hi = max(kaps[L] - reach, 0), min(kaps[L] + reach, L * d)
                if data.draw(st.booleans()):
                    run = read_run(column, L, kaps[L])
                    assert run == {k: rows[L][k] for k in range(lo, hi + 1)}
                    wide.add(L)
                else:
                    k = data.draw(st.integers(lo, hi))
                    assert column.dim(L, k) == rows[L][k]
                    if abs(k - kaps[L]) > d:
                        wide.add(L)
    for n in range(1, len(steps) + 1):
        if n not in wide:
            assert sizes[n] <= 2 * d + 1
        else:
            assert sizes[n] <= 2 * reach + 1


def test_path_column_rejects_negative_depth():
    with pytest.raises(ValueError, match="^depth must be an integer >= 0, got -1$"):
        PathColumn(GenPolynomial((1, 1)), [], -1)


def test_a_column_past_the_end_of_its_steps_holds_no_level():
    # a level above the last step is not held: KeyError, not a StopIteration
    # that a generator reading the column would turn into a RuntimeError
    p11 = GenPolynomial((1, 1))
    with pytest.raises(KeyError) as caught:
        PathColumn(p11, [0, 1]).dim(5, 0)
    assert caught.value.args == ((5, 0),)
    column = PathColumn(p11, [0, 1])
    with pytest.raises(KeyError) as caught:
        list(prefix_walk((0, 1, 1, 0), column))
    assert caught.value.args == ((3, 1),)
    assert column.dim(2, 1) == 2        # the levels the steps reach stay


@settings(max_examples=120, deadline=None)
@given(coeffs=st.sampled_from([(1, 1), (1, 2, 1), (1, 1, 3), (2, 1, 1, 2)]),
       depth=st.sampled_from([0, 1, 7]), top_first=st.booleans(),
       runs=st.lists(st.integers(1, 8), min_size=1, max_size=6))
def test_path_column_windows_along_the_row_ends(coeffs, depth, top_first, runs):
    gp = GenPolynomial(coeffs)
    d = gp.degree
    # A run of step 0 keeps kappa, the distance to k = 0, and a run of step d
    # keeps n*d - kappa: the path hugs one end, leaves it for the other, and
    # comes back, as close as the runs before left it.  Short runs keep even
    # the narrow windows on the ends; depth 7 is a curve column's m + N.
    steps = []
    for i, run in enumerate(runs):
        steps += [d if (i % 2 == 0) == top_first else 0] * run
    rows = list(poly_power_rows(coeffs, len(steps)))
    reach = max(depth, 1) * d
    # one column only walks, the other is read wide at every level, so its
    # levels are built from wide levels below
    narrow, wide = PathColumn(gp, steps, depth), PathColumn(gp, steps, depth)
    kap = 0
    for n, step in enumerate(steps, 1):
        kap += step
        top = n * d
        lo, hi = max(kap - d, 0), min(kap + d, top)
        for column in (narrow, wide):
            assert column.dim(n, kap) == rows[n][kap]
            assert column._rows[n] == (lo, rows[n][lo:hi + 1], kap)
        lo, hi = max(kap - reach, 0), min(kap + reach, top)
        assert read_run(wide, n, kap) == {k: rows[n][k] for k in range(lo, hi + 1)}
        assert wide._rows[n] == (lo, rows[n][lo:hi + 1], kap)
        for k in (lo - 1, hi + 1):
            if 0 <= k <= top:
                with pytest.raises(KeyError):
                    wide.dim(n, k)
            else:
                assert wide.dim(n, k) == 0


@pytest.mark.parametrize("coeffs", [(3,), (1, 1), (1, 1, 3)])
@pytest.mark.parametrize("source", ["table", "column", "cone", "descent"])
def test_every_row_source_refuses_a_negative_level(source, coeffs):
    gp = GenPolynomial(coeffs)
    d = gp.degree
    rows = {"table": lambda: DimTable(gp, 3),
            "column": lambda: PathColumn(gp, [d, 0, d], 1),
            "cone": lambda: VertexCone(gp, 3, 2 * d),
            "descent": lambda: VertexDescent(gp, 3, 2 * d)}[source]()
    for _ in range(2):
        for n in (-1, -4):
            for k in (-1, 0, 1, 5):
                with pytest.raises(ValueError, match=f"level {n} is negative"):
                    rows.dim(n, k)
        # and again once the source holds levels 0..3
        assert rows.dim(3, 2 * d) == poly_power_row(coeffs, 3)[2 * d]


@pytest.mark.parametrize("coeffs", [(1,), (3,), (1, 1), (1, 2, 1), (1, 1, 3),
                                    (1, 3, 3, 1), (2, 1, 1, 2)])
def test_vertex_cone_bands_equal_dense_rows(coeffs):
    d = len(coeffs) - 1
    rows = [poly_power_row(coeffs, n) for n in range(13)]
    for n in range(13):
        for kap in range(-1, n * d + 2):
            cone = VertexCone(GenPolynomial(coeffs), n, kap)
            if not 0 <= kap <= n * d:       # empty cone, empty tower
                assert cone.dim(n, kap) == 0
                for L in range(n + 1):
                    for k in range(L * d + 1):
                        with pytest.raises(KeyError):
                            cone.dim(L, k)
                continue
            widths = []
            for L in range(n + 1):
                lo, hi = max(0, kap - (n - L) * d), min(L * d, kap)
                run = read_run(cone, L, hi)
                assert run == {k: rows[L][k] for k in range(lo, hi + 1)}
                widths.append(len(run))
                for k in range(-1, L * d + 2):
                    if lo <= k <= hi or not 0 <= k <= L * d:
                        assert cone.dim(L, k) == (rows[L][k] if 0 <= k <= L * d else 0)
                    else:
                        with pytest.raises(KeyError):
                            cone.dim(L, k)
            assert _cone_entries(d, n, kap) == sum(widths)
            # levels outside 0..n hold nothing; dim is still zero off the row,
            # and a negative level is refused whatever k, as in DimTable
            for L in (-1, n + 1):
                for k in range(-1, max(L, 0) * d + 2):
                    if L < 0:
                        with pytest.raises(ValueError, match="level -1 is negative"):
                            cone.dim(L, k)
                    elif 0 <= k <= L * d:
                        with pytest.raises(KeyError):
                            cone.dim(L, k)
                    else:
                        assert cone.dim(L, k) == 0


@pytest.mark.parametrize("coeffs", [(3,), (1, 1), (1, 2, 1), (1, 1, 3), (1000, 1000),
                                    (7, 1, 250), (1, 3, 3, 1)])
def test_vertex_cone_bands_stay_exact_across_repacks(coeffs):
    # 100 levels repack the packed bands several times; the edge vertices keep
    # entries far below p(1)^L, central ones near it
    n, d = 100, len(coeffs) - 1
    rows = [poly_power_row(coeffs, L) for L in range(n + 1)]
    top = n * d
    for kap in {k for k in (0, 1, 5, top // 3, top // 2, top - 4, top) if 0 <= k <= top}:
        cone = VertexCone(GenPolynomial(coeffs), n, kap)
        for L in range(n + 1):
            lo, hi = max(0, kap - (n - L) * d), min(L * d, kap)
            band = {k: rows[L][k] for k in range(lo, hi + 1)}
            assert read_run(cone, L, hi) == band


def test_vertex_cone_checks_level_and_budget_before_building():
    with pytest.raises(ValueError, match="^n must be an integer >= 0, got -1$"):
        VertexCone(GenPolynomial((1, 1)), -1, 0)
    # counted in closed form: building these would run out of memory
    with pytest.raises(CapacityError, match=r"vertex \(1000000000, 5\) needs "
                                            r"5999999976 entries, budget is 4000000"):
        VertexCone(GenPolynomial((1, 1)), 10 ** 9, 5)
    with pytest.raises(CapacityError, match="needs 1000000001 entries"):
        VertexCone(GenPolynomial((3,)), 10 ** 9, 0)
    # an empty cone costs nothing at any height
    assert VertexCone(GenPolynomial((1, 1)), 10 ** 9, -1).dim(10 ** 9, -1) == 0


def test_vertex_cone_bounds_its_bits_above_the_dense_reach():
    p113 = GenPolynomial((1, 1, 3))
    # 1.2 million entries, but about 3^L each: tens of gigabytes in all
    assert _cone_entries(2, 300000, 599997) < 4_000_000
    with pytest.raises(CapacityError, match=r"vertex \(300000, 599997\) needs up to "
                                            r"\d+ bits by level \d+, budget is 256000000"):
        VertexCone(p113, 300000, 599997)
    # 2.2 million entries at (2100, 2100), refused as the dense table was
    assert _table_entries(2, 2100) > 4_000_000
    with pytest.raises(CapacityError, match="bits"):
        VertexCone(p113, 2100, 2100)
    # a narrow cone past the dense reach fits
    assert _cone_bits(p113, 3000, 5997)[0] <= _BIT_BUDGET
    assert VertexCone(p113, 3000, 5997).dim(3000, 5997) == 3000 * 2999 * 2998 // 6 * 3 ** 2997 \
        + 3000 * 2999 * 3 ** 2998
    # where the dense table fits the entry budget the cone, a part of it,
    # answers whatever its bits: unranking refuses nothing it answered before
    big = GenPolynomial((1000, 1000))
    assert _table_entries(1, 600) <= 4_000_000
    assert _cone_bits(big, 600, 300)[0] > _BIT_BUDGET
    assert VertexCone(big, 600, 300).dim(600, 300) == math.comb(600, 300) * 1000 ** 600


def test_vertex_cone_near_the_tower_edge_stays_narrow():
    # (1999, 10) on 1,1,3: the dense table to level 1999 needs about 4 million
    # entries; the cone holds at most kap + 1 = 11 per level
    cone = VertexCone(GenPolynomial((1, 1, 3)), 1999, 10)
    widths = [len(read_run(cone, L, min(2 * L, 10))) for L in range(2000)]
    assert max(widths) == 11 and sum(widths) == _cone_entries(2, 1999, 10) == 21940
    # p = 1 + x + 3x^2: j squares, 10 - 2j linear terms, the rest constants
    assert cone.dim(1999, 10) == sum(
        math.comb(1999, j) * math.comb(1999 - j, 10 - 2 * j) * 3 ** j for j in range(6))


@pytest.mark.parametrize("coeffs", [(3,), (1, 1), (2, 3), (1, 1, 3), (2, 1, 1, 2),
                                    (5, 1, 1, 1, 9)])
def test_vertex_descent_answers_the_walk_and_refuses_the_rest(coeffs):
    # each level below n is entered within d left of where the level above
    # was, at the lowest read of unranking's walk, and answers within d of
    # that; here along a path through the middle of each level's reads
    d = len(coeffs) - 1
    gp = GenPolynomial(coeffs)
    rows = [poly_power_row(coeffs, L) for L in range(11)]

    def expect(source, L, e):
        assert source.dim(L, e) == rows[L][e]       # the first read enters the level
        for k in range(e - d - 1, e + d + 2):
            if abs(k - e) <= d or not 0 <= k <= L * d:
                assert source.dim(L, k) == (rows[L][k] if 0 <= k <= L * d else 0)
            else:
                with pytest.raises(KeyError):
                    source.dim(L, k)

    for n in range(11):
        for kap in range(n * d + 1):
            for stray in (kap - d - 1, kap + 1):      # entered too far left, or right
                if 0 <= stray <= (n - 1) * d:
                    with pytest.raises(KeyError):
                        VertexDescent(gp, n, kap).dim(n - 1, stray)
            descent = VertexDescent(gp, n, kap)
            expect(descent, n, kap)
            # level n, with its run to the nearer row end
            built, vertex = len(descent._rows[n][1]), kap
            for L in range(n - 1, -1, -1):
                e = max(0, vertex - d)
                expect(descent, L, e)
                held = len(descent._rows[L][1])
                assert held <= 3 * d + 1
                built += held
                # the level above is dropped, and no level below the newest
                # but the next is built
                for gone in (L + 1, L - 2):
                    if 0 <= gone <= n and 0 <= e <= gone * d:
                        with pytest.raises(KeyError):
                            descent.dim(gone, e)
                vertex = (e + min(vertex, L * d)) // 2    # one of this level's reads
            assert built <= _descent_entries(d, n, kap)


def test_an_empty_descent_refuses_every_read_in_the_rows_below_its_vertex():
    # no level is held, so none below the vertex can be entered
    p113 = GenPolynomial((1, 1, 3))
    for kap in (-1, 11):
        descent = VertexDescent(p113, 5, kap)
        assert descent.dim(5, kap) == 0
        for L, k in ((4, 0), (4, 3), (4, 8), (0, 0)):
            with pytest.raises(KeyError) as refused:
                descent.dim(L, k)
            assert refused.value.args == ((L, k),)


def test_vertex_descent_checks_its_polynomial_and_budget_before_building():
    with pytest.raises(ValueError, match="^n must be an integer >= 0, got -1$"):
        VertexDescent(GenPolynomial((1, 1, 3)), -1, 0)
    with pytest.raises(ValueError, match="repeated root"):
        VertexDescent(GenPolynomial((1, 2, 1)), 3, 2)
    with pytest.raises(CapacityError, match=r"vertex \(1000000000, 5\) needs "
                                            r"4000000009 entries, budget is 4000000"):
        VertexDescent(GenPolynomial((1, 1)), 10 ** 9, 5)
    p113 = GenPolynomial((1, 1, 3))
    # 2.1 million entries, of up to 3^L each: the bits are bounded as the cone's
    with pytest.raises(CapacityError, match=r"vertex \(300000, 599997\) needs up to "
                                            r"\d+ bits, budget is 256000000 bits"):
        VertexDescent(p113, 300000, 599997)
    # an empty descent costs nothing at any height
    assert VertexDescent(GenPolynomial((1, 1)), 10 ** 9, -1).dim(10 ** 9, -1) == 0
    # where the cone held 4,503,001 entries, the descent holds about 24,000
    assert _cone_entries(2, 3000, 3000) > 4_000_000
    top = VertexDescent(p113, 3000, 3000).dim(3000, 3000)
    assert top == sum(math.comb(3000, j) * math.comb(3000 - j, 3000 - 2 * j) * 3 ** j
                      for j in range(1501))


P11, P113 = GenPolynomial((1, 1)), GenPolynomial((1, 1, 3))


@pytest.mark.parametrize("build, text", [
    pytest.param(lambda: DimTable(P11, 3000),
                 "table with n_max=3000, degree=1 needs 4504501 entries, budget is 4000000",
                 id="dense-table"),
    pytest.param(lambda: VertexCone(P11, 10 ** 9, 5),
                 "cone below vertex (1000000000, 5) needs 5999999976 entries, "
                 "budget is 4000000", id="cone-entries"),
    pytest.param(lambda: VertexCone(P113, 300000, 599997),
                 "cone below vertex (300000, 599997) needs up to 256067461 bits "
                 "by level 6532, budget is 256000000 bits", id="cone-bits"),
    pytest.param(lambda: VertexDescent(P11, 10 ** 9, 5),
                 "descent from vertex (1000000000, 5) needs 4000000009 entries, "
                 "budget is 4000000", id="descent-entries"),
    pytest.param(lambda: VertexDescent(P113, 300000, 599997),
                 "descent from vertex (300000, 599997) needs up to 945007950010 bits, "
                 "budget is 256000000 bits", id="descent-bits"),
    pytest.param(lambda: letter_table(GenPolynomial((4000000, 1))),
                 "alphabet needs 4000001 letters, budget is 4000000", id="alphabet"),
    pytest.param(lambda: fixed_coder(GenPolynomial((1,) * 1156), 0.5),
                 "exact coder weights of degree 1155 need about 256354560 bits, "
                 "budget is 256000000 bits", id="coder-bits"),
])
def test_every_refusal_states_its_need_and_the_budget_in_full(build, text):
    # each is refused before anything is built
    with pytest.raises(CapacityError) as refused:
        build()
    assert str(refused.value) == text


@pytest.mark.parametrize("build", [
    lambda p: DimTable(p), lambda p: DimTable(p, 3), lambda p: PathColumn(p, [1, 0, 1, 0], 1),
    lambda p: VertexCone(p, 4, 2), lambda p: VertexDescent(p, 4, 2),
    lambda p: path_column((0, 1, 1, 0), p)],
    ids=["DimTable", "DimTable-n_max", "PathColumn", "VertexCone", "VertexDescent",
         "path_column"])
@pytest.mark.parametrize("coeffs", [(1, 1), [1, 1]])
def test_row_sources_refuse_a_bare_coefficient_list(build, coeffs):
    # refused, naming what was given, before any attribute of a GenPolynomial is read
    with pytest.raises(ValueError) as refused:
        build(coeffs)
    assert str(refused.value) == f"expected a GenPolynomial, got {coeffs!r}"
    build(GenPolynomial(tuple(coeffs))).dim(4, 2)


def _read(read, n, k):
    """read(n, k), or the type of the ValueError or KeyError it raised."""
    try:
        return read(n, k)
    except (ValueError, KeyError) as exc:
        return type(exc)


def _compare_reads(a, b, reads):
    """``a.dim`` and the stated order on twin store ``b`` give the same answers and records."""
    for n, k in reads:
        assert _read(a.dim, n, k) == _read(lambda n, k: reference_store_dim(b, n, k), n, k)
        assert a._rows == b._rows


def _around(store, extra):
    """Every read within 2 reach + 2 of each held level's anchor, and ``extra``."""
    w = 2 * store._reach + 2
    reads = [(n, k) for n, (_, _, kap) in sorted(store._rows.items())
             for k in range(kap - w, kap + w + 1)]
    return reads + extra


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 3), (2, 1, 1, 2)])
def test_held_reads_answer_what_the_stated_order_answers(coeffs):
    # every read's answer and side effects follow the stated order, held
    # reads within reach included; a shortcut that answers those first
    # (held runs lie in their rows) must pass this too
    poly = GenPolynomial(coeffs)
    r, d = poly.alphabet_size, poly.degree
    rng = random.Random(35)
    steps = [letter_table(poly).kstep[rng.randrange(r)] for _ in range(30)]
    for depth in (0, 2, 5):
        a, b = PathColumn(poly, steps, depth), PathColumn(poly, steps, depth)
        for n in range(len(steps) + 2):
            # level n + 1 is built, or past the path a KeyError; n - depth - 2
            # is dropped; -1 is negative; n * d + 1 is off the row
            _compare_reads(a, b, _around(a, [(n + 1, 0), (n + 1, steps[0]), (n - depth - 2, 0),
                                             (-1, 0), (n, n * d + 1), (n, -1)]))
    for n in (6, 17):
        for kap in {0, 1, n * d // 2, n * d - 1, n * d}:
            a, b = VertexDescent(poly, n, kap), VertexDescent(poly, n, kap)
            for _ in range(n + 1):
                (L, (_, _, anchor)), = a._rows.items()
                # level L - 1 is entered within d left of the anchor, or
                # refused; L - 2 and L + 1 are not held
                down = anchor - rng.randint(0, d)
                _compare_reads(a, b, _around(a, [(L - 2, anchor), (L + 1, anchor),
                                                 (-1, 0), (L - 1, anchor + d + 1), (L - 1, down)]))
                if L - 1 not in a._rows:
                    break
