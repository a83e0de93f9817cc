import math
import random
from dataclasses import fields
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tower_words_comparison_sorted, tower_words_sorted
from polyadic import (CapacityError, CylFunction, DimTable, GenPolynomial,
                      HorizonExhausted, MaximalPath, MinimalPath, PathPrefix, PrefixExhausted,
                      RankOutOfRange, cylinder_measure, encode_theta, h_coeffs,
                      iter_tower, jump, kappa, letter_stream, letter_table,
                      maximal_word, measure_params, minimal_word, predecessor,
                      prefix_walk, rank, successor,
                      unrank, word_from_string, word_to_string)
from polyadic import paths
from polyadic.paths import _jump, _steps, path_column
from polyadic.poly import VertexCone, VertexDescent, _bezout, vertex_source

P11 = GenPolynomial((1, 1))
P113 = GenPolynomial((1, 1, 3))
P21 = GenPolynomial((2, 1))
T11 = DimTable(P11, 40)
T113 = DimTable(P113, 10)
T21 = DimTable(P21, 10)
# groups of one to seven labels, at degrees 0 to 5
_WIDE_GROUPS = [(3,), (1, 7), (5, 1, 4), (2, 1, 1, 2), (7, 1, 5), (1, 1, 1, 1, 1, 1)]


def test_letter_table_groups():
    lt = letter_table(P11)
    assert lt.kstep == (1, 0)
    lt = letter_table(P113)
    assert lt.kstep == (2, 2, 2, 1, 0)
    lt = letter_table(GenPolynomial((3,)))
    assert lt.kstep == (0, 0, 0)
    # group sizes recover the coefficients, and the group bounds are the
    # first and last label of each step
    for poly in (P11, P113, P21, *map(GenPolynomial, _WIDE_GROUPS)):
        lt = letter_table(poly)
        r = poly.alphabet_size
        for s, a in enumerate(poly.coeffs):
            assert sum(1 for c in range(r) if lt.kstep[c] == s) == a
            assert lt.first[s] == lt.kstep.index(s)
            assert lt.last[s] == r - 1 - lt.kstep[::-1].index(s)


def _entries(value) -> int:
    """Scalars held by a field, counting through nested tuples."""
    if isinstance(value, tuple):
        return sum(_entries(v) for v in value)
    return 1


def test_letter_table_holds_at_most_one_entry_per_letter_in_each_field():
    # a per-letter table of counts by step would hold 20,001^2 entries here
    poly = GenPolynomial((1,) * 20_001)
    lt = letter_table(poly)
    for field in fields(lt):
        if field.name != "poly":
            assert _entries(getattr(lt, field.name)) <= poly.alphabet_size


def test_letter_table_refuses_an_alphabet_past_the_entry_budget():
    with pytest.raises(CapacityError, match="needs 4000001 letters, budget is 4000000"):
        letter_table(GenPolynomial((4_000_000, 1)))


def test_kappa_and_co_kappa():
    assert kappa((0, 1, 1, 0), P11) == 2
    # the co-index len(w)*d - kappa(w) counts from the other end
    assert 4 * P11.degree - kappa((0, 1, 1, 0), P11) == 2
    assert kappa((4, 3, 0), P113) == 3
    assert 3 * P113.degree - kappa((4, 3, 0), P113) == 3


def test_rank_known_values():
    assert rank((1, 1, 0), P11) == 1
    assert rank((1, 0, 1), P11) == 2
    assert rank((0, 1, 1), P11) == 3
    assert rank((0, 1, 1, 0), P11) == 3


def test_minimal_vertex_words_have_rank_one():
    # the all-(r - a0) word is the unique-kind minimum at vertex index 0
    for poly in (P11, P21, P113):
        r, a0 = poly.alphabet_size, poly.coeffs[0]
        for n in range(1, 6):
            assert rank((r - a0,) * n, poly) == 1


def test_unrank_known_values():
    assert unrank(4, 2, 4, T11) == (1, 0, 0, 1)
    assert unrank(3, 1, 3, T11) == (0, 1, 1)
    assert unrank(5, 2, 1, T11) == minimal_word(5, 2, P11)
    with pytest.raises(RankOutOfRange):
        unrank(4, 2, 7, T11)
    with pytest.raises(RankOutOfRange):
        unrank(4, 2, 0, T11)


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 1, 3), (2, 3, 1), (3,),
                                    (1, 2, 1, 1)])
def test_minimal_word_is_unrank_one(coeffs):
    poly = GenPolynomial(coeffs)
    table = DimTable(poly, 7)
    for n in range(8):
        for kap in range(-1, n * poly.degree + 2):
            if 0 <= kap <= n * poly.degree:
                assert minimal_word(n, kap, poly) == unrank(n, kap, 1, table)
                assert maximal_word(n, kap, poly) == unrank(
                    n, kap, table.dim(n, kap), table)
            else:
                with pytest.raises(RankOutOfRange):
                    minimal_word(n, kap, poly)
                with pytest.raises(RankOutOfRange):
                    maximal_word(n, kap, poly)


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 1, 3), (2, 3, 1), (3,),
                                    (1, 2, 1, 1)])
def test_neighbours_are_unrank_plus_minus_one(coeffs):
    poly = GenPolynomial(coeffs)
    table = DimTable(poly, 6)
    for n in range(7):
        for w in product(range(poly.alphabet_size), repeat=n):
            walk = [(0, 0, 1)] + list(prefix_walk(w, table))
            _, kap, rnk = walk[-1]
            for step, end, edge, shift in ((successor, MaximalPath, table.dim, 1),
                                           (predecessor, MinimalPath, lambda j, k: 1, -1)):
                if rnk == edge(n, kap):
                    with pytest.raises(end):
                        step(PathPrefix(w), poly)
                    continue
                moved = step(PathPrefix(w), poly).known()
                assert moved == unrank(n, kap, rnk + shift, table)
                # letters above the lowest head not at its tower's edge stay
                pivot = next(j for j, k, r in walk if r != edge(j, k))
                assert moved[pivot:] == w[pivot:]


def test_rank_and_successor_past_the_dense_table_budget(built_tables):
    rng = random.Random(30)
    w = tuple(rng.randrange(2) for _ in range(3000))
    with pytest.raises(CapacityError):
        DimTable(P11).row(3000)
    # Pascal oracle: a 1 at level j passes over the words carrying the 0
    # (step 1) there, C(j - 1, kappa_{j-1} - 1) of them
    expect, kap = 1, 0
    for j, c in enumerate(w, 1):
        if c == 1 and kap >= 1:
            expect += math.comb(j - 1, kap - 1)
        kap += 1 - c
    built_tables.clear()
    assert rank(w, P11) == expect
    s = successor(PathPrefix(w), P11).known()
    assert rank(s, P11) == expect + 1
    # rank reads the word's column and the successor reads no table at all
    assert built_tables == []


@pytest.mark.parametrize("poly,table", [(P11, T11), (P21, T21), (P113, T113)])
def test_order_convention_against_comparison_sort(poly, table):
    for n in range(1, 6):
        for kap in range(n * poly.degree + 1):
            words = tower_words_comparison_sorted(poly, n, kap)
            assert words == tower_words_sorted(poly, n, kap)
            for j, w in enumerate(words, 1):
                assert rank(w, poly) == j
                assert unrank(n, kap, j, table) == w


def test_successor_example_and_coherence():
    s = successor((0, 1, 1, 0, 0, 0), P11)
    assert s.known() == (1, 0, 0, 1, 0, 0)
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 12)
        w = tuple(rng.randint(0, 1) for _ in range(n))
        try:
            nxt = successor(PathPrefix(w), P11).known()
        except MaximalPath:
            assert rank(w, P11) == T11.dim(n, kappa(w, P11))
            continue
        # pivot level: first index where they differ counted from the top
        pivot = max(i for i in range(n) if nxt[i] != w[i]) + 1
        assert nxt[pivot:] == w[pivot:]
        assert kappa(nxt[:pivot], P11) == kappa(w[:pivot], P11)
        assert rank(nxt[:pivot], P11) == rank(w[:pivot], P11) + 1


def test_predecessor_inverse():
    assert predecessor((1, 0, 0, 1, 0), P11).known() == (0, 1, 1, 0, 0)
    rng = random.Random(6)
    for poly in (P11, P113):
        r = poly.alphabet_size
        for _ in range(60):
            w = tuple(rng.randrange(r) for _ in range(10))
            try:
                s = successor(PathPrefix(w), poly).known()
            except MaximalPath:
                continue
            assert predecessor(PathPrefix(s), poly).known() == w


def test_extremal_paths_raise():
    # minimal-at-every-level prefix has no predecessor
    with pytest.raises(MinimalPath):
        predecessor(PathPrefix(minimal_word(5, 2, P11)), P11)
    with pytest.raises(MaximalPath):
        successor(PathPrefix(maximal_word(5, 2, P11)), P11)
    # a configured horizon turns the search into HorizonExhausted instead
    with pytest.raises(HorizonExhausted):
        successor(PathPrefix(maximal_word(5, 2, P11), max_level=5), P11)
    # a step is one place up or down the order, nothing else
    with pytest.raises(ValueError):
        successor((0, 1), P11, 0)


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 1, 3), (1, 2, 1), (3,)])
def test_jump_equals_stepping_on_every_short_word(coeffs):
    # _jump with no entry budget always answers by rank walk and unrank;
    # jump itself, under its budget, also falls back to stepping
    poly = GenPolynomial(coeffs)
    for n in range(6):
        for w in product(range(poly.alphabet_size), repeat=n):
            for direction in (1, -1):
                seen, end = [w], None
                try:
                    for y in islice(_steps(w, poly, direction), 40):
                        seen.append(y.known())
                except (MaximalPath, MinimalPath) as exc:
                    end = exc
                for k in (0, 1, 2, 3, 7, 40):
                    moves = [lambda: jump(w, poly, k, direction)]
                    if k:
                        moves.append(lambda: _jump(w, poly, k, direction, math.inf))
                    for move in moves:
                        if k < len(seen):
                            assert move() == seen[k]
                            continue
                        with pytest.raises(type(end)) as err:
                            move()
                        assert str(err.value) == str(end) == (
                            f"{'max' if direction > 0 else 'min'}imal through level {n}")


def test_jump_leaves_costly_cones_to_stepping(monkeypatch):
    # the pivot cone at (3000, 3001) holds 4,503,000 entries, past the entry
    # budget, but the descent from there about 24,000: with no budget of its
    # own the rank jump answers, as stepping does
    word = maximal_word(2999, 2999, P113) + (0,)
    stepped = list(islice(_steps(word, P113, 1), 3))[-1].known()
    assert _jump(word, P113, 3, 1, math.inf) == stepped
    assert jump(word, P113, 1) == successor(PathPrefix(word), P113).known()
    # at (1000, 1001) the descent's 8,000 entries and the cone's 501,000 both
    # cost far more than three steps: jump steps without building either
    def no_source(*args):
        raise AssertionError("source built")

    word = maximal_word(999, 999, P113) + (0,)
    stepped = list(islice(_steps(word, P113, 1), 3))[-1].known()
    monkeypatch.setattr(paths, "vertex_source", no_source)
    assert jump(word, P113, 3) == stepped


def test_jump_arguments():
    assert jump((0, 1, 1, 0), P11, 1) == (1, 0, 0, 1)
    assert jump([1, 0, 0, 1], P11, 1, -1) == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        jump((0, 1), P11, 1, 0)
    with pytest.raises(ValueError):
        jump((0, 1), P11, -1)


def test_letters_outside_the_alphabet_are_refused_where_they_are_read():
    # r = 5 on 1,1,3: a letter -1 used to be read as label 4 (rank 10, a
    # level-1 rank of -4), and a letter 5 or 9 to end in a bare IndexError
    assert rank((4, 0, 2), P113) == 15
    mp = measure_params(P113, 0.2)
    refused = [(-1, lambda: rank((-1, 0, 2), P113)),
               (5, lambda: rank((5, 0, 2), P113)),
               (-1, lambda: successor((-1, 0), P113)),
               (-1, lambda: successor(PathPrefix((4, 4), extend=iter((-1,))), P113)),
               (-1, lambda: jump((-1, 0, 1), P113, 3)),
               (9, lambda: jump((9, 0, 1), P113, 3)),
               (9, lambda: jump((9, 0, 1), P113, 0)),
               (-1, lambda: kappa((-1,), P113)),
               (-1, lambda: encode_theta(mp, (-1,))),
               (5, lambda: cylinder_measure(mp, (0, 5)))]
    for letter, call in refused:
        with pytest.raises(ValueError, match=rf"^letter {letter} outside the alphabet 0\.\.4$"):
            call()
    # a walk reads letter n + 1 before level n + 1: the levels below answer
    walk = prefix_walk((0, 0, 5), path_column((0, 0, 5), P113))
    assert [n for n, _, _ in islice(walk, 2)] == [1, 2]
    with pytest.raises(ValueError, match="letter 5 outside"):
        next(walk)


def test_prefix_extension_policies():
    x = PathPrefix((0, 1), extend=iter((1, 0, 1)))
    assert x.letter(5) == 1
    with pytest.raises(PrefixExhausted):
        x.letter(6)
    y = PathPrefix((0, 1), max_level=3, extend=iter((0, 0, 0)))
    assert y.letter(3) == 0
    with pytest.raises(HorizonExhausted):
        y.letter(4)


def test_prefix_refuses_levels_below_the_first():
    x = PathPrefix((3, 1, 4))
    for n in (0, -1, -3):
        with pytest.raises(ValueError, match=f"level {n} is below 1"):
            x.letter(n)
    for n in (-1, -3):
        with pytest.raises(ValueError, match=f"^n must be an integer >= 0, got {n}$"):
            x.prefix(n)
    assert x.prefix(0) == () and x.prefix(2) == (3, 1)
    assert (x.letter(1), x.letter(3)) == (3, 4)


def test_successor_hands_over_stream():
    # the pivot lies above the known letters: the successor pulls level 4
    # from x's stream, and its later reads continue that same stream
    x = PathPrefix((1, 1, 1), extend=iter((0, 1, 0)))
    y = successor(x, P11)
    assert y.known() == (1, 1, 0, 1)
    assert y.letter(6) == 0
    assert y.known() == (1, 1, 0, 1, 1, 0)
    assert x.known() == (1, 1, 1, 0, 1, 0)
    assert x.known()[4:] == y.known()[4:]     # the pivot is level 4


def test_successor_leaves_a_streamed_path_unchanged():
    # the successor reads x's letters above its prefix through x, so x
    # reads on as a path that was never stepped
    mp = measure_params(P11, 0.5)
    x = PathPrefix((1, 1), extend=letter_stream(mp, 3), max_level=50)
    fresh = PathPrefix((1, 1), extend=letter_stream(mp, 3), max_level=50)
    y = successor(x, P11)
    assert x.prefix(8) == fresh.prefix(8) == (1, 1, 0, 1, 0, 1, 1, 0)
    assert y.prefix(8) == (1, 0, 1, 1, 0, 1, 1, 0)


def test_is_minimal_maximal():
    # minimal words have rank 1, maximal ones rank C(n, kappa)
    assert rank((1, 1, 0, 0), P11) == 1
    assert rank((), P11) == 1 == T11.dim(0, 0)
    # greedy maximal words take the largest letters at the top
    for n in range(1, 7):
        for kap in range(n + 1):
            words = list(iter_tower(n, kap, P11))
            assert rank(words[0], P11) == 1
            assert rank(words[-1], P11) == T11.dim(n, kap)
    assert rank((0, 0, 0, 0), P11) == T11.dim(4, kappa((0, 0, 0, 0), P11))


def test_successor_orbit_enumerates_tower():
    for n, kap in ((5, 2), (6, 3)):
        words = list(iter_tower(n, kap, P11))
        assert len(words) == T11.dim(n, kap)
        assert words == tower_words_sorted(P11, n, kap)


def test_pascal_closed_form_is_predecessor():
    # with digits swapped 0<->1 the published first-m+2-coordinates map
    # realizes the predecessor: its successor gives the path back
    def swapped_map(digits):
        ds = list(digits)
        i = 0
        while i < len(ds) and ds[i] == 0:
            i += 1
        z = i
        while i < len(ds) and ds[i] == 1:
            i += 1
        o = i - z
        if o < 1 or i >= len(ds) or ds[i] != 0:
            return None
        return [1] * (o - 1) + [0] * z + [0, 1] + ds[i + 1:]

    rng = random.Random(123)
    checked = 0
    for _ in range(500):
        x = tuple(rng.randint(0, 1) for _ in range(30))
        out = swapped_map([1 - c for c in x])
        if out is None:
            continue
        cand = tuple(1 - c for c in out)
        assert successor(PathPrefix(cand), P11).known() == x
        checked += 1
    assert checked > 450


def test_odometer_rank_is_positional_value():
    poly = GenPolynomial((3,))
    rng = random.Random(1)
    for _ in range(50):
        w = tuple(rng.randrange(3) for _ in range(6))
        value = sum(c * 3 ** i for i, c in enumerate(w))
        assert rank(w, poly) == value + 1
        assert kappa(w, poly) == 0


def test_word_strings():
    assert word_to_string((0, 1, 1, 2, 0), P113) == "01120"
    assert word_from_string("01120", P113) == (0, 1, 1, 2, 0)
    wide = GenPolynomial((6, 6))
    assert wide.alphabet_size == 12
    assert word_to_string((11, 0, 3), wide) == "11,0,3"
    assert word_from_string("11,0,3", wide) == (11, 0, 3)
    assert word_from_string("", P11) == ()
    with pytest.raises(ValueError):
        word_from_string("091", P113)
    # labels are ASCII digits only: no full-width digits, signs or empty fields
    for text in ["\uff10\uff11", "0,-1", "0,,1", "1 0"]:
        with pytest.raises(ValueError, match="bad word"):
            word_from_string(text, P11)
    assert word_from_string(" 0, 1 ", P11) == (0, 1)
    # labels are canonical, with no leading zero, so a comma-free word over
    # more than ten letters is one label and never silently drops its zeros
    eleven = GenPolynomial((1,) * 11)
    for text in ["01", "0010", "0,01", "00"]:
        with pytest.raises(ValueError, match="bad word"):
            word_from_string(text, eleven)
    assert word_from_string("10", eleven) == (10,)
    assert word_from_string("0,10", eleven) == (0, 10)
    assert word_from_string("0", eleven) == (0,)
    assert word_from_string("0010", P113) == (0, 0, 1, 0)


def test_word_to_string_refuses_letters_outside_the_alphabet():
    # (12, -1, 3) over (1,1) once printed as "12-13", which reads back as
    # another word; a g file written that way is refused by from_json
    twelve = GenPolynomial((12,))
    for word, poly, c in [((2,), P11, 2), ((0, -1), P11, -1), ((12, -1, 3), P11, 12),
                          ((0, 12), twelve, 12), ((-1,), twelve, -1)]:
        r = poly.alphabet_size
        with pytest.raises(ValueError) as err:
            word_to_string(word, poly)
        assert str(err.value) == f"letter {c} outside the alphabet 0..{r - 1}"
    with pytest.raises(ValueError) as err:
        CylFunction(1, {(2,): 1.0}).to_json(P11)
    assert str(err.value) == "letter 2 outside the alphabet 0..1"


_MP11 = measure_params(P11, 0.5)


@pytest.mark.parametrize("call,text", [
    (lambda: rank("0110", P11), "letter '0' is not an integer"),
    (lambda: kappa("0110", P11), "letter '0' is not an integer"),
    (lambda: kappa((0, 1.0), P11), "letter 1.0 is not an integer"),
    (lambda: jump("0110", P11, 1), "letter '0' is not an integer"),
    (lambda: encode_theta(_MP11, "01"), "letter '0' is not an integer"),
    (lambda: word_to_string("01", P11), "letter '0' is not an integer"),
    (lambda: h_coeffs(CylFunction(1, {("0",): 1.0}), P11), "letter '0' is not an integer"),
    (lambda: rank((True, False), P11), "letter True is not an integer"),
    (lambda: PathPrefix((0, 1), extend=iter((1, 1.0))).prefix(4), "letter 1.0 is not an integer"),
    (lambda: PathPrefix(extend=iter((False,))).letter(1), "letter False is not an integer"),
], ids=["rank", "kappa-str", "kappa-float", "jump", "encode_theta", "word_to_string",
        "h_coeffs", "rank-bool", "extension-float", "extension-bool"])
def test_letters_that_are_not_integers_are_refused(call, text):
    # each once ended in a bare TypeError, or read a bool or a float as a label
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == text


def test_prefix_walk_matches_rank():
    rng = random.Random(9)
    w = tuple(rng.randrange(5) for _ in range(8))
    x = PathPrefix(w)
    for n, kap, rnk in prefix_walk(x, T113, 8):
        assert kap == kappa(w[:n], P113)
        assert rnk == rank(w[:n], P113)
    # stops quietly at the prefix end
    assert len(list(prefix_walk(PathPrefix(w[:3]), T113, 8))) == 3


def test_prefix_walk_without_bound_runs_to_the_prefix_end():
    w = (4, 0, 3, 1, 2, 2)
    walk = list(prefix_walk(w, DimTable(P113)))
    assert [n for n, _, _ in walk] == [1, 2, 3, 4, 5, 6]
    assert walk[-1] == (6, kappa(w, P113), rank(w, P113))
    assert list(prefix_walk(w, T113, 0)) == []


_POLYS = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(
    lambda coeffs: GenPolynomial(tuple(coeffs)))


@settings(max_examples=200, deadline=None)
@given(poly=_POLYS, data=st.data())
def test_rank_and_neighbour_round_trips_on_drawn_words(poly, data):
    # every table here starts unsized and grows only as far as the word reaches
    r = poly.alphabet_size
    w = tuple(data.draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=12)))
    n, kap = len(w), kappa(w, poly)
    table = DimTable(poly)
    rnk = rank(w, poly)
    assert unrank(n, kap, rnk, table) == w
    for step, back, end, edge in ((successor, predecessor, MaximalPath, table.dim(n, kap)),
                                  (predecessor, successor, MinimalPath, 1)):
        try:
            moved = step(PathPrefix(w), poly)
        except end:
            assert rnk == edge
            continue
        assert back(moved, poly).known() == w
    assert table.n_max <= n


@settings(max_examples=150, deadline=None)
@given(poly=_POLYS, n=st.integers(0, 60), data=st.data())
def test_unrank_on_the_vertex_cone_equals_unrank_on_dense_rows(poly, n, data):
    # the descent, where p has no repeated root, reads the same words
    table = DimTable(poly)
    kap = data.draw(st.integers(-1, n * poly.degree + 1))
    total = table.dim(n, kap)
    sources = [VertexCone]
    if _bezout(poly.coeffs) is not None:
        sources.append(VertexDescent)
    index = data.draw(st.integers(1, total)) if total else 1
    for source in sources:
        rows = source(poly, n, kap)
        assert rows.dim(n, kap) == total
        if total == 0:              # kappa outside [0, n*d]: the same error
            with pytest.raises(RankOutOfRange, match=r"outside \[1, 0\]"):
                unrank(n, kap, 1, rows)
            continue
        assert unrank(n, kap, index, rows) == unrank(n, kap, index, table)


@pytest.mark.parametrize("coeffs", [(3,), (2, 3), (1, 1, 3), (2, 1, 1, 2), (5, 1, 1, 1, 9)])
def test_unrank_on_the_descent_equals_unrank_on_dense_rows_at_every_short_vertex(coeffs):
    # degrees 0 to 4; each unrank walks a descent of its own
    poly = GenPolynomial(coeffs)
    table = DimTable(poly)
    for n in range(9):
        for kap in range(n * poly.degree + 1):
            total = table.dim(n, kap)
            for index in {1, (total + 1) // 2, total}:
                assert unrank(n, kap, index, VertexDescent(poly, n, kap)) == \
                    unrank(n, kap, index, table)


def test_repeated_roots_keep_the_cone():
    # the descent needs gcd(p, p') = 1: (1 + x)^2, (1 + x)^3 and (2 + x)^2
    # share a root with p', and p = 1 + x + 3x^2 does not
    for coeffs in ((1, 2, 1), (1, 3, 3, 1), (4, 4, 1)):
        poly = GenPolynomial(coeffs)
        assert _bezout(coeffs) is None
        with pytest.raises(ValueError, match="repeated root"):
            VertexDescent(poly, 5, 3)
        assert type(vertex_source(poly, 300, 300)) is VertexCone
        # and where the cone is over the budget, nothing answers in its place
        with pytest.raises(CapacityError, match="cone below vertex"):
            vertex_source(poly, 3000, 3000)
    assert type(vertex_source(P113, 300, 300)) is VertexDescent
    # at a row end the cone is the smaller: n + 1 entries
    assert type(vertex_source(P113, 300, 0)) is VertexCone


def _walk_by_letter(w, poly, table):
    """Reference walk: rank_n sums C(n-1, kappa_n - step(b)) over every label b < c."""
    ks = letter_table(poly).kstep
    kap, rnk, walk = 0, 1, []
    for n, c in enumerate(w, 1):
        kap += ks[c]
        rnk += sum(table.dim(n - 1, kap - ks[b]) for b in range(c))
        walk.append((n, kap, rnk))
    return walk


@pytest.mark.parametrize("coeffs", _WIDE_GROUPS)
def test_group_counts_rank_and_unrank_every_short_word(coeffs):
    poly = GenPolynomial(coeffs)
    r = poly.alphabet_size
    table = DimTable(poly)
    cones = {}
    for n in range(7 if r < 8 else 5):
        for w in product(range(r), repeat=n):
            walk = _walk_by_letter(w, poly, table)
            assert list(prefix_walk(w, table)) == walk
            if n <= 4:              # a column's windows are already narrower than its rows
                assert list(prefix_walk(w, path_column(w, poly))) == walk
            _, kap, rnk = walk[-1] if w else (0, 0, 1)
            if (n, kap) not in cones:
                cones[n, kap] = VertexCone(poly, n, kap)
            assert unrank(n, kap, rnk, table) == w
            assert unrank(n, kap, rnk, cones[n, kap]) == w
            assert unrank(n, kap, rnk, VertexDescent(poly, n, kap)) == w
