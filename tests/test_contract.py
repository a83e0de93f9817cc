"""The library contract: every count a public call takes is an int, not a bool,
at least its floor, or the call refuses it by name with ``poly._count``'s text;
q is a float.  These tests add to the exhaustive oracles of the other files."""

import dataclasses
import inspect
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyadic
from polyadic import (CylFunction, DimTable, GenPolynomial, PathPrefix, PolyadicError,
                      central_vertex, coding_map, cohomology_verdict, decode_digits,
                      extract_limiting_curve, fluctuation_curve, h_coeffs, iter_tower,
                      jet_const, jet_var, jump, maximal_word, measure_params, measure_ray,
                      minimal_word, node_grid, parabola_profile, prefix_walk, sample_word,
                      self_affinity_residual, solve_t, stationary_points, t_jet,
                      takagi_function, tower_total, unrank, word_to_string)
from polyadic import measure, takagi
from polyadic.cli import main
from polyadic.paths import path_column
from polyadic.poly import PathColumn, VertexCone, VertexDescent
from polyadic.takagi import takagi_grid

P1 = GenPolynomial((1,))
P11 = GenPolynomial((1, 1))
P112 = GenPolynomial((1, 1, 2))
T11 = DimTable(P11, 12)
MP11 = measure_params(P11, 0.5)
G1 = CylFunction(1, {(0,): 1.0})
G2 = CylFunction(2, {(0, 1): 1.0})
WORD = (0, 1, 1, 0)


def _count_text(name, lo, value):
    floor = "" if lo is None else f" >= {lo}"
    return f"{name} must be an integer{floor}, got {value!r}"


# -- 27 calls that ended in a bare TypeError, a silent coercion or islice's text --

PROBE = [
    # each ended in a bare TypeError before the counts were checked
    (lambda: DimTable(P11, 1.5), "n_max must be an integer >= 0, got 1.5"),
    (lambda: VertexCone(P11, 2.0, 1), "n must be an integer >= 0, got 2.0"),
    (lambda: minimal_word(2.5, 1, P11), "n must be an integer >= 0, got 2.5"),
    (lambda: maximal_word(3, 1.5, P11), "kap must be an integer, got 1.5"),
    (lambda: list(iter_tower(3.0, 1, P11)), "n must be an integer >= 0, got 3.0"),
    (lambda: unrank(3, 1.5, 1, T11), "kap must be an integer, got 1.5"),
    (lambda: takagi_function(P11, 0.5, 1.0, 0.3), "k must be an integer >= 0, got 1.0"),
    (lambda: takagi_grid(P11, 0.5, 1, 2.0), "grid must be an integer >= 1, got 2.0"),
    (lambda: coding_map(P11, 0.5, 0.5, 0.3, 60.0), "depth must be an integer >= 1, got 60.0"),
    (lambda: parabola_profile(2.0, 4), "d must be an integer >= 1, got 2.0"),
    (lambda: fluctuation_curve(G1, 8, 4, 2.0, T11), "m must be an integer >= 0, got 2.0"),
    (lambda: cohomology_verdict(G1, DimTable(P11), 10.0),
     "n_max must be an integer >= 1, got 10.0"),
    (lambda: stationary_points(MP11, 2.0), "m must be an integer >= 0, got 2.0"),
    (lambda: decode_digits(MP11, 0.3, 2.0), "m must be an integer >= 0, got 2.0"),
    # each was answered with its value coerced
    (lambda: VertexDescent(P11, 2.0, 1), "n must be an integer >= 0, got 2.0"),
    (lambda: unrank(3, 1, 1.5, DimTable(P11, 3)), "index must be an integer, got 1.5"),
    (lambda: CylFunction(True, {(0,): 1.0}), "N must be an integer >= 1, got True"),
    (lambda: takagi_function(P11, 0.5, True, 0.3), "k must be an integer >= 0, got True"),
    (lambda: takagi_function(P11, 0.5, 1, True), "x must be a number, got True"),
    (lambda: PathColumn(P11, [1, 0, 1], 1.5), "depth must be an integer >= 0, got 1.5"),
    (lambda: PathPrefix((0, 1), max_level=2.5), "max_level must be an integer >= 0, got 2.5"),
    (lambda: jump(WORD, P11, True), "steps must be an integer >= 0, got True"),
    (lambda: word_to_string((True, False), P11), "letter True is not an integer"),
    (lambda: word_to_string((0, 1.0), P11), "letter 1.0 is not an integer"),
    (lambda: measure_params(P11, Fraction(1, 3)),
     "q must be a float, got Fraction(1, 3) of type Fraction"),
    # each ended in islice's text, which names no argument
    (lambda: jump(WORD, P11, 1.0), "steps must be an integer >= 0, got 1.0"),
    (lambda: sample_word(MP11, -1, 0), "n must be an integer >= 0, got -1"),
]


@pytest.mark.parametrize("call, text", PROBE, ids=[text for _, text in PROBE])
def test_every_probed_call_refuses_by_name_in_full(call, text):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and str(exc.value) == text


# -- the property: every count parameter against every kind of bad value -----

def _site(label, call, name, lo=0, none_ok=False, stand_in=False):
    return pytest.param(call, name, lo, none_ok, stand_in, id=label)


def _finite_path():
    return PathPrefix((0, 1, 1, 0, 1, 0, 0, 1) * 3)


# (call of the count, the name it is refused by, its floor or None, whether
# None is a valid value, whether the call reads a stand-in that may raise KeyError)
SITES = [
    _site("DimTable-n_max", lambda v: DimTable(P11, v), "n_max"),
    _site("DimTable.extend-n_max", lambda v: DimTable(P11).extend(v), "n_max"),
    _site("DimTable.admit-n_max", lambda v: DimTable(P11).admit(v), "n_max"),
    _site("PathColumn-depth", lambda v: PathColumn(P11, [1, 0, 1], v).dim(3, 2), "depth"),
    _site("path_column-depth", lambda v: path_column(WORD, P11, v).dim(3, 2), "depth"),
    _site("VertexCone-n", lambda v: VertexCone(P11, v, 1).dim(2, 1), "n", stand_in=True),
    _site("VertexCone-kap", lambda v: VertexCone(P11, 3, v).dim(3, 1), "kap", None,
          stand_in=True),
    _site("VertexDescent-n", lambda v: VertexDescent(P11, v, 1).dim(2, 1), "n",
          stand_in=True),
    _site("VertexDescent-kap", lambda v: VertexDescent(P11, 3, v).dim(3, 1), "kap", None,
          stand_in=True),
    _site("minimal_word-n", lambda v: minimal_word(v, 1, P11), "n"),
    _site("minimal_word-kap", lambda v: minimal_word(3, v, P11), "kap", None),
    _site("maximal_word-n", lambda v: maximal_word(v, 1, P11), "n"),
    _site("maximal_word-kap", lambda v: maximal_word(3, v, P11), "kap", None),
    _site("iter_tower-n", lambda v: list(iter_tower(v, 1, P11)), "n"),
    _site("iter_tower-kap", lambda v: list(iter_tower(3, v, P11)), "kap", None),
    _site("PathPrefix-max_level", lambda v: PathPrefix(WORD, max_level=v).prefix(2),
          "max_level", none_ok=True),
    _site("PathPrefix.prefix-n", lambda v: PathPrefix(WORD).prefix(v), "n"),
    _site("prefix_walk-n_max", lambda v: list(prefix_walk(WORD, T11, v)), "n_max",
          none_ok=True),
    _site("jump-steps", lambda v: jump(WORD, P11, v), "steps"),
    _site("unrank-n", lambda v: unrank(v, 1, 1, T11), "n"),
    _site("unrank-kap", lambda v: unrank(3, v, 1, T11), "kap", None),
    _site("unrank-index", lambda v: unrank(3, 1, v, T11), "index", None),
    _site("unrank-n-cone", lambda v: unrank(v, 1, 1, VertexCone(P11, 3, 1)), "n",
          stand_in=True),
    _site("stationary_points-m", lambda v: stationary_points(MP11, v), "m"),
    _site("decode_digits-m", lambda v: decode_digits(MP11, 0.3, v), "m"),
    _site("sample_word-n", lambda v: sample_word(MP11, v, 0), "n"),
    _site("CylFunction-N", lambda v: CylFunction(v, {}), "N", 1),
    _site("CylFunction.from_table-N", lambda v: CylFunction.from_table(P11, v, sum), "N", 1),
    _site("tower_total-n", lambda v: tower_total(h_coeffs(G2, P11), v, 1, T11), "n", 2),
    _site("tower_total-kap", lambda v: tower_total(h_coeffs(G2, P11), 3, v, T11), "kap", None),
    _site("node_grid-n", lambda v: node_grid(v, 2, 1, T11), "n", 1),
    _site("node_grid-kap", lambda v: node_grid(4, v, 1, T11), "kap", None),
    _site("node_grid-m", lambda v: node_grid(4, 2, v, T11), "m"),
    _site("fluctuation_curve-n", lambda v: fluctuation_curve(G1, v, 4, 2, T11), "n"),
    _site("fluctuation_curve-kap", lambda v: fluctuation_curve(G1, 8, v, 2, T11), "kap", None),
    _site("fluctuation_curve-m", lambda v: fluctuation_curve(G1, 8, 4, v, T11), "m"),
    _site("fluctuation_curve-n-column",
          lambda v: fluctuation_curve(G1, v, 4, 2, PathColumn(P11, [1, 0] * 4, 3)), "n",
          stand_in=True),
    _site("extract_limiting_curve-m",
          lambda v: extract_limiting_curve(G1, _finite_path(), P11, m=v), "m"),
    _site("extract_limiting_curve-n_max",
          lambda v: extract_limiting_curve(G1, _finite_path(), P11, n_max=v), "n_max"),
    _site("extract_limiting_curve-align",
          lambda v: extract_limiting_curve(G1, _finite_path(), P11, mp=MP11, align=v),
          "align"),
    _site("cohomology_verdict-n_max", lambda v: cohomology_verdict(G1, DimTable(P11), v),
          "n_max", 1),
    _site("cohomology_verdict-m", lambda v: cohomology_verdict(G1, DimTable(P11), 6, v), "m"),
    _site("central_vertex-n", lambda v: central_vertex(T11, v), "n"),
    _site("measure_ray-n", lambda v: measure_ray(MP11, v), "n"),
    _site("jet_const-order", lambda v: jet_const(0.5, v), "order"),
    _site("jet_var-order", lambda v: jet_var(0.5, v), "order"),
    _site("t_jet-order", lambda v: t_jet(P11, 0.5, v), "order"),
    _site("coding_map-depth", lambda v: coding_map(P11, 0.5, 0.5, 0.3, v), "depth", 1),
    _site("self_affinity_residual-depth",
          lambda v: self_affinity_residual(P11, 0.5, 0.5, (0, 1), 0.3, v), "depth", 1),
    _site("takagi_function-k", lambda v: takagi_function(P112, 0.25, v, 0.3), "k"),
    _site("takagi_function-depth", lambda v: takagi_function(P112, 0.25, 1, 0.3, v),
          "depth", 1),
    _site("takagi_grid-k", lambda v: takagi_grid(P112, 0.25, v, 4), "k"),
    _site("takagi_grid-grid", lambda v: takagi_grid(P112, 0.25, 1, v), "grid", 1),
    _site("takagi_grid-depth", lambda v: takagi_grid(P112, 0.25, 1, 4, v), "depth", 1),
    _site("parabola_profile-d", lambda v: parabola_profile(v, 4), "d", 1),
    _site("parabola_profile-grid", lambda v: parabola_profile(2, v), "grid", 1),
    _site("parabola_profile-depth", lambda v: parabola_profile(2, 4, v), "depth", 1),
]

HUGE = 2 ** 64      # past every budget, and past the interpreter's index range
COUNT_LIKE = st.one_of(
    st.booleans(),
    st.integers(-10, 10).map(float),                              # integral float
    st.floats().filter(lambda f: not f.is_integer()),             # nan and inf too
    st.text(max_size=3),
    st.none(),
    st.integers(max_value=-1),
    st.integers(HUGE, 2 ** 80),
)


@pytest.mark.parametrize("call, name, lo, none_ok, stand_in", SITES)
@settings(max_examples=12, deadline=None)
@example(value=True)
@example(value=2.0)
@example(value=2.5)
@example(value="3")
@example(value=None)
@example(value=-1)
@example(value=HUGE)
@given(value=COUNT_LIKE)
def test_every_count_is_an_int_at_least_its_floor_or_refused_by_name(
        call, name, lo, none_ok, stand_in, value):
    # a valid count (a huge int, a negative kappa) is the call's own valid
    # call: it answers, or refuses as the domain does (a budget, an empty
    # tower, a path that ends), or raises a stand-in's documented KeyError;
    # every other value is refused by name with _count's text
    valid = (value is None and none_ok
             or type(value) is int and (lo is None or value >= lo))
    if not valid:
        with pytest.raises(ValueError) as exc:
            call(value)
        assert type(exc.value) is ValueError and str(exc.value) == _count_text(name, lo, value)
        return
    try:
        call(value)
    except PolyadicError:
        pass
    except KeyError:
        assert stand_in
    except ValueError as exc:
        assert type(exc) is ValueError and (name in str(exc) or str(value) in str(exc))


_COUNT_NAMES = {"n", "kap", "m", "N", "n_max", "depth", "k", "grid", "d", "order",
                "steps", "index", "max_level", "align"}
# the hot reads keep their own checks: a call per entry there would cost the walks
_HOT = {"DimTable.row-n", "DimTable.dim-n", "DimTable.dim-k", "PathPrefix.letter-n"}


def test_the_property_covers_every_count_parameter_of_the_public_names():
    # the dataclasses (GenPolynomial, LetterTable, MeasureParams, HCoeffs,
    # PolygonalCurve, Jet) are records the library builds and hands back
    public = {name: getattr(polyadic, name) for name in polyadic.__all__}
    public["takagi_grid"] = takagi_grid
    calls = {}
    for name, obj in public.items():
        if (not callable(obj) or dataclasses.is_dataclass(obj)
                or isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        calls[name] = obj
        if isinstance(obj, type):
            calls.update({f"{name}.{m}": getattr(obj, m) for m in vars(obj)
                          if not m.startswith("_") and callable(getattr(obj, m))})
    needed = {f"{call}-{p}" for call, fn in calls.items()
              for p in inspect.signature(fn).parameters if p in _COUNT_NAMES}
    assert needed - _HOT - {site.id for site in SITES} == set()


# -- the two mended faults ----------------------------------------------------

def test_word_to_string_refuses_bool_and_float_letters_and_keeps_every_real_word():
    for word, letter in [((True, False), True), ((0, 1.0), 1.0), ((1, False, 0), False)]:
        with pytest.raises(ValueError) as exc:
            word_to_string(word, P11)
        assert str(exc.value) == f"letter {letter!r} is not an integer"
    assert word_to_string((0, 1, 1, 0), P11) == "0110"
    assert word_to_string((), P11) == ""
    assert word_to_string(tuple(range(10)), GenPolynomial((1,) * 10)) == "0123456789"
    assert word_to_string((10, 0), GenPolynomial((1,) * 11)) == "10,0"


def test_path_column_over_a_finite_word_raises_key_error_past_its_end():
    column = path_column((0, 1), P11)
    assert column.dim(2, 1) == 2
    with pytest.raises(KeyError):
        column.dim(3, 1)


# -- one rule for q ----------------------------------------------------------

def _clear_q_caches():
    for cached in (measure._root, measure.measure_params, measure.fixed_coder,
                   measure.digit_horizon, takagi._letter_jets):
        cached.cache_clear()


def _warm_q_caches(poly, q):
    measure_params(poly, q), measure.fixed_coder(poly, q), measure.digit_horizon(poly, q, 1, 60)
    if poly.degree:
        takagi._letter_jets(poly, q, 2)


# each call of a bad q; ``good`` is a valid q of the same system for a second q
Q_CALLS = {
    "measure_params": lambda p, q, good: measure_params(p, q),
    "solve_t": lambda p, q, good: solve_t(p, q),
    "fixed_coder": lambda p, q, good: measure.fixed_coder(p, q),
    "digit_horizon": lambda p, q, good: measure.digit_horizon(p, q, 1, 60),
    "t_jet": lambda p, q, good: t_jet(p, q, 2),
    "takagi_function": lambda p, q, good: takagi_function(p, q, 1, 0.3),
    "coding_map-q1": lambda p, q, good: coding_map(p, q, good, 0.3),
    "coding_map-q2": lambda p, q, good: coding_map(p, good, q, 0.3),
}


@pytest.mark.parametrize("call", Q_CALLS.values(), ids=Q_CALLS)
def test_a_q_that_is_not_a_float_is_refused_cold_and_warm(call):
    # each bad q beside the float its cache key would equal without typed=True
    cases = [(P11, Fraction(1, 3), 1 / 3), (P11, Decimal("0.3"), 0.3),
             (P11, Fraction(1, 2), 0.5), (P11, Decimal("0.5"), 0.5), (P1, True, 1.0),
             (P11, "0.5", 0.5)]
    for poly, bad, good in cases:
        if poly is P1 and call is Q_CALLS["t_jet"]:
            continue                # degree 0 has no free parameter to expand in
        _clear_q_caches()
        for warm in (False, True):
            if warm:
                _warm_q_caches(poly, good)
            with pytest.raises(ValueError) as exc:
                call(poly, bad, good)
            assert str(exc.value) == f"q must be a float, got {bad!r} of type {type(bad).__name__}"
    _clear_q_caches()


@pytest.mark.parametrize("argv, text", [
    (("succ", "--poly", "1,1", "--word", "0110", "--steps", "-1"),
     "error: --steps must be an integer >= 0, got -1\n"),
    (("takagi", "--poly", "1,1", "--q", "0.5", "--grid", "0"),
     "error: grid must be an integer >= 1, got 0\n"),
])
def test_the_command_refuses_a_count_by_name_before_any_output(capsys, argv, text):
    assert main(list(argv)) == 1
    assert capsys.readouterr() == ("", text)
