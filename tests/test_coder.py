"""The digit coder against the reference decoder in conftest, and its properties."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_digits, reference_encode, reference_weights
from polyadic import (GenPolynomial, Jet, coding_map, cylinder_measure, kappa,
                      letter_table, measure_params, takagi_function)
from polyadic.measure import cylinder, decode, encode, fixed_coder, low_sums
from polyadic.takagi import _letter_jets

DEPTH = 60


def _seeded_qs(n=36, seed=20170125):
    rng = random.Random(seed)
    return [round(rng.uniform(0.15, 0.35), 4) for _ in range(n)]


GRIDS = ([((1, 1), 0.5, 256), ((1, 1, 2), 0.25, 256)]
         + [((1, 1, 2), q, 256) for q in _seeded_qs()]
         + [((1,) * 33, 1.0 / 33, 264)])      # parabola --d 32 --grid 264


@pytest.mark.parametrize("coeffs,q,grid", GRIDS,
                         ids=[f"{len(c)}letters-q{q}-grid{g}" for c, q, g in GRIDS])
def test_digits_match_reference(coeffs, q, grid):
    poly = GenPolynomial(coeffs)
    weights = reference_weights(coeffs, q)
    for i in range(grid + 1):
        x = i / grid
        ref = reference_digits(weights, x, DEPTH)
        assert len(ref) >= 25
        assert decode(poly, q, x, DEPTH)[:len(ref)] == ref, f"x = {i}/{grid}"


def test_fixed_weights_tile_the_unit_interval():
    for coeffs, q in (((1, 1), 0.3), ((1, 1, 3), 0.11), ((3,), 1 / 3), ((1,) * 33, 1 / 33)):
        weights, lows = fixed_coder(GenPolynomial(coeffs), q)
        assert sum(weights) == 1 << 192 and lows[0] == 0
        if len(coeffs) == 1:
            continue    # the float 1/3 leaves 2^-54 of [0, 1] to the top letter
        ref = reference_weights(coeffs, q)
        assert all(abs(w * 2 ** 896 - r) <= 2 ** 896 for w, r in zip(weights, ref))


# Systems whose weights are exact dyadic rationals, so every word's coding is
# a float and the boundary policy can be checked exactly.
DYADIC = [((1, 1), 0.5, Fraction(1, 2)), ((1, 1, 2), 0.25, Fraction(1, 4)),
          ((1, 1, 1, 1), 0.25, Fraction(1, 4))]


@settings(max_examples=200, deadline=None)
@given(system=st.sampled_from(DYADIC), data=st.data())
def test_stationary_points_decode_to_padded_word(system, data):
    coeffs, q, w = system
    r = sum(coeffs)
    word = tuple(data.draw(st.lists(st.integers(0, r - 1), max_size=20)))
    weights = [w] * r
    x = encode((weights,), (low_sums(weights, Fraction(0)),), word)
    assert float(x) == x
    got = decode(GenPolynomial(coeffs), q, float(x), 30)
    assert got == word + (0,) * (30 - len(word))


@settings(max_examples=100, deadline=None)
@given(coeffs=st.sampled_from([(1, 1), (1, 1, 2), (2, 1, 1), (1, 1, 3)]),
       frac=st.floats(0.15, 0.85),
       data=st.data())
def test_encodes_agree_across_rings(coeffs, frac, data):
    poly = GenPolynomial(coeffs)
    q = frac / coeffs[0]
    word = tuple(data.draw(st.lists(st.integers(0, poly.alphabet_size - 1), max_size=40)))
    mp = measure_params(poly, q)
    as_float = encode((mp.weights,), (mp.lows,), word)
    as_fraction, _ = cylinder(poly, q, word)
    wcols, lcols = _letter_jets(poly, q, 2)
    as_jet = reference_encode(_jets(wcols), _jets(lcols), word).coeffs[0]
    assert abs(as_float - as_fraction) <= 1e-14
    assert abs(as_jet - as_float) <= 1e-14


def _jets(cols, magnitude=float):
    """Per-letter jets from Taylor columns (cols[i][c]: coefficient i of letter c)."""
    return [Jet(tuple(magnitude(v) for v in col)) for col in zip(*cols)]


TAYLOR_SYSTEMS = [((1, 1), 0.3), ((1, 1, 2), 0.25), ((2, 1, 1), 0.2),
                  ((1,) * 33, 1 / 33)]


@settings(max_examples=200, deadline=None)
@given(system=st.sampled_from(TAYLOR_SYSTEMS), order=st.integers(0, 8),
       data=st.data())
def test_taylor_encode_matches_the_jet_horner(system, order, data):
    coeffs, q = system
    poly = GenPolynomial(coeffs)
    word = tuple(data.draw(st.lists(st.integers(0, poly.alphabet_size - 1), max_size=60)))
    wcols, lcols = _letter_jets(poly, q, order)
    want = reference_encode(_jets(wcols), _jets(lcols), word).coeffs[order]
    # relative to the same Horner over magnitudes, which bounds every term
    scale = reference_encode(_jets(wcols, abs), _jets(lcols, abs), word).coeffs[order]
    assert abs(encode(wcols, lcols, word) - want) <= 1e-12 * scale


def _parent_taylor_encode(wcols, lcols, digits):
    """The Taylor coder as it stood beside the single-column Horner, with explicit
    zero offsets in the ring of ``lcols[0][0]``: pass 0 adds that zero at every
    step, and each higher pass's offset starts at it."""
    seq = digits[::-1]
    zero, w0 = lcols[0][0], wcols[0]
    passes = []
    for i, low in enumerate(lcols):
        offset = [zero] * len(seq)
        for j in range(1, i + 1):
            wj = wcols[j]
            offset = [o + wj[c] * a for o, c, a in zip(offset, seq, passes[i - j])]
        acc = zero
        path = [acc]
        for c, o in zip(seq, offset):
            acc = low[c] + (w0[c] * acc + o)
            path.append(acc)
        passes.append(path)
    return acc


CODING_SYSTEMS = [((1, 1), 0.5), ((1, 1), 0.3), ((1, 1, 3), 0.12), ((1, 1, 2), 0.25),
                  ((3,), 1 / 3)]


@settings(max_examples=300, deadline=None)
@given(system=st.sampled_from(CODING_SYSTEMS), data=st.data())
def test_plain_coding_is_the_horner_bit_for_bit(system, data):
    coeffs, q = system
    poly = GenPolynomial(coeffs)
    word = tuple(data.draw(st.lists(st.integers(0, poly.alphabet_size - 1), max_size=80)))
    mp = measure_params(poly, q)
    for w in (word, ()):
        got = encode((mp.weights,), (mp.lows,), w)
        assert got.hex() == reference_encode(mp.weights, mp.lows, w).hex()
    weights, lows = fixed_coder(poly, q)
    weights = [Fraction(v, 1 << 192) for v in weights]
    lows = [Fraction(v, 1 << 192) for v in lows]
    assert encode((weights,), (lows,), word) == reference_encode(weights, lows, word)


@settings(max_examples=200, deadline=None)
@given(system=st.sampled_from(TAYLOR_SYSTEMS), order=st.integers(0, 4), data=st.data())
def test_taylor_coefficients_are_the_float_passes_bit_for_bit(system, order, data):
    coeffs, q = system
    poly = GenPolynomial(coeffs)
    word = tuple(data.draw(st.lists(st.integers(0, poly.alphabet_size - 1), max_size=60)))
    wcols, lcols = _letter_jets(poly, q, order)
    for w in (word, ()):
        assert encode(wcols, lcols, w).hex() == _parent_taylor_encode(wcols, lcols, w).hex()


def _bit_words(r, rng):
    """Words that start or end with the lowest letter, runs of it, and random words."""
    top = r - 1
    fixed = [(), (0,), (top,), (0,) * 7, (0, top, 0), (top, 0, 0, 0), (0, 0, top),
             (top,) * 9 + (0,), (0,) + (top,) * 9]
    drawn = [tuple(rng.randrange(r) for _ in range(rng.randrange(1, 50))) for _ in range(24)]
    return fixed + drawn + [(0,) + w for w in drawn[:8]] + [w + (0,) for w in drawn[8:16]]


def _signed_variants(wcols):
    """The columns as given (the higher ones already hold negative entries), each
    higher column negated, and each with its first entry made -0.0."""
    yield wcols
    yield (wcols[0],) + tuple(tuple(-v for v in col) for col in wcols[1:])
    yield (wcols[0],) + tuple((-0.0,) + col[1:] for col in wcols[1:])


@pytest.mark.parametrize("coeffs,q", [((1, 1), 0.3), ((1, 1, 2), 0.2187), ((2, 1, 1, 2), 0.19)])
def test_encode_without_zero_offsets_keeps_every_bit(coeffs, q):
    # encode adds no zero offset; in floats that can move only the sign of a
    # zero, which the low sums drop, and in Fractions the two forms are equal.
    # The benchmark's takagi oracle reads coding_map, which runs this same
    # encode, so only a reference kept here can show a moved bit
    poly = GenPolynomial(coeffs)
    words = _bit_words(poly.alphabet_size, random.Random(sum(coeffs)))
    for k in range(4):
        for wcols in _signed_variants(_letter_jets(poly, q, k)[0]):
            assert k == 0 or any(math.copysign(1.0, v) < 0 for col in wcols[1:] for v in col)
            lcols = tuple(low_sums(col, 0.0) for col in wcols)
            exact = ([tuple(map(Fraction, col)) for col in wcols],
                     [low_sums(tuple(map(Fraction, col)), Fraction(0)) for col in wcols])
            for w in words:
                got, want = encode(wcols, lcols, w), _parent_taylor_encode(wcols, lcols, w)
                assert got.hex() == want.hex(), (k, w)
                assert encode(*exact, w) == _parent_taylor_encode(*exact, w)


@pytest.mark.parametrize("coeffs,q", [((1, 1), 0.3), ((1, 1, 2), 0.2187), ((2, 1, 1, 2), 0.19)])
def test_shared_column_loop_keeps_every_bit_to_order_8(coeffs, q):
    # columns 0 and 1 run in one loop, which keeps their accumulators only
    # where columns 2..K read them: every order from the plain coding to 8,
    # on -0.0 entries too, keeps the bits of one pass per column, and in
    # Fractions the two are equal (on the words of up to 12 letters: a
    # Fraction's terms grow with every digit); the empty word and each
    # one-letter word take every branch with no step or one
    poly = GenPolynomial(coeffs)
    r = poly.alphabet_size
    words = _bit_words(r, random.Random(sum(coeffs) + 8)) + [(c,) for c in range(r)]
    assert () in words
    for k in range(9):
        for wcols in _signed_variants(_letter_jets(poly, q, k)[0]):
            lcols = tuple(low_sums(col, 0.0) for col in wcols)
            exact = ([tuple(map(Fraction, col)) for col in wcols],
                     [low_sums(tuple(map(Fraction, col)), Fraction(0)) for col in wcols])
            for w in words:
                got, want = encode(wcols, lcols, w), _parent_taylor_encode(wcols, lcols, w)
                assert got.hex() == want.hex(), (k, w)
                if len(w) <= 12:
                    assert encode(*exact, w) == _parent_taylor_encode(*exact, w), (k, w)


MEASURE_SYSTEMS = [(1, 1), (1, 1, 2), (2, 1, 1), (1, 1, 3), (1, 2, 1), (3, 1, 2)]


@settings(max_examples=200, deadline=None)
@given(coeffs=st.sampled_from(MEASURE_SYSTEMS), frac=st.floats(0.15, 0.85),
       data=st.data())
def test_cylinder_measure_depends_only_on_the_end_vertex(coeffs, frac, data):
    poly = GenPolynomial(coeffs)
    mp = measure_params(poly, frac / coeffs[0])
    word = data.draw(st.lists(st.integers(0, poly.alphabet_size - 1), max_size=30))
    # another word into the same vertex: the steps reordered, each letter
    # swapped for any letter of the same step
    ks = letter_table(poly).kstep
    other = [data.draw(st.sampled_from([c for c in range(poly.alphabet_size)
                                        if ks[c] == ks[b]]))
             for b in data.draw(st.permutations(word))]
    assert kappa(other, poly) == kappa(word, poly)
    got = cylinder_measure(mp, word)
    assert cylinder_measure(mp, other) == pytest.approx(got, rel=1e-12)
    closed = mp.q ** len(word) * (mp.t / mp.q) ** kappa(word, poly)
    assert got == pytest.approx(closed, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(coeffs=st.sampled_from(MEASURE_SYSTEMS), f1=st.floats(0.15, 0.85),
       f2=st.floats(0.15, 0.85), x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
def test_coding_map_is_monotone(coeffs, f1, f2, x, y):
    poly = GenPolynomial(coeffs)
    q1, q2 = f1 / coeffs[0], f2 / coeffs[0]
    x, y = sorted((x, y))
    assert coding_map(poly, q1, q2, x) <= coding_map(poly, q1, q2, y)


def test_empty_word_is_the_rings_zero():
    mp = measure_params(GenPolynomial((1, 1)), 0.3)
    assert encode((mp.weights,), (mp.lows,), ()) == 0.0
    assert cylinder(GenPolynomial((1, 1)), 0.3, ()) == (0, 1)


def test_decode_clamps_outside_unit_interval():
    poly = GenPolynomial((1, 1, 2))
    assert decode(poly, 0.3, 1.5, 5) == (3,) * 5
    assert decode(poly, 0.3, 1.0, 5) == (3,) * 5
    assert decode(poly, 0.3, -0.5, 5) == (0,) * 5


def test_depth_must_be_positive():
    poly = GenPolynomial((1, 1))
    for depth in (0, -2):
        with pytest.raises(ValueError):
            takagi_function(poly, 0.5, 1, 0.3, depth)
        with pytest.raises(ValueError):
            coding_map(poly, 0.5, 0.4, 0.3, depth)


def test_runs_without_mpmath():
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import polyadic.cli\n"
        "from polyadic import (GenPolynomial, coding_map, parabola_profile,\n"
        "                      self_affinity_residual, takagi_function)\n"
        "p = GenPolynomial((1, 1, 2))\n"
        "takagi_function(p, 0.25, 1, 0.3)\n"
        "coding_map(p, 0.25, 0.3, 0.3)\n"
        "self_affinity_residual(p, 0.25, 0.3, (0, 2), 0.4)\n"
        "parabola_profile(4, 8)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
