"""The digit coder against the reference decoder in conftest, and its properties."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_digits, reference_weights
from polyadic import GenPolynomial, coding_map, measure_params, takagi_function
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
    x = encode(weights, low_sums(weights, Fraction(0)), word)
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
    as_float = encode(mp.weights, mp.lows, word)
    as_fraction, _ = cylinder(poly, q, word)
    as_jet = encode(*_letter_jets(poly, q, 2), word).coeffs[0]
    assert abs(as_float - as_fraction) <= 1e-14
    assert abs(as_jet - as_float) <= 1e-14


def test_empty_word_is_the_rings_zero():
    mp = measure_params(GenPolynomial((1, 1)), 0.3)
    assert encode(mp.weights, mp.lows, ()) == 0.0
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
