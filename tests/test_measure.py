import math
import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice, product

from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import REF_BITS, reference_weights
from polyadic import measure
from polyadic import (CapacityError, DimTable, GenPolynomial, NoRoot,
                      cylinder_measure, decode_digits, encode_theta, kappa,
                      letter_stream, letter_table, measure_params, sample_word,
                      solve_t, stationary_points, weight_residual)

P11 = GenPolynomial((1, 1))
P111 = GenPolynomial((1, 1, 1))
P113 = GenPolynomial((1, 1, 3))


def test_solve_t_known_values():
    assert solve_t(P11, 0.3) == pytest.approx(0.7, rel=1e-15)
    assert solve_t(P111, 1 / 3) == pytest.approx(1 / 3, abs=1e-14)
    closed = (-0.25 + math.sqrt(13 / 16)) / 2
    assert solve_t(P111, 0.25) == pytest.approx(closed, rel=1e-13)


def test_solve_t_rejects_bad_q():
    with pytest.raises(NoRoot):
        solve_t(GenPolynomial((2, 1)), 0.6)     # q >= 1/a0
    with pytest.raises(NoRoot):
        solve_t(P11, -0.1)


def test_degree_zero_measure():
    poly = GenPolynomial((3,))
    mp = measure_params(poly, 1 / 3)
    assert mp.weights == (1 / 3, 1 / 3, 1 / 3)
    with pytest.raises(NoRoot):
        solve_t(poly, 0.2)


def test_residual_small_across_grid():
    for coeffs in ((1, 1), (2, 1), (1, 1, 3), (1, 2, 1, 1)):
        poly = GenPolynomial(coeffs)
        for frac in (0.05, 0.2, 0.5, 0.8, 0.95):
            q = frac / poly.coeffs[0]
            t = solve_t(poly, q)
            assert 0 < t < 1
            assert abs(weight_residual(poly, q, t)) <= 1e-14


def _exact_weight_sum_minus_one(coeffs, q: Fraction, t: Fraction) -> Fraction:
    """sum_s a_s t^s / q^(s-1) - 1 in exact arithmetic, increasing in t."""
    return sum(a * t ** s / q ** (s - 1) for s, a in enumerate(coeffs)) - 1


@settings(max_examples=300, deadline=None)
@given(coeffs=st.integers(1, 8).flatmap(
           lambda d: st.lists(st.integers(1, 9), min_size=d + 1, max_size=d + 1)),
       frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       x=st.floats(0.0, 320.0))
def test_measure_params_root_within_8_ulp_at_any_q(coeffs, frac, x):
    # every q in (0, 1/a_0) down to the subnormals has a measure: the weights
    # sum to one and t is within 8 ulp of the exact root, which lies where
    # the exact weight sum crosses one
    q = frac / coeffs[0] * 10.0 ** -x
    assume(0.0 < q < 1.0 / coeffs[0])
    mp = measure_params(GenPolynomial(tuple(coeffs)), q)
    assert abs(math.fsum(mp.weights) - 1.0) <= 1e-15
    reach = 8 * math.ulp(mp.t)
    q_exact = Fraction(q)
    assert _exact_weight_sum_minus_one(coeffs, q_exact, Fraction(mp.t - reach)) <= 0
    assert _exact_weight_sum_minus_one(coeffs, q_exact, Fraction(mp.t + reach)) >= 0
    # the integer root n / 2^e is the exact root rounded to nearest: the root
    # lies within half a unit of it
    n, e = measure._root(GenPolynomial(tuple(coeffs)), q)[:2]
    assert _exact_weight_sum_minus_one(coeffs, q_exact, Fraction(2 * n - 1, 2 << e)) <= 0
    assert _exact_weight_sum_minus_one(coeffs, q_exact, Fraction(2 * n + 1, 2 << e)) >= 0
    assert mp.t == n / (1 << e)


def test_root_holds_one_step_ratio_at_a_time():
    # step ratio s has about s times the root's bits: all d + 1 at once are
    # O(d^2) bits (8 MB at degree 400), one at a time O(d)
    measure._root.cache_clear()
    tracemalloc.start()
    try:
        measure._root(GenPolynomial((1,) * 401), 0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coder_integers_are_pinned():
    # the coder's weights in units of 2^-PREC: a change to the root's scale
    # or to the rounding of a weight moves them
    weights, lows = measure.fixed_coder(GenPolynomial((1, 1, 2)), 0.1789)
    assert weights == (1855346546943139786649241610241667179905462965429952863853,
                       1855346546943139786649241610241667179905462965429952863853,
                       1443435141039723980143856906345122971453392808757360542503,
                       1122973500460677210393449296379209084838036704846768242687)
    assert lows == (0, *accumulate(weights[:-1]))


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 1, 1), (1, 1, 2), (1, 2, 1),
                                    (3, 1, 2), (1, 2, 1, 1)])
def test_letter_weights_are_the_reference_weights_rounded_once(coeffs):
    # each float weight is the exact weight at the exact root, correctly
    # rounded; the reference solves for t on its own at 1088 bits
    for frac in (0.05, 0.2, 0.5, 0.8, 0.95):
        q = frac / coeffs[0]
        expect = tuple(float(Fraction(w, 1 << REF_BITS)) for w in reference_weights(coeffs, q))
        assert measure_params(GenPolynomial(coeffs), q).weights == expect


def test_letter_weights_examples():
    mp = measure_params(P11, 0.3)
    assert mp.weights[0] == pytest.approx(0.7, rel=1e-14)   # step-1 letter
    assert mp.weights[1] == 0.3                              # step-0 letter
    mp = measure_params(P111, 1 / 3)
    assert all(w == pytest.approx(1 / 3, abs=1e-13) for w in mp.weights)
    mp = measure_params(GenPolynomial((2, 1)), 0.2)
    # letter 0 steps by one and carries t; the two step-0 letters carry q
    assert mp.weights == pytest.approx((mp.t, 0.2, 0.2))
    assert mp.t == pytest.approx(1 - 2 * 0.2, rel=1e-14)
    assert sum(mp.weights) == pytest.approx(1.0, abs=1e-14)


def test_weights_constant_on_groups():
    mp = measure_params(P113, 0.11)
    lt = letter_table(P113)
    for c1 in range(5):
        for c2 in range(5):
            if lt.kstep[c1] == lt.kstep[c2]:
                assert mp.weights[c1] == mp.weights[c2]


def test_degenerate_limits():
    # q near the top of its range concentrates on the step-0 letters,
    # q near zero on the step-d letters
    poly = GenPolynomial((2, 1, 3))
    hi = measure_params(poly, (1 - 1e-9) / 2)
    lt = letter_table(poly)
    for c, w in enumerate(hi.weights):
        target = 0.5 if lt.kstep[c] == 0 else 0.0
        assert w == pytest.approx(target, abs=1e-4)
    lo = measure_params(poly, 1e-9)
    for c, w in enumerate(lo.weights):
        target = 1 / 3 if lt.kstep[c] == 2 else 0.0
        assert w == pytest.approx(target, abs=1e-3)


def test_cylinder_measure():
    mp = measure_params(P11, 0.3)
    assert cylinder_measure(mp, ()) == 1.0
    assert cylinder_measure(mp, (0, 1)) == pytest.approx(0.21, rel=1e-14)
    for n in range(7):
        total = sum(cylinder_measure(mp, w) for w in product((0, 1), repeat=n))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_cylinder_centrality_exhaustive():
    mp = measure_params(P113, 0.13)
    for n in range(7):
        by_vertex = {}
        for w in product(range(5), repeat=n):
            key = kappa(w, P113)
            got = cylinder_measure(mp, w)
            assert got == pytest.approx(by_vertex.setdefault(key, got), rel=1e-12)
            # closed form q^n (t/q)^kappa
            assert got == pytest.approx(mp.q ** n * (mp.t / mp.q) ** key, rel=1e-11)


def test_tower_interval_identity_exact_rational():
    # degree 1 keeps t rational: sum over the tower = dim * q^n (t/q)^kappa
    poly = GenPolynomial((2, 3))
    table = DimTable(poly, 6)
    q = Fraction(1, 5)
    t = (1 - 2 * q) / 3
    ks = letter_table(poly).kstep
    for n in range(7):
        for kap in range(n + 1):
            total = sum(
                math.prod([t if ks[c] else q for c in w], start=Fraction(1))
                for w in product(range(5), repeat=n) if kappa(w, poly) == kap)
            assert total == table.dim(n, kap) * q ** n * (t / q) ** kap


def test_sampling_determinism_and_frequencies():
    mp = measure_params(P111, 0.22)
    assert sample_word(mp, 50, 7) == sample_word(mp, 50, 7)
    assert sample_word(mp, 50, 7) != sample_word(mp, 50, 8)
    word = sample_word(mp, 100_000, 5)
    counts = Counter(word)
    for c, w in enumerate(mp.weights):
        sd = math.sqrt(w * (1 - w) * len(word))
        assert abs(counts[c] - w * len(word)) <= 3 * sd
    # mean co-step converges to 2q + t for this polynomial
    ks = letter_table(P111).kstep
    mean = sum(P111.degree - ks[c] for c in word) / len(word)
    assert mean == pytest.approx(2 * 0.22 + mp.t, abs=0.01)


def test_letter_stream_matches_sample():
    mp = measure_params(P113, 0.15)
    stream = letter_stream(mp, 3)
    assert tuple(next(stream) for _ in range(40)) == sample_word(mp, 40, 3)


def test_sampled_letters_are_pinned():
    # recorded with the running-sum sampler: a seed must keep its letters
    assert sample_word(measure_params(P113, 0.15), 40, 3) == (
        1, 2, 1, 2, 2, 0, 0, 3, 1, 1, 4, 2, 3, 2, 2, 0, 2, 4, 2, 3,
        3, 0, 3, 2, 1, 0, 4, 2, 3, 4, 3, 4, 1, 3, 1, 4, 4, 0, 0, 0)
    stream = letter_stream(measure_params(GenPolynomial((1, 1, 2)), 0.25), 2)
    assert tuple(islice(stream, 60)) == (
        3, 3, 0, 0, 3, 2, 2, 1, 2, 2, 2, 0, 1, 1, 2, 3, 3, 2, 1, 1,
        0, 0, 1, 1, 1, 3, 2, 2, 0, 0, 1, 0, 2, 3, 2, 0, 3, 3, 2, 3,
        3, 3, 1, 3, 3, 0, 3, 2, 1, 2, 1, 3, 2, 3, 1, 3, 3, 1, 2, 3)


@pytest.mark.parametrize("coeffs,q", [((1, 1), 0.3), ((2, 1), 0.2), ((3,), 1 / 3),
                                      ((1, 1, 3), 0.11), ((1, 2, 1, 1), 0.3)])
def test_letter_stream_matches_cumulative_draws(coeffs, q):
    # the same uniforms drawn against the running sums w_0, w_0 + w_1, ...,
    # the last forced to 1
    mp = measure_params(GenPolynomial(coeffs), q)
    cums = list(accumulate(mp.weights))
    cums[-1] = 1.0
    rng = random.Random(17)
    expected = [bisect_right(cums, rng.random(), 0, len(cums) - 1)
                for _ in range(5000)]
    assert list(islice(letter_stream(mp, 17), 5000)) == expected


def test_encode_theta_label_order():
    mp = measure_params(P11, 0.5)
    assert encode_theta(mp, (1, 0, 1)) == 0.625
    mp3 = measure_params(P11, 0.3)
    assert encode_theta(mp3, (1,)) == pytest.approx(0.7, rel=1e-14)
    mpu = measure_params(P111, 1 / 3)
    assert encode_theta(mpu, (2,)) == pytest.approx(2 / 3, abs=1e-13)
    assert encode_theta(mpu, ()) == 0.0


def test_theta_at_uniform_q_is_positional():
    mp = measure_params(P113, 1 / 5)
    rng = random.Random(9)
    for _ in range(1000):
        w = tuple(rng.randrange(5) for _ in range(30))
        ref = sum(c / 5 ** (i + 1) for i, c in enumerate(w))
        assert abs(encode_theta(mp, w) - ref) <= 1e-12


def test_decode_digits():
    mp = measure_params(P11, 0.5)
    assert decode_digits(mp, 0.625, 3) == (1, 0, 1)
    # stationary points continue with the lowest letter
    assert decode_digits(mp, 0.625, 6) == (1, 0, 1, 0, 0, 0)
    # x = 1 takes the top letter at every depth
    assert decode_digits(mp, 1.0, 4) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        decode_digits(mp, 1.5, 3)


def test_decode_encode_round_trip_bound():
    mp = measure_params(P113, 0.11)
    p_max = max(mp.weights)
    bound = p_max ** 40 / (1 - p_max) + 5e-13   # tail bound plus float slop
    rng = random.Random(12)
    for _ in range(300):
        x = rng.random()
        back = encode_theta(mp, decode_digits(mp, x, 40))
        assert back <= x + 1e-12
        assert abs(back - x) <= bound


def test_stationary_points():
    mp = measure_params(P11, 0.3)
    assert stationary_points(mp, 1) == pytest.approx([0.0, 0.7])
    mpu = measure_params(P111, 1 / 3)
    assert stationary_points(mpu, 1) == pytest.approx([0.0, 1 / 3, 2 / 3])
    # consecutive gaps are the cylinder measures of the rank-m words in order
    mp2 = measure_params(P113, 0.14)
    pts = stationary_points(mp2, 2)
    words = sorted(product(range(5), repeat=2),
                   key=lambda w: encode_theta(mp2, w))
    gaps = [b - a for a, b in zip(pts, pts[1:])] + [1.0 - pts[-1]]
    for w, gap in zip(words, gaps):
        assert gap == pytest.approx(cylinder_measure(mp2, w), abs=1e-12)
    with pytest.raises(CapacityError):
        stationary_points(mp2, 12)


@pytest.mark.parametrize("coeffs, q, m", [((1, 1, 3), 0.14, 3), ((1, 1), 0.3, 6),
                                          ((2, 1, 1), 0.31, 3)])
def test_stationary_points_are_the_encoded_words(coeffs, q, m):
    # bit for bit: a separate recursion over (start, scale) rounds differently
    mp = measure_params(GenPolynomial(coeffs), q)
    words = product(range(len(mp.weights)), repeat=m)
    assert stationary_points(mp, m) == sorted({encode_theta(mp, w) for w in words})


def vectorized_stationary_points(mp, m):
    """encode's K = 0 step run over all r^m words at once, one list a letter."""
    r = len(mp.weights)
    values = [mp.lows[0]]
    for _ in range(m):
        values = [mp.lows[c] + mp.weights[c] * v for c in range(r) for v in values]
    return sorted(set(values))


@settings(max_examples=100, deadline=None)
@given(coeffs=st.lists(st.integers(1, 3), min_size=2, max_size=4),
       frac=st.floats(0.05, 0.95), data=st.data())
def test_stationary_points_match_the_vectorized_recursion(coeffs, frac, data):
    # bit for bit, against a recursion over word lists that shares no code
    # with encode
    mp = measure_params(GenPolynomial(tuple(coeffs)), frac / coeffs[0])
    r = len(mp.weights)
    m = data.draw(st.integers(0, 6).filter(lambda m: r ** m <= 2000))
    got = stationary_points(mp, m)
    assert [x.hex() for x in got] == [x.hex() for x in vectorized_stationary_points(mp, m)]


def test_stationary_points_refuse_a_negative_depth():
    mp = measure_params(P11, 0.3)
    with mock.patch.object(measure, "product") as words:
        for m in (-1, -5):
            with pytest.raises(ValueError, match=f"^m must be an integer >= 0, got {m}$"):
                stationary_points(mp, m)
    assert not words.called
    assert stationary_points(mp, 0) == [0.0]
