import math
import random

import pytest

import polyadic.takagi
from conftest import classical_takagi, t_prime_closed_form
from polyadic import (CapacityError, DivisionByZeroJet, GenPolynomial, Jet,
                      MIRROR_SIGN, NoRoot, coding_map, cylinder_measure,
                      encode_theta, jet_const, jet_var, letter_table,
                      measure_params, parabola_profile, self_affinity_residual,
                      t_jet, takagi_function)
from polyadic.measure import _weights

P11 = GenPolynomial((1, 1))
P111 = GenPolynomial((1, 1, 1))
P112 = GenPolynomial((1, 1, 2))


def test_jet_square():
    q = 0.37
    assert (jet_var(q, 2) * jet_var(q, 2)).coeffs == pytest.approx((q * q, 2 * q, 1.0))


def test_jet_reciprocal():
    j = Jet((1.5, -0.3, 0.8, 0.1))
    assert (j * j.reciprocal()).coeffs == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-15)
    with pytest.raises(DivisionByZeroJet):
        Jet((0.0, 1.0)).reciprocal()


def test_jet_product_rule_matches_finite_differences():
    rng = random.Random(8)
    h = 1e-6
    for _ in range(40):
        a = (rng.uniform(0.5, 2.0), rng.uniform(-2, 2))
        b = (rng.uniform(0.5, 2.0), rng.uniform(-2, 2))
        got = (Jet(a) * Jet(b)).coeffs[1]
        fd = ((a[0] + a[1] * h) * (b[0] + b[1] * h)
              - (a[0] - a[1] * h) * (b[0] - b[1] * h)) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-6)


def test_jet_misc():
    j = Jet((2.0, 1.0, 0.5))
    assert (j ** 0).coeffs == (1.0, 0.0, 0.0)
    assert (j ** 3).coeffs == pytest.approx((j * j * j).coeffs)
    assert (j ** -1).coeffs == pytest.approx(j.reciprocal().coeffs)
    assert (1.0 - j).coeffs == pytest.approx((-1.0, -1.0, -0.5))
    assert (j / 2).coeffs == pytest.approx((1.0, 0.5, 0.25))
    with pytest.raises(ValueError):
        j + Jet((1.0, 1.0))
    assert jet_const(3.0, 0).coeffs == (3.0,)
    assert jet_var(3.0, 0).coeffs == (3.0,)


def test_t_jet_degree_one_exact():
    assert t_jet(P11, 0.3, 3).coeffs == pytest.approx((0.7, -1.0, 0.0, 0.0), abs=1e-15)


def test_t_jet_symmetric_first_derivative():
    for d in range(1, 9):
        poly = GenPolynomial((1,) * (d + 1))
        q = 1.0 / (d + 1)
        expect = -(2 - d) / d
        assert t_jet(poly, q, 1).coeffs[1] == pytest.approx(expect, abs=1e-10)
        assert t_prime_closed_form(poly, q) == pytest.approx(expect, abs=1e-10)


def test_t_jet_matches_closed_form():
    assert t_jet(P111, 0.25, 1).coeffs[1] == pytest.approx(
        t_prime_closed_form(P111, 0.25), rel=1e-12)
    rng = random.Random(21)
    for _ in range(30):
        coeffs = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
        poly = GenPolynomial(coeffs)
        q = rng.uniform(0.1, 0.9) / poly.coeffs[0]
        assert t_jet(poly, q, 2).coeffs[1] == pytest.approx(
            t_prime_closed_form(poly, q), rel=1e-10)


def test_t_jet_newton_steps_grow_with_the_bit_length_of_the_order(monkeypatch):
    # Newton in jet arithmetic doubles the number of correct coefficients, so
    # the loop stops after order.bit_length() + 2 steps even when the step
    # never falls below its stop threshold
    calls = []

    def counted(*args):
        calls.append(1)
        return _weights(*args)

    monkeypatch.setattr(polyadic.takagi, "_weights", counted)
    systems = [((3, 1, 2), 0.2), ((1, 1, 1, 1), 0.2), ((1, 1, 2), 0.25),
               ((2, 1, 1), 0.31), ((1, 2, 1), 0.2)]
    for coeffs, q in systems:
        poly = GenPolynomial(coeffs)
        for order in (1, 2, 3, 8, 50, 200):
            calls.clear()
            t = t_jet(poly, q, order)
            assert len(calls) <= order.bit_length() + 2
            assert t.coeffs[1] == pytest.approx(t_prime_closed_form(poly, q), rel=1e-12)
            # the weight equation sum_s a_s w_s - 1 holds to every order,
            # relative to the sum of its terms' magnitudes
            q2 = jet_var(q, order)
            stepping, _, by_step = _weights(poly, q2, t, range(len(coeffs)))
            residual = stepping - (1.0 - coeffs[0] * q2)
            scale = jet_const(1.0, order)
            for s, a in enumerate(coeffs):
                scale = scale + a * _magnitude(by_step[s])
            assert all(abs(r) <= 1e-12 * m
                       for r, m in zip(residual.coeffs, scale.coeffs))


def _magnitude(jet):
    return Jet(tuple(abs(c) for c in jet.coeffs))


def test_t_jet_degree_zero_raises():
    with pytest.raises(NoRoot):
        t_jet(GenPolynomial((4,)), 0.25, 1)


def test_coding_map_identity_and_monotonicity():
    for i in range(51):
        x = i / 50
        assert coding_map(P112, 0.3, 0.3, x) == pytest.approx(x, abs=1e-12)
    vals = [coding_map(P112, 0.25, 0.4, i / 128) for i in range(129)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_coding_map_is_distribution_function_from_uniform_base():
    # from q1 = 1/r the map sends a word's uniform coding to its q2 coding,
    # i.e. it is the distribution function of the coded measure
    from itertools import product
    poly = GenPolynomial((1, 1, 3))
    r = poly.alphabet_size
    mp1 = measure_params(poly, 1 / r)
    mp2 = measure_params(poly, 0.12)
    for w in product(range(r), repeat=3):
        x = encode_theta(mp1, w)
        assert coding_map(poly, 1 / r, 0.12, x) == pytest.approx(
            encode_theta(mp2, w), abs=1e-12)


def test_takagi_order_zero_is_identity():
    assert takagi_function(P11, 0.5, 0, 0.375) == 0.375


def test_takagi_reproduces_classical_curve():
    # two-letter system at q = 1/2: half the first derivative is the Takagi
    # curve, up to the orientation of the coding
    assert MIRROR_SIGN * 0.5 * takagi_function(P11, 0.5, 1, 0.5) == pytest.approx(
        0.5, abs=1e-10)
    for x in (0.125, 0.3125, 0.25, 0.75):
        ref = classical_takagi(x)
        assert MIRROR_SIGN * 0.5 * takagi_function(P11, 0.5, 1, x) == pytest.approx(
            ref, abs=1e-9)


def test_takagi_first_derivative_vs_finite_difference():
    h = 1e-5
    for poly in (P11, P112):
        worst = 0.0
        for i in range(0, 257, 8):
            x = i / 256
            t1 = takagi_function(poly, 0.25, 1, x)
            fd = (coding_map(poly, 0.25, 0.25 + h, x)
                  - coding_map(poly, 0.25, 0.25 - h, x)) / (2 * h)
            worst = max(worst, abs(t1 - fd))
        assert worst <= 1e-4


def test_continuity_modulus():
    poly, q = P112, 0.25
    mp = measure_params(poly, q)
    p_max = max(mp.weights)
    rng = random.Random(3)

    def modulus(m, samples=40):
        worst = 0.0
        for _ in range(samples):
            w = tuple(rng.randrange(poly.alphabet_size) for _ in range(m))
            lo = encode_theta(mp, w)
            width = cylinder_measure(mp, w)
            x, y = (lo + rng.random() * width for _ in range(2))
            worst = max(worst, abs(takagi_function(poly, q, 1, x)
                                   - takagi_function(poly, q, 1, y)))
        return worst

    c = modulus(10) / p_max ** 9.0
    for m in (15, 20):
        assert modulus(m) <= c * p_max ** (0.9 * m)


def test_two_scale_recursion_first_order():
    # differentiating the self-affinity on a rank-1 cylinder:
    # T1(x0 + w(c) x) = T1(x0) + w'(c) x + w(c) T1(x)
    for poly in (P11, P111, GenPolynomial((1, 2, 1))):
        q = 0.3 / poly.coeffs[0]
        mp = measure_params(poly, q)
        tj = t_jet(poly, q, 1)
        ks = letter_table(poly).kstep
        lows = [0.0]
        for w in mp.weights[:-1]:
            lows.append(lows[-1] + w)
        for c in range(poly.alphabet_size):
            wj = jet_var(q, 1) * (tj * jet_var(q, 1).reciprocal()) ** ks[c]
            base = takagi_function(poly, q, 1, lows[c])
            for x in (0.17, 0.5, 0.83):
                lhs = takagi_function(poly, q, 1, lows[c] + mp.weights[c] * x)
                rhs = base + wj.coeffs[1] * x + mp.weights[c] * takagi_function(poly, q, 1, x)
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_boundary_policy_consistency_of_coding_map():
    # a stationary point has a second representation ending in top letters;
    # the map lands on the same value through either, up to the truncation tail
    poly, q1, q2, depth = P11, 0.4, 0.55, 60
    mp1 = measure_params(poly, q1)
    mp2 = measure_params(poly, q2)
    x0 = encode_theta(mp1, (1,))
    low_digits = (1,) + (0,) * (depth - 1)
    high_digits = (0,) + (1,) * (depth - 1)
    assert encode_theta(mp1, high_digits) == pytest.approx(x0, abs=1e-12)
    got = coding_map(poly, q1, q2, x0, depth)
    p_max = max(max(mp1.weights), max(mp2.weights))
    tail = 2 * p_max ** (depth - 1) / (1 - p_max)
    assert got == pytest.approx(encode_theta(mp2, low_digits), abs=1e-12)
    assert abs(got - encode_theta(mp2, high_digits)) <= tail + 1e-12


def test_self_affinity_residual():
    assert self_affinity_residual(P112, 0.21, 0.37, (), 0.7) == 0.0
    assert self_affinity_residual(P112, 0.3, 0.3, (0, 2, 1), 0.35) <= 1e-12
    rng = random.Random(42)
    pool = [(1, 1), (1, 2), (2, 1), (1, 1, 1), (1, 1, 2), (2, 1, 1)]
    for _ in range(20):
        poly = GenPolynomial(rng.choice(pool))
        a0 = poly.coeffs[0]
        for _ in range(50):
            q1 = rng.uniform(0.2, 0.8) / a0
            q2 = rng.uniform(0.2, 0.8) / a0
            if max(max(measure_params(poly, q1).weights),
                   max(measure_params(poly, q2).weights)) <= 0.6:
                break
        w0 = tuple(rng.randrange(poly.alphabet_size)
                   for _ in range(rng.randint(0, 6)))
        assert self_affinity_residual(poly, q1, q2, w0, rng.random()) <= 1e-10


def depth_for(poly: GenPolynomial, q: float, tol: float) -> int:
    """Digit depth making the truncated tail smaller than tol."""
    p_max = max(measure_params(poly, q).weights)
    needed = math.ceil(math.log(tol) / (0.99 * math.log(p_max)))
    return max(needed, 1)


def test_depth_for():
    poly, q = P112, 0.25
    p_max = max(measure_params(poly, q).weights)
    m = depth_for(poly, q, 1e-12)
    assert p_max ** (0.99 * m) < 1e-12
    assert p_max ** (0.99 * (m - 1)) >= 1e-12


def test_parabola_profile_values():
    rows = parabola_profile(1, 2)
    assert rows[1][0] == 0.5 and rows[1][1] == pytest.approx(0.5, abs=1e-10)
    rows = parabola_profile(2, 3)
    assert rows[1][0] == pytest.approx(1 / 3)
    assert rows[1][1] == pytest.approx(1 / 3, abs=1e-10)
    with pytest.raises(ValueError):
        parabola_profile(0, 4)


def test_parabola_deviation_shrinks_with_degree():
    sup4 = max(abs(dev) for _, _, _, dev in parabola_profile(4, 64))
    sup8 = max(abs(dev) for _, _, _, dev in parabola_profile(8, 64))
    assert sup8 < sup4


def test_derivative_orders_past_171_factorial():
    # 171! is past float range; the exact k! c_k still fits for (1,1), where
    # the re-encoding is a polynomial in q2 of degree below 171
    for x in (0.0, 0.3, 0.5, 1.0):
        assert takagi_function(P11, 0.5, 171, x) == 0.0
    # for (1,1,2) the value itself leaves float range: an error, not inf
    with pytest.raises(CapacityError, match="order 171"):
        takagi_function(P112, 0.25, 171, 0.3)


def test_jet_quotient_is_long_division():
    # 1/b leaves float range (its order-1 coefficient is -1/1e-400), the
    # quotient does not
    b = Jet((1e-200, 1.0))
    assert (b / b).coeffs == (1.0, 0.0)
    assert not math.isfinite((b * b.reciprocal()).coeffs[1])


def test_takagi_at_tiny_q_is_refused_with_its_cause():
    # t/q2 is formed by long division, so the root's jet stays finite where
    # 1/q2^2 does not
    assert all(math.isfinite(c) for c in t_jet(P112, 1e-200, 1).coeffs)
    # the weights of the re-encoding are differences of terms ~1/q apart
    with pytest.raises(CapacityError, match="lost its precision"):
        takagi_function(P112, 1e-40, 1, 0.5)
    # the step-0 weight q rounds to zero in the fixed-point coder
    with pytest.raises(CapacityError, match="resolution"):
        takagi_function(P112, 1e-200, 1, 0.5)
    # where both hold, the derivative answers
    assert math.isfinite(takagi_function(P112, 1e-10, 1, 0.5))


def test_high_orders_of_a_polynomial_reencoding_vanish():
    # for (1,1) the weights q2 and 1 - q2 are linear, so the re-encoding of
    # 20 digits is a polynomial of degree <= 20 in q2
    for k in (21, 40, 100):
        for x in (0.0, 0.1, 0.3, 0.5, 0.77, 1.0):
            assert abs(takagi_function(P11, 0.3, k, x, 20)) <= 1e-9


def test_takagi_domain_checks():
    with pytest.raises(ValueError):
        takagi_function(P11, 0.5, -1, 0.5)
    with pytest.raises(ValueError):
        takagi_function(P11, 0.5, 1, 1.5)
