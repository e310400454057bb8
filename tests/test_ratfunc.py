import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterdilog.errors import NonInvertible
from clusterdilog.ratfunc import (
    EXACT,
    Poly,
    QCoefficient,
    RationalPointField,
    RationalQ,
    _add_fac,
    _decode,
    _fac_diff,
    _lift_sum,
    _MIN_WIDTH,
    _max_fac,
    _pack,
    _quotient,
    _width,
)

# cyclotomic polynomials Phi_d, constant term first
CYCLOTOMIC = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1),
              6: (1, -1, 1), 12: (1, 0, -1, 0, 1)}


ONE = EXACT.one()


def coef(coeffs):
    """The integer polynomial with these coefficients, constant term
    first, as an element of the exact ring."""
    return QCoefficient(Poly.from_coeffs(coeffs))


def random_coeff(rng, max_deg=6):
    num = [int(c) for c in rng.integers(-5, 6, size=rng.integers(1, max_deg))]
    if not any(num):
        num[0] = 1
    c = coef(num)
    n = int(rng.integers(0, 4))
    if n:
        c = c * QCoefficient.qpochhammer_inverse(n)
    return c.mul_q_power(int(rng.integers(-4, 5)))


def random_unit(rng, max_n=3):
    """+-q^j / (q^2; q^2)_n with n <= max_n: a unit `inverse` inverts."""
    u = coef([int(rng.choice([1, -1]))])
    u = u * QCoefficient.qpochhammer_inverse(int(rng.integers(0, max_n + 1)))
    return u.mul_q_power(int(rng.integers(-3, 4)))


def random_cyclotomic(rng):
    """A product of one to four of the Phi_d of CYCLOTOMIC."""
    c = ONE
    for d in rng.choice(sorted(CYCLOTOMIC), size=int(rng.integers(1, 5))):
        c = c * coef(CYCLOTOMIC[int(d)])
    return c


@st.composite
def units(draw, powers=(0, 1, 70)):
    """+-q^j / ((1 - q^2)^p (q^2; q^2)_n), a unit `inverse` inverts, with p
    one of `powers`: (1 - q^2)^70 has binomial coefficients up to 2^67, so
    the inverse's numerator packs at 64- or 128-bit digits."""
    p = draw(st.sampled_from(powers))
    u = QCoefficient(Poly.from_coeffs([draw(st.sampled_from([1, -1]))]), 0,
                     (p,) if p else ())
    u = u * QCoefficient.qpochhammer_inverse(draw(st.integers(0, 3)))
    return u.mul_q_power(draw(st.integers(-3, 3)))


# (numerator, dq, dfac exponent vector) -> canonical() of the numerator over
# q^dq prod_m (1 - q^(2m))^(e_m), pinned byte for byte because
# residual JSON and repr are built from it: the q-power; Phi_1,
# Phi_2, Phi_3, Phi_4, Phi_6 and Phi_12 cancelled in part, in full or not
# at all; the sign flip of a negative leading coefficient; wide and
# non-primitive numerators
CANONICAL_TABLE = [
    ((), 0, (), ((0,), (1,))),
    ((5,), 0, (), ((5,), (1,))),
    ((1,), 2, (), ((1,), (0, 0, 1))),
    ((0, -1), 0, (1,), ((0, 1), (-1, 0, 1))),
    ((1, 1), 0, (1,), ((-1,), (-1, 1))),
    ((-1, 1), 0, (1,), ((-1,), (1, 1))),
    ((-1, 1), 0, (2,), ((1,), (-1, -1, 1, 1))),
    ((1, -2, 1), 0, (1,), ((1, -1), (1, 1))),
    ((1, 2, 1), 0, (1, 1), ((1,), (1, -2, 2, -2, 1))),
    ((1, 3, 3, 1), 0, (1, 1), ((1, 1), (1, -2, 2, -2, 1))),
    ((1, 0, 1), 0, (1, 1), ((1,), (1, 0, -2, 0, 1))),
    ((1, 0, 1), 0, (1,), ((-1, 0, -1), (-1, 0, 1))),
    ((1, -1, 1), 0, (0, 0, 1), ((-1,), (-1, -1, 0, 1, 1))),
    ((1, -1, 1), 0, (1, 1),
     ((1, -1, 1), (1, 0, -1, 0, -1, 0, 1))),
    ((1, 1, 1), 0, (0, 0, 1), ((-1,), (-1, 1, 0, -1, 1))),
    ((1, 0, -1, 0, 1), 0, (0, 0, 0, 0, 0, 1),
     ((-1,), (-1, 0, -1, 0, 0, 0, 1, 0, 1))),
    ((-1, 1, -1, 1, -1, 1), 0, (1, 1, 1),
     ((-1,), (1, 1, -1, -1, -1, -1, 1, 1))),
    ((2, 3), 3, (1,), ((-2, -3), (0, 0, 0, -1, 0, 1))),
    ((0, 0, 7, 7), 5, (1, 1),
     ((7,), (0, 0, 0, 1, -1, 0, 0, -1, 1))),
    ((2**100, 2**100), 0, (1,), ((-2**100,), (-1, 1))),
    ((6, 0, -6), 0, (1, 1), ((-6,), (-1, 0, 0, 0, 1))),
    ((1, 1, 1, 1), 1, (0, 1, 1, 1),
     ((-1,), (0, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1, 0, 0, 0, 0, -1, 1))),
    # 40-coefficient numerators: an odd exponent sum flips the sign, an
    # even one (after Phi_1 Phi_2 cancels out of (1 - q^2) P) does not
    (tuple(range(1, 41)), 0, (1,),
     (tuple(range(-1, -41, -1)), (-1, 0, 1))),
    ((1, 2) + (2,) * 38 + (-39, -40), 0, (1, 1),
     (tuple(range(-1, -41, -1)), (-1, 0, 0, 0, 1))),
]

# the JSON of a nonzero exact residual, pinned byte for byte
RESIDUAL_JSON = (
    '{"identity": "pentagon-commutator", "order": 4, "residual_terms": ['
    '{"exponent": [1, 1], "coefficient": '
    '{"numerator": [0, 1], "denominator": [-1, 0, 1]}}, '
    '{"exponent": [1, 2], "coefficient": '
    '{"numerator": [0, 1], "denominator": [1, 0, -2, 0, 1]}}, '
    '{"exponent": [2, 1], "coefficient": '
    '{"numerator": [0, 1], "denominator": [1, 0, -2, 0, 1]}}, '
    '{"exponent": [1, 3], "coefficient": '
    '{"numerator": [0, 1], "denominator": [-1, 0, 2, 0, 0, 0, -2, 0, 1]}}, '
    '{"exponent": [2, 2], "coefficient": '
    '{"numerator": [1, 0, 0, 0, 1], '
    '"denominator": [-1, 0, 2, 0, 0, 0, -2, 0, 1]}}, '
    '{"exponent": [3, 1], "coefficient": '
    '{"numerator": [0, 1], "denominator": [-1, 0, 2, 0, 0, 0, -2, 0, 1]}}], '
    '"verdict": "FAIL", "mode": "exact"}'
)


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestPoly:
    def test_pack_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            coeffs = [int(c) for c in rng.integers(-10**9, 10**9, size=20)]
            assert Poly.from_coeffs(coeffs).coeffs() == tuple(np.trim_zeros(coeffs, "b"))

    def test_ring_ops_match_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = [int(c) for c in rng.integers(-9, 10, size=8)]
            b = [int(c) for c in rng.integers(-9, 10, size=5)]
            pa, pb = Poly.from_coeffs(a), Poly.from_coeffs(b)
            assert (pa * pb).coeffs() == \
                Poly.from_coeffs(convolve(a, b)).coeffs()
            add = [x + y for x, y in zip(a, b)] + a[len(b):] + b[len(a):]
            total = coef(a) + coef(b)
            assert total.num.shift(total.lo).coeffs() == \
                Poly.from_coeffs(add).coeffs()

    def test_shift_and_divisibility(self):
        p = Poly.from_coeffs([3, -2])
        assert p.shift(2).coeffs() == (0, 0, 3, -2)
        assert p.shift(2).q_order() == 2
        assert p.q_order() == 0
        assert p.shift(2).unshift(2).coeffs() == p.coeffs()

    @pytest.mark.parametrize("k", [64, 128, 256])
    def test_digit_count_at_the_edges(self, k):
        """The digit count is read off the bit length: n balanced digits
        take k(n - 1) bits at the least, a top digit 1 over lowest
        digits -(2^(k-1) - 1), and kn - 1 at the most, top digits
        +-(2^(k-1) - 1); zero has no digits."""
        big = (1 << (k - 1)) - 1
        for n in (1, 2, 3):
            low = Poly(_pack([-big] * (n - 1) + [1], k), big, k)
            assert low.val.bit_length() == max(k * (n - 1), 1)
            assert low.nd == n and len(low.coeffs()) == n
            for sign in (1, -1):
                high = Poly(_pack([sign * big] * n, k), big, k)
                assert high.val.bit_length() == k * n - 1
                assert high.nd == n and high.coeffs() == (sign * big,) * n
        zero = Poly(0, 0, k)
        assert zero.nd == 0 and zero.coeffs() == ()

    def test_large_coefficient_renormalisation(self):
        # repeated squaring keeps packed values exact well past naive bounds
        p = Poly.from_coeffs([1, 1])
        for _ in range(6):
            p = p * p
        c = p.coeffs()
        assert len(c) == 65
        assert c[32] == 1832624140942590534  # central binomial C(64, 32)

    def test_pessimistic_bound_widens_in_flight(self):
        # the tracked bound of (1 + q)^(2^j) is min(nd) * bound^2 per
        # squaring, far above the true C(2^j, 2^(j-1)): the digits widen
        # to the width of that bound, and the value stays exact
        p = Poly.from_coeffs([1, 1])
        for _ in range(7):
            p = p * p
            assert p.k == _width(p.bound)
        assert p.bound > 2**127 and p.k == 256
        assert p.coeffs()[64] == math.comb(128, 64)

    def test_oversized_coefficients_widen_the_digits(self):
        import math

        # ten squarings give coefficients near 2^1020, far beyond the
        # narrowest digit; the value must widen and still decode exactly
        p = Poly.from_coeffs([1, 1])
        for _ in range(10):
            p = p * p
        assert p.coeffs() == tuple(math.comb(1024, k) for k in range(1025))


def fac_product(fac):
    """prod_m (1 - q^(2m))^(e_m) for the exponent vector fac, each factor
    expanded by the binomial theorem: the reference for `_lift_sum`."""
    p = [1]
    for m, e in enumerate(fac, 1):
        f = [0] * (2 * m * e + 1)
        for i in range(e + 1):
            f[2 * m * i] = (-1) ** i * math.comb(e, i)
        p = convolve(p, f)
    return p


def lift(num: Poly, dq: int, fac: tuple) -> Poly:
    """num * q^dq * prod_m (1 - q^(2m))^(e_m) by `_lift_sum`: num as the
    one group q^dq num over no denominator, lifted onto q^0 over fac."""
    return _lift_sum([((), (num.val, dq, num.bound))], 0, fac, num.k)


LIFT_FACS = [
    (1,),
    (1, 1, 1, 1, 1),
    (0, 3, 0, 0, 0, 0, 2),
    (66,),                      # 2^66 needs 128-bit digits, C(66, 33) not
    (70,),                      # C(70, 35) > 2^63
    (40, 0, 30, 0, 1),
    (1,) * 10,                  # (q^2; q^2)_10, up to 1 - q^20
]


class TestLift:
    """`_lift_sum` multiplies each group by q^dq and by each factor
    1 - q^(2m) of its exponent difference, a shift and a subtraction per
    factor.  Each factor doubles the tracked bound, and the digits are
    the operand's, or `_width` of that bound once it outgrows them, which
    is where widening factor by factor ends."""

    @pytest.mark.parametrize("fac", LIFT_FACS)
    @pytest.mark.parametrize("k", [64, 128, 256])
    @pytest.mark.parametrize("dq", [0, 3])
    def test_matches_binomial_product(self, fac, k, dq):
        size = {64: 5, 128: 2**100, 256: 2**200}[k]
        coeffs = [size, -1, 0, -size, 2]
        num = Poly.from_coeffs(coeffs)
        assert num.k == k
        out = lift(num, dq, fac)
        expected = [0] * dq + convolve(coeffs, fac_product(fac))
        assert out.coeffs() == tuple(expected)
        assert out.bound >= max(map(abs, expected))
        assert out.bound.bit_length() < out.k
        # the tracked bound doubles per factor; the width is the
        # operand's, or the width of that bound once it outgrows it
        assert out.bound == num.bound << sum(fac)
        assert out.k == max(num.k, _width(out.bound))

    def test_bound_crosses_the_digit_mid_loop(self):
        """The bound of (1 - q^2)^62 is 2^62, which fits a 64-bit digit;
        that of (1 - q^2)^63 is 2^63, which does not, so the lift is
        packed at 128 bits although C(63, 31) < 2^63.  C(66, 33) fits 64
        bits too and is packed wider all the same, while C(70, 35) needs
        128 bits.  A one-digit numerator and a two-digit one take the
        same widths."""
        for coeffs in ([1], [1, -1]):
            num = Poly.from_coeffs(coeffs)
            for e, k in ((62, 64), (63, 128), (66, 128), (70, 128)):
                out = lift(num, 0, (e,))
                assert (out.bound, out.k) == (2**e, k) and k == _width(2**e)
                assert out.coeffs() == tuple(convolve(coeffs,
                                                      fac_product((e,))))
        one = Poly.from_coeffs([1])
        assert lift(one, 0, (70,)).coeffs()[70] == -math.comb(70, 35) < -2**63
        assert lift(one, 0, (66,)).coeffs()[66] == -math.comb(66, 33)

    def test_zero_and_empty_lifts(self):
        one = Poly.from_coeffs([1])
        assert lift(one, 0, ()).coeffs() == one.coeffs()
        assert lift(one, 2, ()).coeffs() == (0, 0, 1)
        assert lift(Poly.from_coeffs([]), 1, (3,)).is_zero()

    def test_groups_of_two_lengths_in_one_sum(self):
        """A one-digit group and a longer one lifted onto one denominator
        and q-power: 3 q^-1 / (1 - q^2) + (1 + q) / (1 - q^4) over
        q^-1 / ((1 - q^2) (1 - q^4)) has the numerator 3 (1 - q^4) +
        q (1 + q) (1 - q^2), five digits whose bound 3 * 2 + 1 * 2 also
        sets the width."""
        groups = [((1,), (3, -1, 3)),
                  ((0, 1), (Poly.from_coeffs([1, 1]).val, 0, 1))]
        out = _lift_sum(groups, -1, (1, 1), 64)
        assert out.coeffs() == (3, 1, 1, -1, -4)
        assert (out.nd, out.bound, out.k) == (5, 8, 64)

    def test_digit_count_below_q_to_the_zero(self):
        """Groups whose q-powers are all negative: 3 q^-5 / (1 - q^2) +
        q^-6 over q^-6 / (1 - q^2) is 1 + 3q - q^2, three digits."""
        groups = [((1,), (3, -5, 3)), ((), (1, -6, 1))]
        out = _lift_sum(groups, -6, (1,), 64)
        assert out.coeffs() == (1, 3, -1)
        assert (out.nd, out.bound, out.k) == (3, 5, 64)

    def test_one_digit_value_over_several_digits(self):
        """A group whose packed value fits one digit although its products
        run below q^2: (1 + q) + (1 - q) = 2.  Lifted by 1 - q^2 and
        added to (1 + q) / (1 - q^2), it gives 3 + q - 2q^2, three
        digits, and its bound 2 doubles like any other group's, to
        2 * 2 + 1."""
        groups = [((), (2, 0, 2)),
                  ((1,), (Poly.from_coeffs([1, 1]).val, 0, 1))]
        out = _lift_sum(groups, 0, (1,), 64)
        assert out.coeffs() == (3, 1, -2)
        assert (out.nd, out.bound, out.k) == (3, 5, 64)


class TestQCoefficient:
    def test_pair_sum_widens_a_group_past_64_bits(self):
        """Each product (2^31 - 1)^2 (1 + q) q^j / (1 - q^2) fits 64-bit
        digits, but four of the five overlap at q^0, where the group sums
        to about 2^64: pair_sum packs it wider, and the sum evaluates
        exactly."""
        x, big = Fraction(2, 5), 2**31 - 1
        a = coef([big]) * QCoefficient.qpochhammer_inverse(1)
        b = coef([big, big]).mul_q_power(-1)
        triples = [(a, b, 0), (a, b, 1), (b, a, 1), (a, b, 0), (a, b, 2)]
        total = EXACT.pair_sum(triples)
        assert total.evaluate(x) == sum(c.evaluate(x) * e.evaluate(x) * x**j
                                        for c, e, j in triples)
        assert max(map(abs, total.num.coeffs())) > 2**63

    def test_widened_value_is_the_same_value(self):
        """A value packed at 64 bits and the same value widened to 128
        bits by a pessimistic bound compare equal, hash alike and print
        the same canonical form."""
        c = (coef([1, -2, 0, 5]).mul_q_power(-3)
             * QCoefficient.qpochhammer_inverse(2))
        big = coef([2**62])
        wide = (c + big) - big
        assert (c.num.k, wide.num.k) == (64, 128)
        assert (c.lo, c.dfac) == (wide.lo, wide.dfac)
        assert wide == c and c == wide and hash(wide) == hash(c)
        assert wide.canonical() == c.canonical() and repr(wide) == repr(c)
        assert (wide - c).is_zero() and (c - wide).is_zero()

    def test_field_inverse(self):
        """+-q^j / (q^2; q^2)_n is inverted on both sides; a numerator
        other than +-q^j is refused, cyclotomic Phi_2 = 1 + q and Phi_3
        included."""
        rng = np.random.default_rng(2)
        q0 = Fraction(2, 5)
        for _ in range(30):
            a = random_unit(rng)
            inv = a.inverse()
            assert a * inv == ONE and inv * a == ONE
            assert inv.evaluate(q0) == 1 / a.evaluate(q0)
            b = random_coeff(rng)
            assert b * inv * a == b
        for num in ([1, 1], [1, 1, 1], [2], [1, 2], [1, 3, 1], [-1, 1, 1],
                    [1, 0, 0, 1, 1]):
            with pytest.raises(NonInvertible):
                coef(num).inverse()
            with pytest.raises(NonInvertible):
                (coef(num).mul_q_power(-2)
                 * QCoefficient.qpochhammer_inverse(3)).inverse()

    @pytest.mark.parametrize("dfac, other, times, value", [
        # 1/(1 - q^2) - q^2/(1 - q^2), stored as (1 - q^2)/(1 - q^2)
        ((1,), [0, 0, -1], 0, ()),
        # (1/(1 - q^4) - q^4/(1 - q^4)) / (1 - q^2): 1 + q^2 is left when
        # 1 - q^2 is divided out of the numerator 1 - q^4
        ((0, 1), [0, 0, 0, 0, -1], 1, (1,)),
        # 1/(1 - q^4) + q^2/(1 - q^4): 1 + q^2 has no factor 1 - q^(2m)
        ((0, 1), [0, 0, 1], 0, (1,)),
    ])
    def test_inverse_of_a_unit_stored_with_a_removable_factor(
            self, dfac, other, times, value):
        """c = (1 + other) / prod (1 - q^(2m))^dfac, times (1 - q^2)^-times,
        is stored with a numerator other than +-q^j, but its value is
        1 / prod (1 - q^(2m))^value, so it inverts, and so does -q^3 c
        over (q^2; q^2)_2; (1 + q) c is refused."""
        over = QCoefficient(Poly.from_coeffs([1]), 0, dfac)
        c = over + coef(other) * over
        for _ in range(times):
            c = c * QCoefficient.qpochhammer_inverse(1)
        assert c.num.coeffs() not in ((1,), (-1,))
        inv = QCoefficient(Poly.from_coeffs(fac_product(value)))
        assert c.inverse() == inv and c.inverse() * c == ONE
        u = -c.mul_q_power(3) * QCoefficient.qpochhammer_inverse(2)
        assert u.inverse() * u == ONE
        assert u.inverse() == -QCoefficient.q_power(-3) * inv \
            * coef([1, 0, -1]) * coef([1, 0, 0, 0, -1])
        with pytest.raises(NonInvertible):
            (c * coef([1, 1])).inverse()

    def test_inverse_of_a_quotient_stored_over_its_dividend(self):
        """For k | m, k < m, ((1 - q^(2m)) / (1 - q^(2k))) / (1 - q^(2m))
        is 1 / (1 - q^(2k)); times a unit u it inverts to (1 - q^(2k)) / u.
        Times 1 + q it is refused: its numerator reduces to 1, but the
        value, 1 / (1 - q) times a unit of R, has no inverse of the form
        +-q^j prod_m (1 - q^(2m))^(e_m)."""
        rng = np.random.default_rng(22)
        for m in range(2, 7):
            for k in (k for k in range(1, m) if m % k == 0):
                # (1 - q^(2m)) / (1 - q^(2k)) = sum_{i < m/k} q^(2ki)
                quo = coef(([1] + [0] * (2 * k - 1)) * (m // k))
                c = quo * QCoefficient(Poly.from_coeffs([1]), 0,
                                       (0,) * (m - 1) + (1,))
                assert c.num.coeffs() == quo.num.coeffs()
                u = random_unit(rng)
                factor = coef([1] + [0] * (2 * k - 1) + [-1])
                assert (c * u).inverse() == factor * u.inverse()
                assert (c * u).inverse() * (c * u) == ONE
                with pytest.raises(NonInvertible):
                    (c * u * coef([1, 1])).inverse()

    def test_hash_of_a_deep_denominator(self, monkeypatch):
        """a' is a with numerator and denominator both multiplied by
        (1 - q^2)^140, the shape whose canonical() takes 140 trial
        divisions: equal to a, and hashed alike without canonical()."""
        rng = np.random.default_rng(7)
        pairs = []
        for _ in range(10):
            a = random_coeff(rng)
            deep = a.num * Poly.from_coeffs(fac_product((140,)))
            pairs.append((a, QCoefficient(deep, a.lo,
                                          _add_fac(a.dfac, (140,)))))

        def refuse(self):
            raise AssertionError("hash reached canonical()")

        monkeypatch.setattr(QCoefficient, "canonical", refuse)
        for a, deep in pairs:
            assert deep.dfac[0] >= 140
            assert deep == a and hash(deep) == hash(a)

    def test_ring_axioms_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b, c = (random_coeff(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a - a == EXACT.zero()

    def test_equality_over_two_denominators(self):
        """(1 + q^2)/(q (1 - q^4)) and 1/(q (1 - q^2)): one value over
        two exponent vectors, neither of which dominates the other."""
        a = QCoefficient(Poly.from_coeffs([1, 0, 1]), -1, (0, 1))
        b = QCoefficient(Poly.from_coeffs([1]), -1, (1,))
        assert a.dfac != b.dfac
        assert a == b and b == a and hash(a) == hash(b)
        assert a != b.mul_q_power(1) and a != -b
        zero = EXACT.zero()
        assert zero != a and a != zero
        assert zero == a - b and a - b == zero

    def test_equality_iff_cross_multiplication(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a, b = random_coeff(rng), random_coeff(rng)
            same_canonical = a.canonical() == b.canonical()
            assert (a == b) == same_canonical

    def test_canonical_is_reduced_and_positive(self):
        """The canonical fraction has the value of the coefficient, and
        its numerator vanishes at no root of its denominator: not at
        q = 0, nor at a 2m-th root of unity for a factor 1 - q^(2m)."""
        rng = np.random.default_rng(5)
        points = [Fraction(2, 5), Fraction(-3, 7), Fraction(5, 2)]
        for i in range(40):
            a = random_coeff(rng)
            if i % 2:
                a = a * random_unit(rng) * random_cyclotomic(rng)
            num, den = a.canonical()
            assert den[-1] > 0
            for x in points:
                ev = [sum(c * x**k for k, c in enumerate(p)) for p in (num, den)]
                assert ev[0] / ev[1] == a.evaluate(x)
            assert den[0] != 0 or num[0] != 0
            with mpmath.workdps(30):
                for m in range(1, len(a.dfac) + 1):
                    for k in range(2 * m):
                        root = mpmath.expjpi(mpmath.mpf(k) / m)
                        if abs(mpmath.polyval(den[::-1], root)) < 1e-20:
                            assert abs(mpmath.polyval(num[::-1], root)) > 1e-20

    @pytest.mark.parametrize("num, dq, dfac, expected", CANONICAL_TABLE)
    def test_canonical_table(self, num, dq, dfac, expected):
        c = QCoefficient(Poly.from_coeffs(num), -dq, dfac)
        assert c.canonical() == expected

    def test_residual_json_with_denominators(self):
        """The residual of a product of two Psi's against the reversed
        product, A2 at order 4: reduced denominators with flipped signs."""
        from clusterdilog.exchange import ExchangeMatrix
        from clusterdilog.qident import Residual
        from clusterdilog.torus import deviation_from, monomial, multiply, psi_series

        A2 = ExchangeMatrix(np.array([[0, -1], [1, 0]]))
        p1 = psi_series(monomial((1, 0), A2, 4))
        p2 = psi_series(monomial((0, 1), A2, 4))
        dev = deviation_from(multiply(p1, p2), multiply(p2, p1))
        out = json.dumps(Residual("pentagon-commutator", 4, tuple(dev)).to_json())
        assert out == RESIDUAL_JSON

    def test_canonical_flips_pochhammer_sign(self):
        c = coef([0, -1]) * QCoefficient.qpochhammer_inverse(1)
        assert c.canonical() == ((0, 1), (-1, 0, 1))

    def test_partial_cyclotomic_cancellation(self):
        c = coef([1, 1]) * QCoefficient.qpochhammer_inverse(1)
        assert c.canonical() == ((-1,), (-1, 1))

    def test_q_power_laurent(self):
        assert QCoefficient.q_power(-3) * QCoefficient.q_power(3) == ONE
        c = coef([0, 0, 5]).mul_q_power(-2)
        assert c.canonical() == ((5,), (1,))

    def test_evaluate_matches_fraction_oracle(self):
        rng = np.random.default_rng(6)
        q0 = Fraction(2, 5)
        for _ in range(20):
            a, b = random_coeff(rng), random_coeff(rng)
            assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
            assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            EXACT.zero().inverse()


@st.composite
def wide_coefficients(draw):
    """q^j * P(q) / (q^2; q^2)_n with the coefficients of P up to 2^300,
    so operands are packed at different digit widths."""
    bits = draw(st.integers(1, 300))
    num = draw(st.lists(st.integers(-(1 << bits), 1 << bits),
                        min_size=1, max_size=5).filter(any))
    c = coef(num) * QCoefficient.qpochhammer_inverse(draw(st.integers(0, 3)))
    return c.mul_q_power(draw(st.integers(-3, 3)))


# rational points away from the poles q = 0 and |q| = 1
points = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                   st.integers(2, 9)).filter(lambda x: abs(x) != 1)


class TestFieldAxiomsProperty:
    """Q(q) arithmetic against exact Fraction evaluation at random points."""

    @settings(max_examples=60, deadline=None)
    @given(a=wide_coefficients(), b=wide_coefficients(),
           c=wide_coefficients(), x=points)
    def test_ring_operations(self, a, b, c, x):
        def ev(u):
            return u.evaluate(x)

        assert ev(a + b) == ev(a) + ev(b)
        assert ev(a - b) == ev(a) - ev(b)
        assert ev(a * b) == ev(a) * ev(b)
        assert (ev(EXACT.pair_sum([(a, c, 3), (b, c, -2), (c, a, 1)]))
                == ev(a) * ev(c) * x**3 + ev(b) * ev(c) / x**2
                + ev(c) * ev(a) * x)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert (a - a).is_zero()
        assert (a == b) == (a.canonical() == b.canonical())

    @settings(max_examples=60, deadline=None)
    @given(a=wide_coefficients(), b=wide_coefficients(), u=units(), x=points)
    def test_inverse(self, a, b, u, x):
        inv = u.inverse()
        assert u * inv == ONE and inv * u == ONE
        assert inv.evaluate(x) == 1 / u.evaluate(x)
        # a round trip through a unit with a deep denominator
        back = a * u * inv
        assert back == a and hash(back) == hash(a)
        total = EXACT.pair_sum([(a, u, 2), (b, inv, -1)])
        assert total.evaluate(x) == (a.evaluate(x) * u.evaluate(x) * x**2
                                     + b.evaluate(x) * inv.evaluate(x) / x)


# denominator exponent vectors: none, (1 - q^2), (1 - q^4), and a deeper one
DENOMINATORS = [(), (1,), (0, 1), (2, 0, 1)]


@st.composite
def pair_sums(draw):
    """(kind, triples): two to six (c_d, c_e, j) triples whose products
    carry no denominator, all one denominator exponent vector, or
    several (drawn twice as often).  Numerators have one digit, or one
    to four, so that lifted groups are constants or longer, or both in
    one sum.  Coefficients of up to 2^34 make products whose group sums
    outgrow 64-bit digits; those of up to 2^30 make groups that fit them
    but whose lifted bounds, summed, may not.  A product and its negation
    are sometimes added below all the others, so that the sum's low
    digits vanish."""
    kind = draw(st.sampled_from(["none", "one", "several", "several"]))
    big = draw(st.sampled_from([5, 2**30, 2**34]))
    longest = draw(st.sampled_from([1, 4]))
    shared = draw(st.sampled_from(DENOMINATORS[1:]))
    digit = st.one_of(st.integers(-big, big), st.sampled_from([big, -big]))

    def coefficient(fac):
        num = draw(st.lists(digit, min_size=1, max_size=longest).filter(any))
        return QCoefficient(Poly.from_coeffs(num), draw(st.integers(-3, 3)),
                            fac)

    triples = []
    for _ in range(draw(st.integers(2, 6))):
        if kind == "several":
            facs = draw(st.sampled_from(DENOMINATORS)), draw(
                st.sampled_from(DENOMINATORS))
        else:
            facs = (shared if kind == "one" else ()), ()
        c, e = map(coefficient, facs)
        triples.append((c, e, draw(st.integers(-4, 4))))
    if draw(st.booleans()):
        c, e, _ = triples[0]
        j = min(j + a.lo + b.lo for a, b, j in triples) - c.lo - e.lo - 1
        triples += [(c, e, j), (-c, e, j)]
    return kind, triples


def lifted_reference(triples):
    """(coeffs, lo, bound, k) of `pair_sum(triples)` for two or more
    triples, built on {q-power: coefficient} dicts: the products are
    summed per denominator exponent vector, each with the bound
    min(nd) * bound * bound, at the widest operand's digits or wider if
    a group's bound needs it; the nonzero groups are lifted onto the
    common denominator one factor 1 - q^(2m) at a time, each doubling a
    group's bound and widening its digits as soon as the bound outgrows
    them; the sum takes the widest group's digits, or wider if the summed
    bound needs it; the zero low digits then move into lo.  None for a
    zero sum."""
    groups = {}
    for c, e, j in triples:
        a, b = c.num, e.num
        s = j + c.lo + e.lo
        fac = _add_fac(c.dfac, e.dfac)
        low, bound, terms = groups.get(fac, (s, 0, {}))
        a_coeffs, b_coeffs = a.coeffs(), b.coeffs()
        for i, x in enumerate(convolve(a_coeffs, b_coeffs) if a.val
                              and b.val else []):
            terms[s + i] = terms.get(s + i, 0) + x
        groups[fac] = (min(low, s), bound + min(len(a_coeffs), len(b_coeffs))
                       * a.bound * b.bound, terms)
    k = max([_MIN_WIDTH] + [x.num.k for c, e, _ in triples for x in (c, e)])
    k = max(k, _width(max(g[1] for g in groups.values())))
    groups = {fac: g for fac, g in groups.items() if any(g[2].values())}
    if not groups:
        return None
    lo = min(g[0] for g in groups.values())
    dfac = _max_fac(groups)
    total, bound, width = {}, 0, k
    for fac, (_, b, terms) in groups.items():
        wide = k
        for m, e in enumerate(_fac_diff(dfac, fac), 1):
            for _ in range(e):
                lifted = dict(terms)
                for p, x in terms.items():
                    lifted[p + 2 * m] = lifted.get(p + 2 * m, 0) - x
                terms, b = lifted, b << 1
                if b.bit_length() >= wide:
                    wide = _width(b)
        for p, x in terms.items():
            total[p] = total.get(p, 0) + x
        bound, width = bound + b, max(width, wide)
    if bound.bit_length() >= width:
        width = _width(bound)
    powers = [p for p, x in total.items() if x]
    if not powers:
        return None
    j = min(powers) - lo
    coeffs = tuple(total.get(p, 0) for p in range(lo + j, max(powers) + 1))
    return coeffs, lo + j, bound, width


class TestPairSumProperty:
    """`pair_sum` over drawn triples against the same products added one
    at a time, against exact evaluation, and against `lifted_reference`
    for the digits, bound and width, and against the decoded digits
    for the digit count read off the value: a lone group is
    returned as it stands, several are lifted and summed, and either way
    the numerator's zero low digits move into lo."""

    def test_lifted_bounds_cross_64_bits(self):
        """2^62 + 2^62 / (1 - q^2): each group fits 64-bit digits, but
        lifted onto 1 / (1 - q^2) the first has the bound 2^63, and the
        sum 2^63 - 2^62 q^2 is packed at 128 bits with the bound
        2^63 + 2^62."""
        a = coef([2**62])
        b = QCoefficient(Poly.from_coeffs([2**62]), 0, (1,))
        total = EXACT.pair_sum([(a, ONE, 0), (b, ONE, 0)])
        assert (total.num.coeffs(), total.lo, total.dfac) == \
            ((2**63, 0, -2**62), 0, (1,))
        assert (total.num.bound, total.num.k) == (3 * 2**62, 128)

    @settings(max_examples=150, deadline=None)
    @given(case=pair_sums(), x=points)
    def test_matches_products_added_one_at_a_time(self, case, x):
        kind, triples = case
        total = EXACT.pair_sum(triples)
        acc = EXACT.zero()
        for c, e, j in triples:
            acc = acc + c.mul_shifted(e, j)
        expected = sum(c.evaluate(x) * e.evaluate(x) * x**j
                       for c, e, j in triples)
        assert total.evaluate(x) == acc.evaluate(x) == expected
        assert total == acc and hash(total) == hash(acc)
        if kind == "none":
            assert total.dfac == ()
        if not total.is_zero():
            num = total.num
            assert num.q_order() == 0
            assert num.bound.bit_length() < num.k
            assert all(abs(v) <= num.bound for v in num.coeffs())
            assert num.nd == len(num.coeffs())
            assert (num.coeffs(), total.lo, num.bound, num.k) \
                == lifted_reference(triples)
        else:
            assert lifted_reference(triples) is None

    def test_cancelled_low_digits_move_into_lo(self):
        """((1 + 2q) - 1 + 3q^2) q^-1 / (1 - q^2) is (2 + 3q) / (1 - q^2):
        one group, whose lowest digit cancels and moves into lo."""
        a = QCoefficient(Poly.from_coeffs([1, 2]), -1, (1,))
        b = QCoefficient(Poly.from_coeffs([1]), -1, (1,))
        total = EXACT.pair_sum([(a, ONE, 0), (b, coef([-1]), 0),
                                (b, coef([3]), 2)])
        assert (total.num.coeffs(), total.lo, total.dfac) == ((2, 3), 0, (1,))

    def test_cancelled_top_digit_is_not_counted(self):
        """(1 + q) + (-q) = 1: the top digit cancels, and the sum has one
        digit, though each of its products has two or one."""
        total = EXACT.pair_sum([(coef([1, 1]), ONE, 0), (coef([0, -1]), ONE, 0)])
        assert (total.num.coeffs(), total.lo, total.dfac) == ((1,), 0, ())
        assert total.num.nd == 1

    def test_no_denominator_stays_lone(self):
        """A sum with no denominator factor at 128-bit digits: the group is
        the result, with no lift, and its width is that of its bound."""
        big = coef([2**40, 1])
        total = EXACT.pair_sum([(big, big, 0), (big, big, 1), (big, ONE, 3)])
        assert total.dfac == () and total.num.k == 128
        assert total.num.coeffs() == (2**80, 2**80 + 2**41, 2**41 + 1,
                                      2**40 + 1, 1)


@st.composite
def q_multiples(draw):
    """(width, coeffs, j, lo, n): the numerator coeffs * q^j times q^lo over
    (q^2; q^2)_n, with lo of either sign and the net power j + lo below,
    at or above zero.  The leading coefficient is large enough that the
    numerator packs at the drawn width, and the low and leading
    coefficients take either sign."""
    width = draw(st.sampled_from([64, 128, 256]))
    top = (1 << (width - 1)) - 1
    digit = st.integers(-top, top)
    low = draw(digit.filter(bool))
    lead = draw(st.integers(1 if width == 64 else 1 << (width // 2), top))
    lead *= draw(st.sampled_from([1, -1]))
    coeffs = [low] + draw(st.lists(digit, max_size=3)) + [lead]
    j = draw(st.integers(0, 5))
    lo = draw(st.one_of(st.integers(-j - 4, -j - 1), st.just(-j),
                        st.integers(-j + 1, 5)))
    return width, coeffs, j, lo, draw(st.integers(0, 2))


class TestQStripProperty:
    """A coefficient keeps the numerator and lo it is built with, at
    every packing width and for both signs of lo and of the value;
    canonical() and evaluate cancel the power of q the numerator shares
    with q^lo in one step."""

    @settings(max_examples=80, deadline=None)
    @given(case=q_multiples(), x=points)
    def test_one_step_strip(self, case, x):
        width, coeffs, j, lo, n = case
        num = Poly.from_coeffs([0] * j + coeffs)
        assert num.k == width and num.q_order() == j
        dfac = QCoefficient.qpochhammer_inverse(n).dfac
        e = j + lo
        den = 1
        for m in range(1, n + 1):
            den *= 1 - x ** (2 * m)
        for sign in (1, -1):
            c = QCoefficient(-num if sign < 0 else num, lo, dfac)
            assert c.lo == lo
            assert c.num.coeffs() == (-num if sign < 0 else num).coeffs()
            value = sign * sum(v * x ** i for i, v in enumerate(coeffs))
            assert c.evaluate(x) == value * x ** e / den
            top, bottom = c.canonical()
            assert [next(i for i, v in enumerate(p) if v)
                    for p in (top, bottom)] == [max(e, 0), max(-e, 0)]
            assert (Poly.from_coeffs(top).evaluate(x)
                    / Poly.from_coeffs(bottom).evaluate(x)) == c.evaluate(x)
            if e < 0:
                with pytest.raises(ZeroDivisionError):
                    c.evaluate(0)
            else:
                assert c.evaluate(0) == (sign * coeffs[0] if e == 0 else 0)

    @settings(max_examples=60, deadline=None)
    @given(c=wide_coefficients(), a=st.integers(-10**6, 10**6),
           b=st.integers(-10**6, 10**6), x=points)
    def test_q_powers_add_exponents(self, c, a, b, x):
        """q^a then q^b is q^(a + b), and it moves only lo: q^j is one
        digit for every j."""
        assert c.mul_q_power(a).mul_q_power(b) == c.mul_q_power(a + b)
        assert c.mul_q_power(a).num is c.num
        assert all(QCoefficient.q_power(j).num.nd == 1 for j in (a, b, 0))
        j = a % 13 - 6
        assert c.mul_q_power(j).evaluate(x) == c.evaluate(x) * x ** j
        assert QCoefficient.q_power(j).evaluate(x) == x ** j


class TestRationalPointField:
    def test_point_field_matches_exact_evaluation(self):
        from clusterdilog.ratfunc import EXACT

        q0 = Fraction(3, 7)
        ring = RationalPointField(q0)
        for n in range(5):
            assert ring.psi_coefficient(n).value == EXACT.psi_coefficient(n).evaluate(q0)

    def test_arithmetic_tracks_fractions(self):
        ring = RationalPointField(Fraction(1, 2))
        a, b = ring.one().mul_q_power(3), RationalQ(5, ring.q0)
        assert (a * b).value == Fraction(5, 8)
        assert (a + b).inverse().value == Fraction(8, 41)

    def test_rejects_unit_modulus(self):
        with pytest.raises(ZeroDivisionError):
            RationalPointField(1)
        with pytest.raises(ZeroDivisionError):
            RationalPointField(0)


class TestPolyHelpers:
    def test_exact_div(self):
        num = (1, 0, -1)  # 1 - q^2
        assert _quotient(num, (1, -1)) == (1, 1)
        assert _quotient((1, 1), (1, -1)) is None


def vector(exps):
    """The exponent vector of {m: e_m}, with no trailing zero."""
    top = max((m for m, e in exps.items() if e), default=0)
    return tuple(exps.get(m, 0) for m in range(1, top + 1))


exponent_dicts = st.dictionaries(st.integers(1, 8), st.integers(0, 4),
                                 max_size=5)


class TestExponentVectors:
    """`_add_fac`, `_fac_diff` and `_max_fac` on trimmed exponent vectors
    against a dict over the (m, e) pairs; as `vector` trims, equality
    also says that each result is a trimmed tuple."""

    @settings(max_examples=200, deadline=None)
    @given(a=exponent_dicts, b=exponent_dicts, c=exponent_dicts)
    def test_match_pair_reference(self, a, b, c):
        fa, fb, fc = vector(a), vector(b), vector(c)
        ms = range(1, 9)
        top = {m: max(a.get(m, 0), b.get(m, 0), c.get(m, 0)) for m in ms}
        assert _add_fac(fa, fb) == vector(
            {m: a.get(m, 0) + b.get(m, 0) for m in ms})
        assert _max_fac(f for f in (fa, fb, fc)) == vector(top)
        assert _fac_diff(vector(top), fb) == vector(
            {m: top[m] - b.get(m, 0) for m in ms})
        assert _fac_diff(fa, fa) == () and _max_fac([]) == ()
