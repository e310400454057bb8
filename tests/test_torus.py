from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from clusterdilog import torus
from clusterdilog.errors import IncompatibleContexts, NonInvertible, NonTruncating
from clusterdilog.exchange import ExchangeMatrix
from clusterdilog import ratfunc
from clusterdilog.qident import quantum_trajectory
from clusterdilog.ratfunc import QCoefficient, RationalPointField
from clusterdilog.torus import (
    TorusElement,
    add,
    deviation_from,
    invert,
    monomial,
    multiply,
    pairing,
    power,
    psi_inverse_series,
    psi_series,
    unit,
)
from test_ratfunc import ONE, coef, random_unit, units

A2 = ExchangeMatrix(np.array([[0, -1], [1, 0]]))
N = 6


def Y(alpha, order=N):
    return monomial(alpha, A2, order)


def one(order=N):
    return unit(A2, order)


def qp(elem, j):
    return elem.scale_q_power(j)


def random_sparse(rng, B, order, nterms=3):
    n = B.n
    base = tuple(int(b) for b in rng.integers(-2, 3, size=n))
    terms = {}
    for _ in range(nterms):
        d = tuple(int(x) for x in rng.integers(0, order // 2 + 1, size=n))
        if sum(d) > order:
            continue
        coeff = coef(
            [int(c) for c in rng.integers(-3, 4, size=3)]).mul_q_power(int(rng.integers(-2, 3)))
        terms[d] = coeff
    terms.setdefault((0,) * n, coef([int(rng.integers(-2, 3))]))
    return TorusElement(B, order, base, terms)


def reference_multiply(a, b):
    """Slow first-principles product: move every generator monomial past
    the other via q^<a,b> Y^a Y^b = Y^(a+b), term by term."""
    B, order = a.matrix, a.order
    n = B.n
    out = {}
    for (d1, c1), (d2, c2) in iproduct(a.terms.items(), b.terms.items()):
        if c1.is_zero() or c2.is_zero():
            continue
        # each normal-form term is c * Y^base Y^d = c q^(-<base,d>) Y^(base+d)
        m1 = tuple(x + y for x, y in zip(a.base, d1))
        m2 = tuple(x + y for x, y in zip(b.base, d2))
        expo = -pairing(a.base, d1, B) - pairing(b.base, d2, B)
        # Y^m1 Y^m2 = q^(-<m1,m2>) Y^(m1+m2)
        expo -= pairing(m1, m2, B)
        tot = tuple(x + y for x, y in zip(m1, m2))
        # back to normal form: Y^tot = q^<gbase,shift> Y^gbase Y^shift
        gbase = tuple(x + y for x, y in zip(a.base, b.base))
        shift = tuple(x - y for x, y in zip(tot, gbase))
        if sum(shift) > order:
            continue
        assert all(s >= 0 for s in shift)
        expo += pairing(gbase, shift, B)
        coeff = (c1 * c2).mul_q_power(expo)
        prev = out.get(shift)
        out[shift] = coeff if prev is None else prev + coeff
    return TorusElement(B, order, tuple(x + y for x, y in zip(a.base, b.base)),
                        out, a.ring)


class TestPairing:
    def test_a2_values(self):
        assert pairing((1, 0), (0, 1), A2) == -1
        assert pairing((0, 1), (1, 0), A2) == 1

    def test_explicit_sum_oracle(self):
        rng = np.random.default_rng(0)
        B = ExchangeMatrix(np.array([[0, 2, -1], [-2, 0, 3], [1, -3, 0]]))
        for _ in range(20):
            a = [int(x) for x in rng.integers(-4, 5, size=3)]
            b = [int(x) for x in rng.integers(-4, 5, size=3)]
            brute = sum(a[i] * B.entries[i, j] * b[j] for i in range(3) for j in range(3))
            assert pairing(a, b, B) == brute
            assert pairing(a, b, B) == -pairing(b, a, B)
        assert pairing((1, 2, 3), (1, 2, 3), B) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairing((1,), (0, 1), A2)


class TestMonomialAndMultiply:
    def test_zero_exponent_is_identity(self):
        e = Y((0, 0))
        assert multiply(e, Y((1, 1))) == Y((1, 1))

    def test_monomial_product_rule(self):
        a, b = (1, 0), (0, 1)
        lhs = multiply(Y(a), Y(b))
        rhs = Y((1, 1)).scale_q_power(-pairing(a, b, A2))
        assert lhs == rhs

    def test_a2_weyl_normalisation(self):
        # Y^(e1+e2) = q^-1 Y1 Y2
        assert Y((1, 1)) == qp(multiply(Y((1, 0)), Y((0, 1))), -1)

    def test_commutation_factor(self):
        lhs = multiply(Y((1, 0)), Y((0, 1)))
        rhs = qp(multiply(Y((0, 1)), Y((1, 0))), 2)
        assert lhs == rhs

    def test_multiply_by_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = random_sparse(rng, A2, N)
            assert multiply(a, one()) == a
            assert multiply(one(), a) == a

    def test_associativity_against_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            a, b, c = (random_sparse(rng, A2, 4) for _ in range(3))
            ab_c = multiply(multiply(a, b), c)
            a_bc = multiply(a, multiply(b, c))
            assert ab_c == a_bc
            assert multiply(a, b) == reference_multiply(a, b)

    def test_distributivity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b, c = (random_sparse(rng, A2, 4) for _ in range(3))
            assert multiply(a, add(b, c)) == add(multiply(a, b), multiply(a, c))

    def test_equal_elements_over_different_bases_hash_alike(self):
        """Y^(1,0) as a monomial and as the shift (1, 0) over base 0 are
        one element, and so are Y1 Y2 and q Y^(1,1) over base 0: each
        pair compares equal, hashes alike, and a set keeps one of it."""
        for x, y in ((monomial((1, 0), A2, 4),
                      TorusElement(A2, 4, (0, 0), {(1, 0): ONE})),
                     (multiply(Y((1, 0), 4), Y((0, 1), 4)),
                      TorusElement(A2, 4, (0, 0),
                                   {(1, 1): QCoefficient.q_power(1)}))):
            assert x == y and x.base != y.base
            assert hash(x) == hash(y) and len({x, y}) == 1

    def test_context_mixing_is_an_error(self):
        other = ExchangeMatrix(np.array([[0, 1], [-1, 0]]))
        with pytest.raises(IncompatibleContexts):
            multiply(Y((1, 0)), monomial((1, 0), other, N))
        with pytest.raises(IncompatibleContexts):
            multiply(Y((1, 0)), monomial((1, 0), A2, N + 1))
        with pytest.raises(IncompatibleContexts):
            ring = RationalPointField(Fraction(1, 3))
            multiply(Y((1, 0)), monomial((1, 0), A2, N, ring))


class TestInvert:
    def test_monomial_inverse(self):
        assert invert(Y((1, 1))) == Y((-1, -1))
        assert invert(Y((-2, 1))) == Y((2, -1))

    def test_two_sided_inverse_of_series(self):
        # the second element has a Laurent base, a unit -q^-1 / (1 - q^2)
        # as its constant-shift coefficient and shifts that do not commute
        c = coef([0, 2, -1]) * QCoefficient.qpochhammer_inverse(2)
        terms = {(0, 0): -QCoefficient.q_power(-1)
                 * QCoefficient.qpochhammer_inverse(1),
                 (1, 0): c, (0, 1): coef([3]),
                 (1, 1): c.mul_q_power(2)}
        for e in (add(one(), Y((1, 0))), TorusElement(A2, N, (1, -1), terms)):
            assert multiply(e, invert(e)) == one()
            assert multiply(invert(e), e) == one()

    def test_geometric_series_coefficients(self):
        inv = invert(add(one(), Y((1, 0))))
        for m in range(N + 1):
            got = inv.terms[(m, 0)]
            assert got == coef([(-1) ** m]), m

    def test_involution_up_to_truncation(self):
        """With c_0 = +-q^j, the inverse's c_0 = +-q^-j is invertible too."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_sparse(rng, A2, 4)
            a = TorusElement(A2, 4, a.base,
                             {**a.terms, (0, 0): random_unit(rng, max_n=0)})
            assert invert(invert(a)) == a

    def test_constant_coefficient_with_a_removable_factor(self):
        """c_0 = (1 - q^2)/(1 - q^2), stored unreduced, is the unit 1."""
        one_over = QCoefficient.qpochhammer_inverse(1)
        c0 = one_over - coef([0, 0, 1]) * one_over
        assert c0.dfac == (1,)
        e = TorusElement(A2, N, (0, 0), {(0, 0): c0, (1, 0): coef([2])})
        assert multiply(e, invert(e)) == one()
        assert invert(e) == invert(add(one(), Y((1, 0)).scale(coef([2]))))

    def test_noninvertible(self):
        with pytest.raises(NonInvertible):
            invert(Y((1, 0)) - Y((1, 0)))
        with pytest.raises(NonInvertible):
            invert(TorusElement(A2, N, (0, 0), {(1, 0): ONE}))
        with pytest.raises(NonInvertible):     # 1 + q is no monomial
            invert(TorusElement(A2, N, (0, 0), {(0, 0): coef([1, 1])}))


class TestStoredTerms:
    """A TorusElement holds only nonzero coefficients: a shift that is
    missing has coefficient 0, and the zero element has no terms."""

    def test_no_zero_coefficient_is_held(self):
        y1, y2 = Y((1, 0)), Y((0, 1))
        f = add(one(), qp(y1, 1))
        s = add(y1, y2)                 # no delta = 0 term
        elems = [s, add(y1, -y1), f - f, s - s, multiply(f, s),
                 multiply(s, s), multiply(f, invert(f)), invert(f),
                 invert(psi_series(Y((1, 1)))), psi_series(s),
                 multiply(psi_series(y1), psi_series(y2)),
                 psi_series(y1) - psi_series(y1)]
        for e in elems:
            assert not any(c.is_zero() for c in e.terms.values()), e.pretty()
        assert (f - f).terms == {} and (f - f).is_zero()
        assert set(multiply(f, invert(f)).terms) == {(0, 0)}

    @pytest.mark.parametrize("ring", [ratfunc.EXACT,
                                      RationalPointField(Fraction(3, 8))],
                             ids=["exact", "q0=3/8"])
    def test_missing_constant_shift(self, ring):
        s = add(monomial((1, 0), A2, N, ring), monomial((0, 1), A2, N, ring))
        assert (0, 0) not in s.terms
        assert s.constant_coefficient().is_zero()
        with pytest.raises(NonInvertible):
            invert(s)


@st.composite
def coefficients(draw):
    """(c, extra): c = q^j * P(q) / (q^2; q^2)_n, with P's coefficients
    small or up to 2^200 (so one product mixes 64-, 128- and 256-bit
    digits); one draw in five, extra = (c0, c1) names a factor
    1 / (c0 + c1 q), no unit of the exact ring, which the rational point
    q0 = 3/8 takes as an exact Fraction."""
    size = draw(st.sampled_from((3, 2**60, 2**120, 2**200)))
    num = draw(st.lists(st.integers(-size, size), min_size=1,
                        max_size=3).filter(any))
    c = coef(num) * QCoefficient.qpochhammer_inverse(draw(st.integers(0, 2)))
    extra = None
    if draw(st.integers(0, 4)) == 0:
        extra = (draw(st.integers(2, 3)), draw(st.integers(-3, 3)))
    return c.mul_q_power(draw(st.integers(-2, 2))), extra


def in_ring(ring, spec):
    """The coefficient (c, extra) of `coefficients()` in `ring`: c itself
    over the exact ring, c(q0) / (c0 + c1 q0) at a rational point."""
    c, extra = spec
    if ring == ratfunc.EXACT:
        return c
    value = c.evaluate(ring.q0)
    if extra is not None:
        value /= extra[0] + extra[1] * ring.q0
    return ratfunc.RationalQ(value, ring.q0)


@st.composite
def sparse_triples(draw):
    """A random skew-symmetric B of rank 2 to 4 with b_01 != 0, an order
    2 <= N <= 6 and three sparse elements, each with a nonzero
    constant-shift coefficient and a unit of the exact ring to put in its
    place.  Each element has at least two more shifts, each of total
    degree <= N // 2, so that the product of any two survives truncation
    and most pairs of them do not commute."""
    n = draw(st.integers(2, 4))
    N = draw(st.integers(2, 6))
    b = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            b[i, j] = draw(st.sampled_from((-2, -1, 1, 2)) if (i, j) == (0, 1)
                           else st.integers(-2, 2))
            b[j, i] = -b[i, j]
    # a shift is a multiset of 1 to N // 2 coordinates
    shifts = st.lists(st.integers(0, n - 1), min_size=1, max_size=N // 2).map(
        lambda idx: tuple(idx.count(i) for i in range(n)))
    elems = []
    for _ in range(3):
        base = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        terms = draw(st.dictionaries(shifts, coefficients(), min_size=2,
                                     max_size=4))
        terms[(0,) * n] = draw(coefficients())
        elems.append((base, terms, draw(units(powers=(0, 1, 2)))))
    return ExchangeMatrix(b), N, elems


# Shrinking a failing draw of three sparse elements with wide coefficients
# can run for many minutes, so these tests report the first failing draw
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target]


class TestProductProperties:
    """Associativity and two-sided inverses on random sparse elements; the
    products sum many pairs per output shift through `ring.pair_sum`."""

    @pytest.mark.parametrize("ring", [ratfunc.EXACT,
                                      RationalPointField(Fraction(3, 8))],
                             ids=["exact", "q0=3/8"])
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(case=sparse_triples())
    def test_associative_with_two_sided_inverse(self, ring, case):
        """Over the exact ring the constant-shift coefficients, which
        `invert` inverts, are units; at q0 = 3/8 any nonzero value is."""
        B, order, specs = case
        a, b, c = (TorusElement(B, order, base,
                                {d: in_ring(ring, v) for d, v in terms.items()},
                                ring)
                   for base, terms, _ in specs)
        if ring == ratfunc.EXACT:
            a, b, c = (TorusElement(B, order, x.base,
                                    {**x.terms, (0,) * B.n: u}, ring)
                       for x, (_, _, u) in zip((a, b, c), specs))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        inv = invert(a)
        assert multiply(a, inv) == unit(B, order, ring)
        assert multiply(inv, a) == unit(B, order, ring)

    @pytest.mark.parametrize("ring", [ratfunc.EXACT,
                                      RationalPointField(Fraction(3, 8))],
                             ids=["exact", "q0=3/8"])
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(case=sparse_triples())
    def test_fused_pair_products_match_reference(self, ring, case):
        """multiply sums the pairs landing on each shift in one
        `ring.pair_sum`; the reference builds (c1 * c2).mul_q_power(e)
        pair by pair and adds them one at a time."""
        B, order, specs = case
        a, b, c = (TorusElement(B, order, base,
                                {d: in_ring(ring, v) for d, v in terms.items()},
                                ring)
                   for base, terms, _ in specs)
        assert multiply(a, b) == reference_multiply(a, b)
        assert multiply(c, a) == reference_multiply(c, a)

    def test_pairs_cancelling_on_one_shift(self):
        """(u + c Y1)(v - w Y1) with u w = c v: both pairs landing on Y1
        cancel, although their products carry different denominators."""
        u = QCoefficient.qpochhammer_inverse(1)
        v = coef([1, 2]).mul_q_power(-3) * QCoefficient.qpochhammer_inverse(2)
        c = coef([0, 5, -1]) * QCoefficient.qpochhammer_inverse(3)
        w = c * v * u.inverse()
        assert ratfunc.EXACT.pair_sum([(u, -w, 0), (c, v, 0)]).is_zero()
        a = TorusElement(A2, N, (0, 0), {(0, 0): u, (1, 0): c})
        b = TorusElement(A2, N, (0, 0), {(0, 0): v, (1, 0): -w})
        prod = multiply(a, b)
        assert (1, 0) not in prod.terms
        assert prod == reference_multiply(a, b)

    def test_pessimistic_bounds_set_the_width(self):
        """c = ((1 + q) + 2^61) - 2^61 tracks a coefficient bound near
        2^62, so a product's bound overflows 64-bit digits: every product
        term is packed at `_width` of its tracked bound, although its
        coefficients would fit 64 bits.  Products of d = 2^40 + q need
        the wider digit; they are exact there too."""
        big = coef([2**61])
        c = (coef([1, 1]) + big) - big
        assert c.num.k == 64 and c.num.bound > 2**61
        d = coef([2**40, 1])
        for x, middle in ((c, [2, 4, 2]), (d, [2**81, 2**42, 2])):
            a = TorusElement(A2, N, (0, 0), {(0, 0): x, (1, 0): x})
            prod = multiply(a, a)
            assert len(prod.terms) == 3
            for term in prod.terms.values():
                assert term.num.k == ratfunc._width(term.num.bound) == 128
            assert prod.terms[(1, 0)] == coef(middle)
            assert prod == reference_multiply(a, a)


class TestSumProperties:
    @pytest.mark.parametrize("ring", [ratfunc.EXACT,
                                      RationalPointField(Fraction(3, 8))],
                             ids=["exact", "q0=3/8"])
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(case=sparse_triples(), scalars=st.lists(coefficients(),
                                                   min_size=3, max_size=3))
    def test_scalar_sum_is_scale_then_add(self, ring, case, scalars):
        """_sum of (element, scalar) pairs over different bases hands each
        term its scalar and re-base q-power as one pair_sum triple; it
        equals scaling each element and adding them."""
        B, order, specs = case
        elems = [TorusElement(B, order, base,
                              {d: in_ring(ring, v) for d, v in terms.items()},
                              ring)
                 for base, terms, _ in specs]
        scalars = [in_ring(ring, s) for s in scalars]
        total = torus._sum(list(zip(elems, scalars)))
        a, b, c = (x.scale(s) for x, s in zip(elems, scalars))
        assert total == add(add(a, b), c)
        assert total.base == tuple(map(min, zip(*(x.base for x in elems))))


class TestPsiSeries:
    def test_constant_term_and_low_coefficients(self):
        P = psi_series(Y((1, 0), 8))
        assert P.terms[(0, 0)] == ONE
        assert P.terms[(1, 0)] == coef([0, -1]) * \
            QCoefficient.qpochhammer_inverse(1)
        assert P.terms[(2, 0)] == coef([0, 0, 1]) * \
            QCoefficient.qpochhammer_inverse(2)

    def test_of_zero_is_one(self):
        assert psi_series(TorusElement(A2, N, (0, 0), {})) == one()

    def test_recursion_at_every_truncation_order(self):
        for order in (2, 4, 6, 8):
            for arg in (Y((1, 0), order), Y((1, 1), order),
                        multiply(Y((1, 0), order), Y((0, 1), order))):
                lhs = psi_series(qp(arg, 2))
                rhs = multiply(add(unit(A2, order), qp(arg, 1)), psi_series(arg))
                assert lhs == rhs

    def test_nontruncating_rejected(self):
        with pytest.raises(NonTruncating):
            psi_series(Y((-1, 0)))
        with pytest.raises(NonTruncating):
            psi_series(add(one(), Y((1, 0))))  # nonzero degree-0 part

    def test_nonnegative_base_with_series_tail_accepted(self):
        arg = multiply(Y((0, 1)), add(one(), qp(Y((1, 0)), 1)))
        P = psi_series(arg)
        assert P.terms[(0, 0)] == ONE


A3 = ExchangeMatrix(np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))
RINGS = [ratfunc.EXACT, RationalPointField(Fraction(2, 7))]


def full_order_series(x, coefficient):
    """sum_n coefficient(n) x^n with every power built to the full order
    by plain multiply, the rebase onto base 0 dropping what lies above."""
    total = xp = unit(x.matrix, x.order, x.ring)
    for n in range(1, x.order + 1):
        xp = multiply(xp, x)
        total = add(total, xp.scale(coefficient(n)))
    return total


def assert_series_match_full_order(x):
    ring = x.ring
    assert psi_series(x) == full_order_series(x, ring.psi_coefficient)
    assert psi_inverse_series(x) == full_order_series(
        x, ring.psi_inverse_coefficient)


def series_arguments(B, sequence, order, ring):
    """The dense quantum y-variables the universal identity takes series
    of, each also written over base 0, where its series sums every power
    to the full order."""
    seeds, _, signs = quantum_trajectory(B, sequence, order, ring)
    zero = (0,) * B.n
    for t, (k, eps) in enumerate(zip(sequence, signs)):
        y = seeds[t if eps > 0 else t + 1].Y[k - 1]
        yield y
        over_zero = add(y, TorusElement(B, order, zero, {}, ring))
        assert over_zero.base == zero
        yield over_zero


class TestSeriesAgainstFullOrder:
    """psi_series and psi_inverse_series equal the series whose powers are
    all formed to the full order, over a zero base (where no power may be
    cut short) and over a positive one."""

    @pytest.mark.parametrize("ring", RINGS, ids=["exact", "q0=2/7"])
    @pytest.mark.parametrize("B, sequence, order", [
        (A2, (1, 2, 1, 2, 1), 6), (A2, (1, 2, 1, 2, 1), 10),
        (A3, (1, 2, 1, 3, 2, 1, 3, 2, 1), 6),
        (A3, (1, 2, 1, 3, 2, 1, 3, 2, 1), 8),
    ], ids=["A2-6", "A2-10", "A3-6", "A3-8"])
    def test_dense_trajectory_arguments(self, ring, B, sequence, order):
        for x in series_arguments(B, sequence, order, ring):
            assert_series_match_full_order(x)

    @pytest.mark.parametrize("ring", RINGS, ids=["exact", "q0=2/7"])
    def test_monomial_sums(self, ring):
        def y(alpha):
            return monomial(alpha, A2, N, ring)
        for x in (add(y((1, 0)), y((0, 1))),     # zero base, degree floor 1
                  add(y((2, 0)), y((0, 2))),     # zero base, degree floor 2
                  y((1, 1)).scale_q_power(1)):  # base (1, 1)
            assert_series_match_full_order(x)


class TestEvaluation:
    def test_commutative_evaluation_with_laurent_base(self):
        e = qp(multiply(Y((-1, 0)), add(one(), Y((0, 1)))), 3)
        y = (0.7, 0.4)
        # q = 1: e -> y1^-1 (1 + y2)
        assert e.evaluate_commutative(y, 1) == pytest.approx((1 + y[1]) / y[0])

    def test_rational_point_pentagon(self):
        ring = RationalPointField(Fraction(2, 7))
        u = unit(A2, 8, ring)
        y1 = monomial((1, 0), A2, 8, ring)
        y2 = monomial((0, 1), A2, 8, ring)
        y12 = monomial((1, 1), A2, 8, ring)
        P = u
        for f in (psi_series(y1), psi_series(y2), invert(psi_series(y1)),
                  invert(psi_series(y12)), invert(psi_series(y2))):
            P = multiply(P, f)
        assert deviation_from(P, u) == []
