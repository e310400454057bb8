from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from clusterdilog import qident, ratfunc, torus
from clusterdilog.errors import NonTruncating, NotAPeriod
from clusterdilog.exchange import (
    ExchangeMatrix,
    MutationSchedule,
    _walk,
    extend_schedule,
    mutate_y_numeric,
    numeric_trajectory,
    principal_extension,
    sign_sequence,
)
from clusterdilog.qident import (
    MAX_EXPONENT,
    classical_series_trajectory,
    degenerate_q1,
    initial_quantum_seed,
    quantum_mutate,
    quantum_trajectory,
    seed_commutation_residual,
    verify_dual_pair,
    verify_shuffle,
    verify_tropical_identity,
    verify_universal_identity,
)
from clusterdilog.torus import (invert, monomial, multiply, psi_inverse_series,
                                psi_series, unit)

A1 = ExchangeMatrix(np.zeros((1, 1), dtype=int))
A2 = ExchangeMatrix(np.array([[0, -1], [1, 0]]))
A2_SCHED = MutationSchedule((1, 2, 1, 2, 1), (2, 1))
A1_SCHED = MutationSchedule((1, 1), (1,))

SMALL_PERIODS = [
    (A1, A1_SCHED),
    (A2, A2_SCHED),
    (A2, MutationSchedule.identity_nu((1, 1), 2)),
    (A2, MutationSchedule.identity_nu((2, 2), 2)),
    (ExchangeMatrix(np.array([[0, -2], [2, 0]])),
     MutationSchedule.identity_nu((1, 1), 2)),
    (ExchangeMatrix(np.zeros((2, 2), dtype=int)),
     MutationSchedule.identity_nu((1, 2, 1, 2), 2)),
]


def a2_elements(N):
    one = unit(A2, N)
    Y1 = monomial((1, 0), A2, N)
    Y2 = monomial((0, 1), A2, N)
    return one, Y1, Y2


class TestQuantumMutate:
    def test_exponent_bound(self):
        """A step multiplies in |b_ki| torus factors one by one, so an
        exponent beyond MAX_EXPONENT is refused before any work."""
        c = MAX_EXPONENT
        s = quantum_mutate(initial_quantum_seed(
            ExchangeMatrix(np.array([[0, c], [-c, 0]])), 1), 1, +1)
        assert s.matrix[1, 2] == -c
        wide = ExchangeMatrix(np.array([[0, c + 1], [-c - 1, 0]]))
        for k in (1, 2):
            with pytest.raises(ValueError, match="exceeds"):
                quantum_mutate(initial_quantum_seed(wide, 1), k, -1)

    def test_a2_first_step(self):
        N = 6
        one, Y1, Y2 = a2_elements(N)
        s = quantum_mutate(initial_quantum_seed(A2, N), 1, +1)
        assert s.Y[0] == invert(Y1)
        assert s.Y[1] == multiply(Y2, torus.add(one, Y1.scale_q_power(1)))

    def test_a2_trajectory_table(self):
        """Quantum y-variables of the rank-2 pentagon seed, all steps.

        Each mutated active variable is the unique two-sided inverse of
        its predecessor, which pins every entry."""
        N = 6
        one, Y1, Y2 = a2_elements(N)
        qp = lambda e, j: e.scale_q_power(j)
        inner = torus.add(torus.add(one, qp(Y2, 1)), multiply(Y1, Y2))
        seeds, _, signs = quantum_trajectory(A2, A2_SCHED.sequence, N)
        assert signs == [1, 1, -1, -1, -1]
        expect = {
            (2, 0): invert(Y1),
            (2, 1): multiply(Y2, torus.add(one, qp(Y1, 1))),
            (3, 0): multiply(invert(Y1), inner),
            (3, 1): multiply(invert(Y2), invert(torus.add(one, qp(Y1, -1)))),
            (4, 0): multiply(invert(inner), Y1),
            (4, 1): qp(multiply(multiply(invert(Y1), invert(Y2)),
                                torus.add(one, qp(Y2, 1))), -1),
            (5, 0): invert(Y2),
            (5, 1): qp(multiply(invert(torus.add(one, qp(Y2, 1))),
                                multiply(Y2, Y1)), 1),
            (6, 0): Y2,
            (6, 1): Y1,
        }
        for (t, i), e in expect.items():
            assert seeds[t - 1].Y[i] == e, f"Y{i+1}({t})"

    def test_quantum_periodicity(self):
        seeds, _, _ = quantum_trajectory(A2, A2_SCHED.sequence, 6)
        gens = initial_quantum_seed(A2, 6)
        perm = [v - 1 for v in A2_SCHED.nu]
        for i in range(2):
            assert seeds[-1].Y[perm[i]] == gens.Y[i]

    def test_epsilon_independence(self):
        rng = np.random.default_rng(0)
        for B, sched in SMALL_PERIODS[1:]:
            s = initial_quantum_seed(B, 5)
            for k in sched.sequence:
                plus = quantum_mutate(s, k, +1)
                minus = quantum_mutate(s, k, -1)
                assert plus.matrix == minus.matrix
                for i in range(B.n):
                    assert plus.Y[i] == minus.Y[i]
                s = plus
        # also along non-periodic random sequences
        B3 = ExchangeMatrix(np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))
        s = initial_quantum_seed(B3, 4)
        for k in rng.integers(1, 4, size=5):
            plus = quantum_mutate(s, int(k), +1)
            minus = quantum_mutate(s, int(k), -1)
            for i in range(3):
                assert plus.Y[i] == minus.Y[i]
            s = plus
        # and on the principal extension
        ext = principal_extension(A2)
        s = initial_quantum_seed(ext, 4)
        for k in A2_SCHED.sequence:
            plus = quantum_mutate(s, k, +1)
            minus = quantum_mutate(s, k, -1)
            for i in range(4):
                assert plus.Y[i] == minus.Y[i]
            s = plus

    def test_seed_commutation_invariant(self):
        seeds, _, _ = quantum_trajectory(A2, A2_SCHED.sequence, 6)
        for s in seeds:
            assert seed_commutation_residual(s) == []


@st.composite
def word_cases(draw):
    """A random skew-symmetric B of rank <= 4 with entries in [-2, 2], a
    word of length 1..6 with no immediate repeats, mostly not a period,
    and a truncation order N <= 4.  Words whose B(t) outgrows the
    exchange-exponent bound of quantum_mutate are discarded."""
    n = draw(st.integers(1, 4))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = draw(st.integers(-2, 2))
            b[j][i] = -b[i][j]
    word = []
    for _ in range(draw(st.integers(1, 6 if n > 1 else 1))):
        word.append(draw(st.sampled_from(
            [k for k in range(1, n + 1) if not word or k != word[-1]])))
    B, sched = ExchangeMatrix(b), MutationSchedule.identity_nu(word, n)
    assume(all(abs(x) <= MAX_EXPONENT
               for rows in _walk(B, sched).rows for r in rows for x in r))
    return B, sched, draw(st.integers(1, 4))


class TestQ1Degeneration:
    @settings(max_examples=100, deadline=None)
    @given(case=word_cases())
    def test_generated_words_match_commutative_shadow(self, case):
        B, sched, N = case
        seeds, _, _ = quantum_trajectory(B, sched.sequence, N)
        shadow = classical_series_trajectory(B, sched.sequence, N)
        for t in range(len(seeds)):
            assert seeds[t].matrix == shadow[t][0]
            for i in range(B.n):
                assert degenerate_q1(seeds[t].Y[i]) == degenerate_q1(shadow[t][1][i])

    def test_exact_series_match_with_commutative_shadow(self):
        N = 8
        seeds, _, _ = quantum_trajectory(A2, A2_SCHED.sequence, N)
        shadow = classical_series_trajectory(A2, A2_SCHED.sequence, N)
        for t in range(len(seeds)):
            assert seeds[t].matrix == shadow[t][0]
            for i in range(2):
                assert degenerate_q1(seeds[t].Y[i]) == degenerate_q1(shadow[t][1][i])

    def test_numeric_match_with_classical_trajectory(self):
        """q = 1 evaluation against the float trajectory, on points where
        the truncated tails are below the comparison tolerance."""
        N = 12
        seeds, _, _ = quantum_trajectory(A2, A2_SCHED.sequence, N)
        rng = np.random.default_rng(1)
        for _ in range(20):
            y0 = rng.uniform(1e-3, 3e-2, size=2)
            traj = numeric_trajectory(A2, A2_SCHED.sequence, y0)
            for t in range(len(seeds)):
                for i in range(2):
                    approx = seeds[t].Y[i].evaluate_commutative(y0, 1)
                    exact = traj[t].y[i]
                    assert abs(approx - exact) / abs(exact) < 1e-12

    def test_single_step_commutative_image(self):
        from clusterdilog.exchange import NumericSeed

        seed = initial_quantum_seed(A2, 10)
        step = quantum_mutate(seed, 1, +1)
        y0 = np.array([0.01, 0.02])
        out = mutate_y_numeric(NumericSeed(A2, y0), 1)
        for i in range(2):
            assert step.Y[i].evaluate_commutative(y0, 1) == pytest.approx(
                out.y[i], rel=1e-13)


@st.composite
def monomial_factor_cases(draw):
    """A random skew-symmetric B of rank <= 4, a nonzero nonnegative
    exponent vector alpha and a truncation order N <= 8."""
    n = draw(st.integers(1, 4))
    b = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            b[i, j] = draw(st.integers(-2, 2))
            b[j, i] = -b[i, j]
    alpha = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    return ExchangeMatrix(b), tuple(alpha), draw(st.integers(1, 8))


class TestPsiMonomial:
    """The closed form for Psi(Y^alpha)^(+-1) against the generic series
    machinery (psi_series, invert)."""

    @pytest.mark.parametrize("ring", [ratfunc.EXACT,
                                      ratfunc.RationalPointField(Fraction(3, 8))],
                             ids=["exact", "q0=3/8"])
    @settings(max_examples=40, deadline=None)
    @given(case=monomial_factor_cases())
    def test_matches_series_and_inverse(self, ring, case):
        B, alpha, N = case
        series = psi_series(monomial(alpha, B, N, ring))
        plus = qident._psi_monomial(alpha, 1, B, N, ring)
        minus = qident._psi_monomial(alpha, -1, B, N, ring)
        assert plus == series
        assert minus == invert(series)
        one = unit(B, N, ring)
        assert multiply(plus, minus) == one
        assert multiply(minus, plus) == one

    @pytest.mark.parametrize("alpha", [(0, 0), (1, -1), (-1, 0)])
    def test_non_truncating_argument_rejected(self, alpha):
        for eps in (1, -1):
            with pytest.raises(NonTruncating):
                qident._psi_monomial(alpha, eps, A2, 6, ratfunc.EXACT)


A3_LINEAR = ExchangeMatrix(np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))


class TestEulerFactor:
    """The universal product reads Y_{k_t}(t)^-1 from the next seed and
    builds 1/Psi by Euler's series; both must agree with the generic
    machinery (invert, psi_series) on the dense trajectory arguments."""

    CASES = [
        (A2, A2_SCHED.sequence, 6),
        (principal_extension(A2), A2_SCHED.sequence, 5),
        (A3_LINEAR, (2, 3, 1, 2, 3, 1), 4),   # not a period; two eps < 0
    ]

    @pytest.mark.parametrize("ring", [ratfunc.EXACT,
                                      ratfunc.RationalPointField(Fraction(3, 8))],
                             ids=["exact", "q0=3/8"])
    @pytest.mark.parametrize("case", CASES, ids=["A2", "A2-principal", "A3-word"])
    def test_matches_inverted_series_on_trajectory(self, ring, case):
        B, word, N = case
        seeds, actives, signs = quantum_trajectory(B, word, N, ring)
        one = unit(B, N, ring)
        assert -1 in signs
        for t, k in enumerate(word):
            inverse = seeds[t + 1].Y[k - 1]
            assert multiply(actives[t], inverse) == one
            assert multiply(inverse, actives[t]) == one
            arg = actives[t] if signs[t] > 0 else inverse
            assert psi_inverse_series(arg) == invert(psi_series(arg)), t


class TestTropicalIdentity:
    def test_a2_pentagon_exact(self):
        r = verify_tropical_identity(A2, A2_SCHED, 8)
        assert r.passed and r.residual_terms == ()

    def test_a1_trivial(self):
        assert verify_tropical_identity(A1, A1_SCHED, 8).passed

    def test_a2_principal_extension(self):
        ext = principal_extension(A2)
        r = verify_tropical_identity(ext, extend_schedule(A2_SCHED, 2), 6)
        assert r.passed

    def test_all_small_periods(self):
        for B, sched in SMALL_PERIODS:
            assert verify_tropical_identity(B, sched, 6).passed, sched

    def test_not_a_period_rejected(self):
        with pytest.raises(NotAPeriod):
            verify_tropical_identity(A2, MutationSchedule.identity_nu((1, 2, 1), 2), 6)

    def test_rational_point_mode(self):
        r = verify_tropical_identity(A2, A2_SCHED, 8, q0=Fraction(3, 8))
        assert r.passed
        assert "probabilistic" in r.mode

    def test_report_json_shape(self):
        j = verify_tropical_identity(A2, A2_SCHED, 6).to_json()
        assert j["identity"] == "tropical"
        assert j["order"] == 6
        assert j["verdict"] == "PASS"
        assert j["residual_terms"] == []


A3_PERIOD = MutationSchedule((1, 2, 1, 3, 2, 1, 3, 2, 1), (3, 2, 1))
SPLIT_PERIODS = [
    (A1, A1_SCHED, 8),
    (A2, A2_SCHED, 8),
    (principal_extension(A2), extend_schedule(A2_SCHED, 2), 6),
    (A3_LINEAR, A3_PERIOD, 5),
]


class TestHalfSplit:
    """The tropical and dual checks compare the first half of the product
    P with the inverse of its second half; left - right = (P - 1) right
    with right = 1 + (higher terms), so the verdict is that of P - 1 and
    the lowest-degree residual terms are P - 1's."""

    @pytest.mark.parametrize("q0", [None, Fraction(3, 8)],
                             ids=["exact", "q0=3/8"])
    @pytest.mark.parametrize("case", SPLIT_PERIODS,
                             ids=["A1", "A2", "A2-principal", "A3"])
    def test_periods_pass(self, q0, case):
        B, sched, N = case
        assert verify_tropical_identity(B, sched, N, q0=q0).passed
        r1, r2 = verify_dual_pair(B, sched, N, q0=q0)
        assert r1.passed and r2.passed

    @staticmethod
    def full_fold(B, ss, N, ring, order):
        P = unit(B, N, ring)
        for t in order:
            eps = ss.signs[t]
            alpha = tuple(eps * a for a in ss.cvectors[t])
            P = multiply(P, qident._psi_monomial(alpha, eps, B, N, ring))
        return P

    @staticmethod
    def lowest(terms):
        low = min(sum(expo) for expo, _ in terms)
        return [(expo, c) for expo, c in terms if sum(expo) == low]

    @pytest.mark.parametrize("ring", [ratfunc.EXACT,
                                      ratfunc.RationalPointField(Fraction(3, 8))],
                             ids=["exact", "q0=3/8"])
    @pytest.mark.parametrize("word", [(1, 2, 1), (1, 2, 1, 2), (2, 1, 2, 1, 2, 1)])
    @pytest.mark.parametrize("N", [6, 9])
    def test_fail_report_leads_with_p_minus_one(self, ring, word, N):
        ss = sign_sequence(A2, MutationSchedule.identity_nu(word, 2))
        L = len(word)
        A2op = ExchangeMatrix([[-x for x in r] for r in A2.rows])
        for B, order in ((A2, range(L)), (A2op, list(reversed(range(L))))):
            split = qident._tropical_residual(B, ss, N, ring, order)
            P = self.full_fold(B, ss, N, ring, order)
            dev = torus.deviation_from(P, unit(B, N, ring))
            assert split and dev
            assert self.lowest(split) == self.lowest(dev)

    def test_pair_count_a2_order_16(self, monkeypatch):
        """Two half products stay sparser than one full fold: the products
        of the tropical check on A2 at N = 16 hand ring.pair_sum at most
        800 triples, about half of the 1,560 the full fold took.  The
        sum that compares the halves also reaches pair_sum; its triples
        are not products and are not counted."""
        pair_sum = ratfunc.ExactField.pair_sum
        handed, inside = [], []

        def counting(triples):
            if inside:
                handed.append(len(triples))
            return pair_sum(triples)

        def product(a, b):
            inside.append(True)
            try:
                return multiply(a, b)
            finally:
                inside.pop()

        monkeypatch.setattr(ratfunc.ExactField, "pair_sum",
                            staticmethod(counting))
        monkeypatch.setattr(qident, "multiply", product)
        assert verify_tropical_identity(A2, A2_SCHED, 16).passed
        assert sum(handed) <= 800


class TestUniversalIdentity:
    def test_a2_exact(self):
        assert verify_universal_identity(A2, A2_SCHED, 6).passed

    def test_a2_argument_list(self):
        """The five factor arguments in the initial torus."""
        N = 6
        one, Y1, Y2 = a2_elements(N)
        qp = lambda e, j: e.scale_q_power(j)
        _, actives, signs = quantum_trajectory(A2, A2_SCHED.sequence, N)
        args = [a if s > 0 else invert(a) for a, s in zip(actives, signs)]
        inner = torus.add(torus.add(one, qp(Y2, 1)), multiply(Y1, Y2))
        expected = [
            Y1,
            multiply(Y2, torus.add(one, qp(Y1, 1))),
            multiply(invert(inner), Y1),
            qp(multiply(invert(torus.add(one, qp(Y2, 1))), multiply(Y2, Y1)), 1),
            Y2,
        ]
        assert args == expected

    def test_a1_trivial(self):
        assert verify_universal_identity(A1, A1_SCHED, 6).passed

    def test_alternative_pentagon_arrangement(self):
        """Substituting X = Y2(1+qY1), Y = Y1 (so that YX = q^2 XY) into
        the universal five-term identity gives the other known pentagon
        arrangement; verified directly."""
        N = 6
        one, Y1, Y2 = a2_elements(N)
        qp = lambda e, j: e.scale_q_power(j)
        X = multiply(Y2, torus.add(one, qp(Y1, 1)))
        Yv = Y1
        assert multiply(Yv, X) == qp(multiply(X, Yv), 2)
        factors = [
            invert(psi_series(multiply(X, invert(torus.add(one, qp(Yv, 1)))))),
            invert(psi_series(qp(multiply(
                multiply(X, invert(torus.add(torus.add(one, qp(X, 1)), qp(Yv, 1)))),
                Yv), 1))),
            invert(psi_series(multiply(invert(torus.add(one, qp(X, 1))), Yv))),
            psi_series(X),
            psi_series(Yv),
        ]
        P = one
        for f in factors:
            P = multiply(P, f)
        assert torus.deviation_from(P, one) == []

    def test_all_small_periods(self):
        for B, sched in SMALL_PERIODS:
            assert verify_universal_identity(B, sched, 5).passed, sched

    def test_pair_count_a2_order_11(self, monkeypatch):
        """Each series power is formed only to the degree its term keeps:
        the universal check on A2 at N = 11 hands ring.pair_sum at most
        half of the 7,186 triples that full-order powers took."""
        pair_sum = ratfunc.ExactField.pair_sum
        handed = []

        def counting(triples):
            handed.append(len(triples))
            return pair_sum(triples)

        monkeypatch.setattr(ratfunc.ExactField, "pair_sum",
                            staticmethod(counting))
        assert verify_universal_identity(A2, A2_SCHED, 11).passed
        assert sum(handed) <= 7186 // 2


class TestShuffle:
    def test_a2_all_cuts(self):
        for t in range(1, 6):
            assert verify_shuffle(A2, A2_SCHED, t, 6).passed, t

    def test_nonperiodic_prefix(self):
        sched = MutationSchedule.identity_nu((1, 2, 1), 2)
        assert verify_shuffle(A2, sched, 3, 6).passed

    def test_trivial_cut(self):
        assert verify_shuffle(A2, A2_SCHED, 1, 6).passed

    def test_cut_out_of_range(self):
        with pytest.raises(ValueError):
            verify_shuffle(A2, A2_SCHED, 6, 6)

    @settings(max_examples=100, deadline=None)
    @given(case=word_cases())
    def test_generated_words_every_cut(self, case):
        B, sched, N = case
        for t in range(1, sched.length + 1):
            assert verify_shuffle(B, sched, t, N).passed, t

    def test_random_nonperiodic_rank3(self):
        B3 = ExchangeMatrix(np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]]))
        sched = MutationSchedule.identity_nu((1, 2, 3, 1), 3)
        for t in (2, 3, 4):
            assert verify_shuffle(B3, sched, t, 4).passed, t


class TestRankThreePeriods:
    """Genuinely three-dimensional periods of the linear rank-3 quiver,
    including the length-9 source sequence; every identity form must
    verify exactly."""

    A3 = ExchangeMatrix(np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))
    CASES = [
        MutationSchedule((1, 2, 1, 3, 2, 1, 3, 2, 1), (3, 2, 1)),
        MutationSchedule((2, 3, 1, 2, 3, 1, 2, 3), (3, 1, 2)),
        MutationSchedule((1, 2, 3, 2, 3, 2, 1), (1, 3, 2)),
    ]

    @pytest.mark.parametrize("sched", CASES, ids=lambda s: str(s.sequence))
    def test_all_identity_forms(self, sched):
        assert verify_tropical_identity(self.A3, sched, 5).passed
        assert verify_universal_identity(self.A3, sched, 4).passed
        r1, r2 = verify_dual_pair(self.A3, sched, 4)
        assert r1.passed and r2.passed
        for t in (2, sched.length):
            assert verify_shuffle(self.A3, sched, t, 4).passed

    def test_rank2_period_lifts_by_extension(self):
        # indices never mutated behave as an extension, so the rank-2
        # period runs unchanged inside the rank-3 matrix
        sched = MutationSchedule((1, 2, 1, 2, 1), (2, 1, 3))
        assert verify_tropical_identity(self.A3, sched, 5).passed


class TestSearchedPeriods:
    def test_every_searched_rank2_period_verifies(self):
        """Periods found by BFS on assorted rank-2 matrices all satisfy
        the tropical identity exactly."""
        from clusterdilog.search import search_periods

        mats = [ExchangeMatrix(np.array([[0, -c], [c, 0]])) for c in (1, 2, 3)]
        mats.append(ExchangeMatrix(np.zeros((2, 2), dtype=int)))
        checked = 0
        for B in mats:
            for sched in search_periods(B, 5):
                assert verify_tropical_identity(B, sched, 5).passed, sched
                checked += 1
        assert checked >= 8


class TestDualPair:
    def test_a2(self):
        r1, r2 = verify_dual_pair(A2, A2_SCHED, 6)
        assert r1.passed and r2.passed
        assert r1.identity == "dual-q" and r2.identity == "dual-qbar"

    def test_a1_trivial(self):
        r1, r2 = verify_dual_pair(A1, A1_SCHED, 6)
        assert r1.passed and r2.passed

    def test_factor_list_reversal(self):
        """The direct identity's factors have the signed c-vectors below;
        the dual identity takes the same factors in reverse order."""
        ss = sign_sequence(A2, A2_SCHED)
        direct = [tuple(eps * a for a in alpha)
                  for eps, alpha in zip(ss.signs, ss.cvectors)]
        assert direct == [(1, 0), (0, 1), (1, 0), (1, 1), (0, 1)]

    def test_all_small_periods(self):
        for B, sched in SMALL_PERIODS:
            r1, r2 = verify_dual_pair(B, sched, 5)
            assert r1.passed and r2.passed, sched
