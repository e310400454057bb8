import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clusterdilog import qident
from clusterdilog.errors import MixedSignCVector, NotAPeriod, ZeroCVector
from clusterdilog.exchange import (
    ExchangeMatrix,
    MutationSchedule,
    NumericSeed,
    PeriodReport,
    TropicalState,
    _walk,
    check_period,
    extend_schedule,
    mutate_matrix,
    mutate_tropical,
    mutate_y_numeric,
    numeric_period_residual,
    numeric_trajectory,
    principal_extension,
    require_period,
    sign_sequence,
    tropical_sign,
)
from clusterdilog.search import search_periods

A1 = ExchangeMatrix(np.zeros((1, 1), dtype=int))
A2 = ExchangeMatrix(np.array([[0, -1], [1, 0]]))
A2_SCHED = MutationSchedule((1, 2, 1, 2, 1), (2, 1))
A1_SCHED = MutationSchedule((1, 1), (1,))


def mutate_matrix_alt(B, k):
    """Independent reference: the other displayed form of the rule,
    b_ij + [b_ik]_+ b_kj + b_ik [-b_kj]_+."""
    b = B.entries
    n = B.n
    kk = k - 1
    out = np.array(b)
    for i in range(n):
        for j in range(n):
            if i == kk or j == kk:
                out[i, j] = -b[i, j]
            else:
                out[i, j] = (b[i, j] + max(b[i, kk], 0) * b[kk, j]
                             + b[i, kk] * max(-b[kk, j], 0))
    return ExchangeMatrix(out)


def random_skew(rng, n, bound=3):
    b = rng.integers(-bound, bound + 1, size=(n, n))
    b = np.triu(b, 1)
    return ExchangeMatrix(b - b.T)


class TestMutateMatrix:
    def test_rank2_full_negation(self):
        assert mutate_matrix(A2, 1) == ExchangeMatrix(np.array([[0, 1], [-1, 0]]))

    def test_involution(self):
        assert mutate_matrix(mutate_matrix(A2, 2), 2) == A2

    def test_rank3_hand_value(self):
        B = ExchangeMatrix(np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))
        got = mutate_matrix(B, 2)
        assert got == ExchangeMatrix(np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))
        assert got == mutate_matrix_alt(B, 2)

    def test_random_involution_skew_and_forms_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            B = random_skew(rng, n)
            k = int(rng.integers(1, n + 1))
            M = mutate_matrix(B, k)
            assert np.array_equal(M.entries, -M.entries.T)
            assert mutate_matrix(M, k) == B
            assert M == mutate_matrix_alt(B, k)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            mutate_matrix(A2, 3)
        with pytest.raises(IndexError):
            mutate_matrix(A2, 0)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            ExchangeMatrix(np.array([[0, 1], [1, 0]]))


class TestMutateYNumeric:
    def test_a2_first_step(self):
        seed = NumericSeed(A2, [1.0, 1.0])
        out = mutate_y_numeric(seed, 1)
        assert out.y == pytest.approx([1.0, 2.0])

    def test_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.uniform(0.1, 10.0, size=2)
            seed = NumericSeed(A2, y)
            back = mutate_y_numeric(mutate_y_numeric(seed, 2), 2)
            assert back.y == pytest.approx(y, rel=1e-14)
            assert back.matrix == A2

    def test_a2_full_period_swaps_coordinates(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(0.1, 10.0, size=2)
        traj = numeric_trajectory(A2, A2_SCHED.sequence, y)
        assert traj[-1].y == pytest.approx(y[::-1], rel=1e-12)

    def test_a2_active_values_at_unit_point(self):
        traj = numeric_trajectory(A2, A2_SCHED.sequence, [1.0, 1.0])
        actives = [traj[t].y[k - 1] for t, k in enumerate(A2_SCHED.sequence)]
        assert actives == pytest.approx([1.0, 2.0, 3.0, 2.0, 1.0])

    def test_exchange_relation_two_forms_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            B = random_skew(rng, n)
            y = rng.uniform(0.05, 20.0, size=n)
            k = int(rng.integers(1, n + 1))
            got = mutate_y_numeric(NumericSeed(B, y), k).y
            kk = k - 1
            bk = B.entries[kk].astype(float)
            alt = y * y[kk] ** np.maximum(-bk, 0) * (1 + 1 / y[kk]) ** (-bk)
            alt[kk] = 1 / y[kk]
            assert got == pytest.approx(alt, rel=1e-14)

    def test_overflowing_power_saturates_at_inf(self):
        """y_1^2 overflows: the power is inf, as numpy's is, not a large
        finite number that the tiny y_2 would bring back into range."""
        B = ExchangeMatrix(np.array([[0, 2], [-2, 0]]))
        out = mutate_y_numeric(NumericSeed(B, [1e160, 1e-200]), 1)
        assert out.y.tolist() == [1e-160, math.inf]

    def test_rejects_nonpositive_y(self):
        with pytest.raises(ValueError):
            NumericSeed(A2, [1.0, -2.0])
        with pytest.raises(ValueError):
            NumericSeed(A2, [0.0, 1.0])


class TestTropical:
    def test_sign_basics(self):
        assert tropical_sign((1, 0)) == 1
        assert tropical_sign((-1, -1)) == -1
        with pytest.raises(MixedSignCVector):
            tropical_sign((1, -1))
        with pytest.raises(ZeroCVector):
            tropical_sign((0, 0))

    def test_initial_cvectors_are_units(self):
        state = TropicalState.initial(A2)
        for i in (1, 2):
            c = state.cvector(i)
            assert c[i - 1] == 1 and c.sum() == 1
            assert tropical_sign(c) == 1

    def test_a2_active_cvectors(self):
        expected = [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)]
        state = TropicalState.initial(A2)
        for k, exp in zip(A2_SCHED.sequence, expected):
            assert tuple(state.cvector(k)) == exp
            state = mutate_tropical(state, k)

    def test_a2_period_returns_to_identity_after_nu(self):
        state = TropicalState.initial(A2)
        for k in A2_SCHED.sequence:
            state = mutate_tropical(state, k)
        perm = [v - 1 for v in A2_SCHED.nu]
        assert np.array_equal(state.cvectors[:, perm], np.eye(2, dtype=int))

    def test_sign_coherence_along_random_sequences(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            B = random_skew(rng, n)
            state = TropicalState.initial(B)
            for _ in range(12):
                k = int(rng.integers(1, n + 1))
                tropical_sign(state.cvector(k))  # raises on violation
                state = mutate_tropical(state, k)


class TestSignSequence:
    def test_a2(self):
        ss = sign_sequence(A2, A2_SCHED)
        assert ss.signs == (1, 1, -1, -1, -1)
        assert ss.n_plus == 2 and ss.n_minus == 3
        assert ss.cvectors == ((1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1))

    def test_a1(self):
        ss = sign_sequence(A1, A1_SCHED)
        assert ss.signs == (1, -1)

    def test_first_sign_always_plus_unit(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            B = random_skew(rng, n)
            seq = tuple(int(v) for v in rng.integers(1, n + 1, size=6))
            ss = sign_sequence(B, MutationSchedule.identity_nu(seq, n))
            assert ss.signs[0] == 1
            unit = [0] * n
            unit[seq[0] - 1] = 1
            assert ss.cvectors[0] == tuple(unit)


class TestCheckPeriod:
    def test_a2_periodic(self):
        assert check_period(A2, A2_SCHED).periodic

    def test_a1_involution_periodic(self):
        assert check_period(A1, A1_SCHED).periodic

    def test_a2_prefix_not_periodic(self):
        sched = MutationSchedule.identity_nu((1, 2, 1), 2)
        assert not check_period(A2, sched).periodic
        with pytest.raises(NotAPeriod):
            require_period(A2, sched)
        # numeric oracle: a random positive seed does not return
        rng = np.random.default_rng(6)
        y0 = rng.uniform(0.2, 5.0, size=2)
        assert numeric_period_residual(A2, sched, y0) > 1e-3

    def test_tropical_periodicity_implies_numeric(self):
        rng = np.random.default_rng(7)
        cases = [
            (A1, A1_SCHED),
            (A2, A2_SCHED),
            (principal_extension(A2), extend_schedule(A2_SCHED, 2)),
            (A2, MutationSchedule.identity_nu((2, 2), 2)),
            (ExchangeMatrix(np.zeros((2, 2), dtype=int)),
             MutationSchedule.identity_nu((1, 2, 1, 2), 2)),
        ]
        for B, sched in cases:
            assert check_period(B, sched).periodic
            for _ in range(50):
                y0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=B.n))
                assert numeric_period_residual(B, sched, y0) < 1e-10


class TestPrincipalExtension:
    def test_a1(self):
        assert principal_extension(A1) == ExchangeMatrix(np.array([[0, -1], [1, 0]]))

    def test_a2_value_and_nondegeneracy(self):
        ext = principal_extension(A2)
        expected = np.array([
            [0, -1, -1, 0],
            [1, 0, 0, -1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ])
        assert ext == ExchangeMatrix(expected)
        assert np.array_equal(ext.entries, -ext.entries.T)
        assert round(np.linalg.det(ext.entries.astype(float))) != 0

    def test_periods_survive_extension(self):
        rng = np.random.default_rng(8)
        cases = [(A1, A1_SCHED), (A2, A2_SCHED),
                 (A2, MutationSchedule.identity_nu((1, 1), 2))]
        for B, sched in cases:
            assert check_period(B, sched).periodic
            ext, ext_sched = principal_extension(B), extend_schedule(sched, B.n)
            assert check_period(ext, ext_sched).periodic
            y0 = rng.uniform(0.1, 10.0, size=ext.n)
            assert numeric_period_residual(ext, ext_sched, y0) < 1e-10

    def test_degenerate_matrices_allowed(self):
        Z = ExchangeMatrix(np.zeros((3, 3), dtype=int))
        assert check_period(Z, MutationSchedule.identity_nu((2, 2), 3)).periodic
        assert principal_extension(Z).n == 6


class TestMutationSchedule:
    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            MutationSchedule((1,), (1, 1))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            MutationSchedule((3,), (1, 2))


@st.composite
def walk_cases(draw):
    """A random skew-symmetric B of rank <= 4 and a word of length <= 10
    with no immediate repeats."""
    n = draw(st.integers(1, 4))
    b = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            b[i, j] = draw(st.integers(-3, 3))
            b[j, i] = -b[i, j]
    word = []
    for _ in range(draw(st.integers(0, 10 if n > 1 else 1))):
        word.append(draw(st.sampled_from(
            [k for k in range(1, n + 1) if not word or k != word[-1]])))
    return ExchangeMatrix(b), tuple(word)


def int_rows(B):
    return tuple(tuple(r) for r in B.entries.tolist())


def int_columns(state):
    return tuple(tuple(c) for c in state.cvectors.T.tolist())


def as_tuples(rows):
    return tuple(map(tuple, rows))


def textbook_step(b, cols, kk):
    """Independent reference on lists of Python ints, with no tropical
    sign: b'_ij = b_ij + [b_ik]_+ b_kj + b_ik [-b_kj]_+ and, entrywise,
    c'_i = c_i + [b_ki]_+ c_k + b_ki [-c_k]_+ (the tropical form of
    y_i y_k^[b_ki]_+ (1 + y_k)^-b_ki); row, column and c-vector k are
    negated."""
    n = len(b)
    new_b = [[-b[i][j] if kk in (i, j) else
              b[i][j] + max(b[i][kk], 0) * b[kk][j]
              + b[i][kk] * max(-b[kk][j], 0)
              for j in range(n)] for i in range(n)]
    ck = cols[kk]
    new_cols = [[-a for a in ck] if i == kk else
                [x + max(b[kk][i], 0) * a + b[kk][i] * max(-a, 0)
                 for x, a in zip(cols[i], ck)]
                for i in range(n)]
    return new_b, new_cols


def textbook_walk(B, word):
    """(B(t), c-vectors of y(t)) for t = 1..L+1 by textbook_step."""
    n = B.n
    b = B.entries.tolist()
    cols = [[int(i == j) for j in range(n)] for i in range(n)]
    out = [(b, cols)]
    for k in word:
        b, cols = textbook_step(b, cols, k - 1)
        out.append((b, cols))
    return out


def reference_period(B, b, cols, nu):
    """The period verdict for the state (b, cols) reached from B."""
    perm = [v - 1 for v in nu]
    n = B.n
    return PeriodReport(
        all(b[perm[i]][perm[j]] == B[i + 1, j + 1]
            for i in range(n) for j in range(n)),
        all(cols[perm[i]] == [int(i == j) for j in range(n)]
            for i in range(n)))


class TestIntegerWalk:
    """The Python-int walk behind check_period and sign_sequence, and the
    mutate_matrix / mutate_tropical wrappers over its step, against the
    textbook formulas at entries of any size."""

    @settings(max_examples=80, deadline=None)
    @given(case=walk_cases())
    def test_matches_textbook_mutation_at_every_step(self, case):
        B, word = case
        n = B.n
        walk = _walk(B, MutationSchedule.identity_nu(word, n))
        ss = sign_sequence(B, MutationSchedule.identity_nu(word, n))
        assert (ss.signs, ss.cvectors) == (walk.signs, walk.alphas)
        ref = textbook_walk(B, word)
        state = TropicalState.initial(B)
        for t, k in enumerate(word):
            b, cols = ref[t]
            assert walk.rows[t] == as_tuples(b)
            alpha = cols[k - 1]
            assert walk.alphas[t] == tuple(alpha)
            # sign-coherence: the textbook c-vector has entries of one sign
            assert any(alpha) and (min(alpha) >= 0 or max(alpha) <= 0)
            assert walk.signs[t] == (1 if min(alpha) >= 0 else -1)
            state = mutate_tropical(state, k)
            b, cols = ref[t + 1]
            assert int_rows(state.matrix) == as_tuples(b)
            assert int_rows(mutate_matrix(ExchangeMatrix(ref[t][0]), k)) \
                == as_tuples(b)
            assert int_columns(state) == as_tuples(cols)
            for nu in itertools.permutations(range(1, n + 1)):
                sched = MutationSchedule(word[:t + 1], nu)
                assert check_period(B, sched) == reference_period(B, b, cols, nu)
        assert walk.rows[-1] == as_tuples(ref[-1][0])
        assert walk.cvectors == as_tuples(ref[-1][1])

    @settings(max_examples=60, deadline=None)
    @given(case=walk_cases(), data=st.data())
    def test_mutation_is_an_involution(self, case, data):
        B, word = case
        k = data.draw(st.integers(1, B.n))
        once = _walk(B, MutationSchedule.identity_nu(word, B.n))
        twice = _walk(B, MutationSchedule.identity_nu(word + (k, k), B.n))
        assert twice.rows[-1] == once.rows[-1]
        assert twice.cvectors == once.cvectors
        assert twice.signs[-1] == -twice.signs[-2]
        assert twice.alphas[-1] == tuple(-a for a in twice.alphas[-2])


# b_23(11) along WIDE_WORD is -18661827586588155640, beyond int64, where
# int64 arithmetic wraps it to -215083512878604024.
WIDE = ExchangeMatrix(np.array([[0, -3, 0], [3, 0, 1], [0, -1, 0]]))
WIDE_WORD = (1, 2, 1, 2, 1, 3, 1, 2, 3, 1)
WRAPPED = -215083512878604024


class TestWideEntries:
    def test_walk_sign_sequence_and_quantum_signs_agree(self, monkeypatch):
        sched = MutationSchedule.identity_nu(WIDE_WORD, 3)
        walk = _walk(WIDE, sched)
        assert walk.rows[10][1][2] == -18661827586588155640
        assert walk.rows == [as_tuples(b)
                             for b, _ in textbook_walk(WIDE, WIDE_WORD)]
        ss = sign_sequence(WIDE, sched)
        assert (ss.signs, ss.cvectors) == (walk.signs, walk.alphas)
        # exchange exponents reach 10^7 here, too many torus factors to
        # build: keep the quantum exchange relation out, the signs remain
        monkeypatch.setattr(qident, "quantum_mutate", lambda s, k, eps: s)
        _, _, signs = qident.quantum_trajectory(WIDE, WIDE_WORD, 1)
        assert tuple(signs) == walk.signs

    def test_mutate_matrix_is_exact_or_raises(self):
        rows = _walk(WIDE, MutationSchedule.identity_nu(WIDE_WORD, 3)).rows
        M = WIDE
        for t, k in enumerate(WIDE_WORD):
            try:
                M = mutate_matrix(M, k)
            except OverflowError:
                break
            assert int_rows(M) == rows[t + 1]
            assert WRAPPED not in itertools.chain(*int_rows(M))

    def test_search_reports_only_periods(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = search_periods(WIDE, 10)
        assert found
        for sched in found:
            assert check_period(WIDE, sched).periodic
