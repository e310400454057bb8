"""Skew-symmetric exchange matrices and y-seed mutation.

Implements the combinatorial core: matrix mutation, the numeric exchange
relation for positive y-variables, tropical c-vector dynamics with their
sign-coherence, and nu-period detection.  Indices are 1-based at the API
boundary (matching the usual cluster-algebra notation) and 0-based
internally.

Each rule is written once.  `_step` mutates the rows of B(t) and the
c-vectors in Python ints, so entries never wrap around; `_walk` runs it
along a schedule, and `mutate_matrix` and `mutate_tropical` are one
step each.  `ExchangeMatrix` and `TropicalState` hold int64 arrays, or
exact Python ints once an entry outgrows int64.  `_exchange_values` is
the exchange relation on Python floats (or complex numbers), saturating
an overflowing power at inf; `mutate_y_numeric` and `numeric_trajectory`
wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import MixedSignCVector, NotAPeriod, ZeroCVector


def _int_array(a) -> np.ndarray:
    """a as a read-only int64 array, or as an array of exact Python ints
    (object dtype) if some entry does not fit in int64; never wrapped."""
    try:
        out = np.asarray(a, dtype=np.int64)
    except OverflowError:
        out = np.array(a, dtype=object)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ExchangeMatrix:
    """A skew-symmetric integer matrix B indexed by 1..n."""

    entries: np.ndarray

    def __post_init__(self):
        b = _int_array(self.entries)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("exchange matrix must be square")
        if not np.array_equal(b, -b.T):
            raise ValueError("exchange matrix must be skew-symmetric")
        object.__setattr__(self, "entries", b)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __getitem__(self, ij):
        """1-based entry access: B[i, j] = b_{ij}."""
        i, j = ij
        return int(self.entries[i - 1, j - 1])

    @cached_property
    def rows(self) -> tuple:
        """The rows of B as tuples of Python ints, built on first use
        for the pure-Python loops of the torus."""
        return tuple(map(tuple, self.entries.tolist()))

    def __eq__(self, other):
        return other is self or (isinstance(other, ExchangeMatrix) and
                                 np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return hash(self.rows)

    def check_index(self, k: int) -> int:
        """Validate a 1-based index and return its 0-based form."""
        if not 1 <= k <= self.n:
            raise IndexError(f"index {k} out of range 1..{self.n}")
        return k - 1


def mutate_matrix(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutate B at direction k (1-based).

    Entries in row or column k flip sign; the remaining entries pick up
    the correction  [-b_ik]_+ b_kj + b_ik [b_kj]_+ .  Mutation at the
    same k twice is the identity.
    """
    kk = B.check_index(k)
    return ExchangeMatrix(_step(B.rows, _units(B.n), kk)[0])


@dataclass(frozen=True)
class NumericSeed:
    """A y-seed with strictly positive real y-variables."""

    matrix: ExchangeMatrix
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.shape != (self.matrix.n,):
            raise ValueError("y must have one entry per index")
        if not np.all(y > 0.0):
            raise ValueError("all y-variables must be strictly positive")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)


def mutate_y_numeric(seed: NumericSeed, k: int) -> NumericSeed:
    """Apply the exchange relation at k (1-based) to a numeric seed.

    y''_k = 1/y'_k and, for i != k,
    y''_i = y'_i * y'_k^{[b_ki]_+} * (1 + y'_k)^{-b_ki}.
    Positivity of the y-variables is preserved.
    """
    kk = seed.matrix.check_index(k)
    y = _exchange_values(seed.y.tolist(), seed.matrix.rows[kk], kk)
    return NumericSeed(mutate_matrix(seed.matrix, k), y)


def tropical_sign(c) -> int:
    """Tropical sign of a c-vector: +1 if all entries >= 0, -1 if <= 0.

    A zero vector or a mixed-sign vector is rejected; neither occurs for
    c-vectors of genuine seeds.
    """
    c = [int(a) for a in c]
    if not any(c):
        raise ZeroCVector(f"zero c-vector {c}")
    if min(c) >= 0:
        return 1
    if max(c) <= 0:
        return -1
    raise MixedSignCVector(f"c-vector {c} has entries of both signs")


@dataclass(frozen=True)
class TropicalState:
    """Tropical y-variables: column t of `cvectors` is the exponent
    vector of [y_t] in the initial y-variables."""

    matrix: ExchangeMatrix
    cvectors: np.ndarray

    def __post_init__(self):
        c = _int_array(self.cvectors)
        if c.shape != (self.matrix.n, self.matrix.n):
            raise ValueError("cvectors must be an n x n integer matrix")
        object.__setattr__(self, "cvectors", c)

    @classmethod
    def initial(cls, B: ExchangeMatrix) -> "TropicalState":
        return cls(B, np.eye(B.n, dtype=np.int64))

    def cvector(self, i: int) -> np.ndarray:
        """The c-vector of y_i (1-based)."""
        return self.cvectors[:, self.matrix.check_index(i)].copy()


def mutate_tropical(state: TropicalState, k: int) -> TropicalState:
    """Tropical exchange relation at k (1-based).

    The active c-vector is negated; every other column i picks up
    [eps * b_ki]_+ copies of it, where eps is the tropical sign of the
    active column.
    """
    kk = state.matrix.check_index(k)
    cols = tuple(map(tuple, state.cvectors.T.tolist()))
    rows, cols, _ = _step(state.matrix.rows, cols, kk)
    return TropicalState(ExchangeMatrix(rows), _int_array(cols).T)


@dataclass(frozen=True)
class MutationSchedule:
    """A mutation sequence (k_1, ..., k_L) with a relabeling permutation.

    `nu` is the image list [nu(1), ..., nu(n)], all 1-based.
    """

    sequence: tuple
    nu: tuple

    def __post_init__(self):
        seq = tuple(int(k) for k in self.sequence)
        nu = tuple(int(v) for v in self.nu)
        n = len(nu)
        if sorted(nu) != list(range(1, n + 1)):
            raise ValueError(f"nu={nu} is not a permutation of 1..{n}")
        for k in seq:
            if not 1 <= k <= n:
                raise ValueError(f"mutation index {k} out of range 1..{n}")
        object.__setattr__(self, "sequence", seq)
        object.__setattr__(self, "nu", nu)

    @property
    def length(self) -> int:
        return len(self.sequence)

    @classmethod
    def identity_nu(cls, sequence, n: int) -> "MutationSchedule":
        return cls(tuple(sequence), tuple(range(1, n + 1)))


@dataclass(frozen=True)
class SignSequence:
    """Tropical sign-sequence of a mutation sequence.

    signs[t] is the tropical sign of the active variable y_{k_t}(t) and
    cvectors[t] its c-vector; n_plus + n_minus = L.
    """

    signs: tuple
    cvectors: tuple
    n_plus: int
    n_minus: int


def sign_sequence(B: ExchangeMatrix, sched: MutationSchedule) -> SignSequence:
    """Run the tropical dynamics and read off (eps_t, alpha_t) at each step."""
    walk = _walk(B, sched)
    return SignSequence(walk.signs, walk.alphas, walk.signs.count(1),
                        walk.signs.count(-1))


@dataclass(frozen=True)
class PeriodReport:
    """Outcome of a periodicity check."""

    matrix_periodic: bool
    tropical_periodic: bool

    @property
    def periodic(self) -> bool:
        return self.matrix_periodic and self.tropical_periodic


def check_period(B: ExchangeMatrix, sched: MutationSchedule) -> PeriodReport:
    """Check whether sched is a nu-period of (B, y).

    Tests b_{nu(i) nu(j)}(L+1) = b_{ij}(1) and the tropical condition
    [y_{nu(i)}(L+1)] = [y_i(1)]; the latter is equivalent to full y-seed
    periodicity, so the verdict is their conjunction.
    """
    return _walk(B, sched).report


def require_period(B: ExchangeMatrix, sched: MutationSchedule) -> None:
    _periodic_walk(B, sched)


class _Walk(NamedTuple):
    """B(t) and the tropical y-variables along a schedule, in Python ints."""

    rows: list          # rows[t]: the rows of B(t+1), t = 0..L
    cvectors: tuple     # cvectors[i]: the c-vector of y_i(L+1)
    signs: tuple        # (eps_1, ..., eps_L)
    alphas: tuple       # (alpha_1, ..., alpha_L), the active c-vectors
    report: PeriodReport


def _units(n: int) -> tuple:
    """The c-vectors of the initial seed: the unit vectors of Z^n."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _step(rows, cols, kk: int):
    """One mutation at 0-based kk in Python ints.

    rows are the rows of B(t) and cols[i] the c-vector of y_i(t), both
    tuples of tuples; returns those at t+1 and the tropical sign of the
    active c-vector cols[kk], which raises if it is zero or mixed.
    """
    alpha, bk = cols[kk], rows[kk]
    eps = tropical_sign(alpha)
    # column i picks up [eps b_ki]_+ copies of the active c-vector
    cols = tuple(tuple(-a for a in alpha) if i == kk else
                 c if eps * bki <= 0 else
                 tuple(x + eps * bki * a for x, a in zip(c, alpha))
                 for i, (c, bki) in enumerate(zip(cols, bk)))
    # b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2, row and column k negated
    rows = tuple(
        tuple(-x for x in r) if i == kk else
        tuple(-x if j == kk else x + (abs(r[kk]) * y + r[kk] * abs(y)) // 2
              for j, (x, y) in enumerate(zip(r, bk)))
        for i, r in enumerate(rows))
    return rows, cols, eps


def _walk(B: ExchangeMatrix, sched: MutationSchedule) -> _Walk:
    """Mutate B and the tropical y-variables along sched in Python ints.

    A zero or mixed-sign active c-vector raises as in `mutate_tropical`.
    """
    n = B.n
    if len(sched.nu) != n:
        raise ValueError("schedule rank does not match matrix rank")
    rows = [B.rows]
    cols = units = _units(n)
    signs, alphas = [], []
    for k in sched.sequence:
        alphas.append(cols[k - 1])
        b, cols, eps = _step(rows[-1], cols, k - 1)
        rows.append(b)
        signs.append(eps)
    perm = [v - 1 for v in sched.nu]
    final = rows[-1]
    report = PeriodReport(
        all(final[perm[i]][perm[j]] == B.rows[i][j]
            for i in range(n) for j in range(n)),
        all(cols[perm[i]] == units[i] for i in range(n)))
    return _Walk(rows, cols, tuple(signs), tuple(alphas), report)


def _periodic_walk(B: ExchangeMatrix, sched: MutationSchedule):
    """`_walk`, raising NotAPeriod unless sched is a period."""
    walk = _walk(B, sched)
    report = walk.report
    if not report.periodic:
        raise NotAPeriod(
            f"sequence {sched.sequence} with nu={sched.nu} is not a period "
            f"(matrix={report.matrix_periodic}, tropical={report.tropical_periodic})"
        )
    return walk


def _exchange_values(y, row, kk):
    """The exchange relation of `mutate_y_numeric` at 0-based kk on a list
    of values (float or complex), reading row kk of B(t) as ints."""
    yk = y[kk]
    out = [v * _power(yk, c if c > 0 else 0) * _power(1.0 + yk, -c)
           for v, c in zip(y, row)]
    out[kk] = 1.0 / yk
    return out


def _power(x, c: int):
    """x ** c, saturating at inf where Python's power raises OverflowError
    (numpy's power gives inf too); the positivity check downstream then
    sees the inf or the NaN it leads to."""
    try:
        return x ** c
    except OverflowError:
        return math.inf


def principal_extension(B: ExchangeMatrix) -> ExchangeMatrix:
    """The 2n x 2n principal extension: original block B, a -1 from each
    index to its primed copy, +1 back.  Always nondegenerate."""
    n = B.n
    eye = np.eye(n, dtype=np.int64)
    top = np.hstack([B.entries, -eye])
    bot = np.hstack([eye, np.zeros((n, n), dtype=np.int64)])
    return ExchangeMatrix(np.vstack([top, bot]))


def extend_schedule(sched: MutationSchedule, n: int) -> MutationSchedule:
    """Reuse a schedule on the principal extension: same sequence, nu
    extended by the identity on the new indices."""
    nu = tuple(sched.nu) + tuple(range(n + 1, 2 * n + 1))
    return MutationSchedule(sched.sequence, nu)


def numeric_trajectory(B: ExchangeMatrix, sequence, y0) -> list:
    """Seeds (B(t), y(t)) for t = 1..L+1 along a mutation sequence."""
    seed = NumericSeed(B, y0)
    out = [seed]
    for k in sequence:
        seed = mutate_y_numeric(seed, k)
        out.append(seed)
    return out


def numeric_period_residual(B: ExchangeMatrix, sched: MutationSchedule, y0) -> float:
    """Max relative deviation of y_{nu(i)}(L+1) from y_i(1) at a given y0."""
    traj = numeric_trajectory(B, sched.sequence, y0)
    y_end = traj[-1].y
    y_start = traj[0].y
    perm = [v - 1 for v in sched.nu]
    return float(np.max(np.abs(y_end[perm] - y_start) / np.abs(y_start)))
