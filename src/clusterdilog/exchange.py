"""Skew-symmetric exchange matrices and y-seed mutation.

Implements the combinatorial core: matrix mutation, the numeric exchange
relation for positive y-variables, tropical c-vector dynamics with their
sign-coherence, and nu-period detection.  Indices are 1-based at the API
boundary (matching the usual cluster-algebra notation) and 0-based
internally.

Each rule is written once.  `_step` mutates the rows of B(t) and the
c-vectors in Python ints, so entries never wrap around; `_walk` runs it
along a schedule, and `mutate_matrix` is one step.  `ExchangeMatrix` and
`NumericSeed` hold Python ints or floats; their array views import numpy
when read.  The validated value types of the package derive from
`_Frozen` and its plain records are `NamedTuple`s, so no launch loads
`dataclasses`.
`_y_path` is the one loop of the exchange relation, on Python floats
(or complex numbers) along the rows of B(t) from the walk, saturating an
overflowing power at inf; `numeric_trajectory` wraps it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import MixedSignCVector, NotAPeriod, OutOfRange, ZeroCVector


def _frozen_array(values, dtype):
    """values as a read-only numpy array, numpy imported here on first use;
    ints beyond int64 stay exact Python ints (object dtype)."""
    import numpy as np
    try:
        out = np.array(values, dtype=dtype)
    except OverflowError:
        out = np.array(values, dtype=object)
    out.setflags(write=False)
    return out


_set = object.__setattr__


class _Frozen:
    """Base of a validated value type: its `__slots__` are the fields, set
    once in `__init__` through `_set`; instances compare, hash and print
    by the field values, and assigning or deleting a field raises."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return type(self).__name__ + "(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):       # copy and pickle, past __setattr__
        return _restore, (type(self), self._values())


def _restore(cls, values):
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _set(obj, name, value)
    return obj


class ExchangeMatrix(_Frozen):
    """A skew-symmetric integer matrix B indexed by 1..n, as `rows` of ints."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(map(int, r)) for r in rows)
        if not rows or {len(rows), *map(len, rows)} != {len(rows)}:
            raise ValueError("exchange matrix must be square")
        if rows != tuple(tuple(-x for x in c) for c in zip(*rows)):
            raise ValueError("exchange matrix must be skew-symmetric")
        _set(self, "rows", rows)

    def __eq__(self, other):    # every torus operation compares matrices
        if type(other) is not ExchangeMatrix:
            return NotImplemented
        return self.rows == other.rows

    __hash__ = _Frozen.__hash__

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def entries(self):
        """B as a read-only numpy array."""
        return _frozen_array(self.rows, "int64")

    def __getitem__(self, ij):
        """1-based entry access: B[i, j] = b_{ij}."""
        i, j = ij
        return self.rows[i - 1][j - 1]

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


class NumericSeed(_Frozen):
    """A y-seed with strictly positive real y-variables `values`."""

    __slots__ = ("matrix", "values")

    def __init__(self, matrix: ExchangeMatrix, y):
        values = tuple(map(float, y))
        if len(values) != matrix.n:
            raise ValueError("y must have one entry per index")
        if not all(v > 0.0 for v in values):
            raise ValueError("all y-variables must be strictly positive")
        _set(self, "matrix", matrix)
        _set(self, "values", values)

    @property
    def y(self):
        """The y-variables as a read-only numpy array."""
        return _frozen_array(self.values, float)


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


class MutationSchedule(_Frozen):
    """A mutation sequence (k_1, ..., k_L) with a relabeling permutation.

    `nu` is the image list [nu(1), ..., nu(n)], all 1-based.
    """

    __slots__ = ("sequence", "nu")

    def __init__(self, sequence, nu):
        seq = tuple(int(k) for k in sequence)
        nu = tuple(int(v) for v in nu)
        n = len(nu)
        if sorted(nu) != list(range(1, n + 1)):
            raise ValueError(f"nu={nu} is not a permutation of 1..{n}")
        for k in seq:
            if not 1 <= k <= n:
                raise ValueError(f"mutation index {k} out of range 1..{n}")
        _set(self, "sequence", seq)
        _set(self, "nu", nu)

    @property
    def length(self) -> int:
        return len(self.sequence)

    @classmethod
    def identity_nu(cls, sequence, n: int) -> "MutationSchedule":
        return cls(tuple(sequence), tuple(range(1, n + 1)))


class SignSequence(NamedTuple):
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


class PeriodReport(NamedTuple):
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


def require_period(B: ExchangeMatrix, sched: MutationSchedule) -> _Walk:
    """The walk of sched (B(t), the tropical signs and the active
    c-vectors), raising NotAPeriod unless sched is a period."""
    walk = _walk(B, sched)
    report = walk.report
    if not report.periodic:
        raise NotAPeriod(
            f"sequence {sched.sequence} with nu={sched.nu} is not a period "
            f"(matrix={report.matrix_periodic}, tropical={report.tropical_periodic})"
        )
    return walk


class _Walk(NamedTuple):
    """B(t) and the tropical y-variables along a schedule, in Python ints."""

    rows: tuple         # rows[t]: the rows of B(t+1), t = 0..L
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


@functools.lru_cache(maxsize=256)
def _walk(B: ExchangeMatrix, sched: MutationSchedule) -> _Walk:
    """Mutate B and the tropical y-variables along sched in Python ints.

    A zero or mixed-sign active c-vector raises `ZeroCVector` or
    `MixedSignCVector`, as `tropical_sign` does.
    The walk is computed once per (B, sched) and cached; it is shared by
    every caller, so `rows` is a tuple of tuples.
    """
    b0, sequence, nu = B.rows, sched.sequence, sched.nu
    n = len(b0)
    if len(nu) != n:
        raise ValueError("schedule rank does not match matrix rank")
    rows = [b0]
    cols = units = _units(n)
    signs, alphas = [], []
    for k in sequence:
        alphas.append(cols[k - 1])
        b, cols, eps = _step(rows[-1], cols, k - 1)
        rows.append(b)
        signs.append(eps)
    perm = [v - 1 for v in nu]
    final = rows[-1]
    report = PeriodReport(
        all(final[perm[i]][perm[j]] == b0[i][j]
            for i in range(n) for j in range(n)),
        all(cols[perm[i]] == units[i] for i in range(n)))
    return _Walk(tuple(rows), cols, tuple(signs), tuple(alphas), report)


def _y_path(rows, sequence, y) -> list:
    """y(1) = y, ..., y(L+1) along sequence, as lists: the exchange
    relation y'_k = 1/y_k, y'_i = y_i y_k^[b_ki]_+ (1 + y_k)^(-b_ki) at
    k = k_t, reading row k_t of B(t) = rows[t - 1] (Python ints).  The
    values are floats, or complex numbers in lambda-mode; a real y(t)
    that is not strictly positive, a float under- or overflow on the
    way, raises OutOfRange before the next step divides by it or a
    caller takes its logarithm."""
    L = len(sequence)
    ys = [list(y)]
    for t in range(L + 1):
        for i, v in enumerate(ys[t], 1):
            if not (isinstance(v, complex) or v > 0.0):
                raise OutOfRange(f"t = {t + 1}, index {i}: y = {v} is not "
                                 "strictly positive (a float under- or "
                                 "overflow)")
        if t < L:
            kk = sequence[t] - 1
            yk = ys[t][kk]
            nxt = [v * _power(yk, c if c > 0 else 0) * _power(1.0 + yk, -c)
                   for v, c in zip(ys[t], rows[t][kk])]
            nxt[kk] = 1.0 / yk
            ys.append(nxt)
    return ys


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
    units = _units(B.n)
    top = [r + tuple(-x for x in e) for r, e in zip(B.rows, units)]
    return ExchangeMatrix(top + [e + (0,) * B.n for e in units])


def extend_schedule(sched: MutationSchedule, n: int) -> MutationSchedule:
    """Reuse a schedule on the principal extension: same sequence, nu
    extended by the identity on the new indices."""
    nu = tuple(sched.nu) + tuple(range(n + 1, 2 * n + 1))
    return MutationSchedule(sched.sequence, nu)


def numeric_trajectory(B: ExchangeMatrix, sequence, y0) -> list:
    """Seeds (B(t), y(t)) for t = 1..L+1 along a mutation sequence, B(t)
    read off the walk.  A y0 that is not strictly positive is a
    ValueError and an index outside 1..n an IndexError; a later y that is
    not strictly positive raises OutOfRange naming t and the index."""
    y0 = NumericSeed(B, y0).values
    sched = MutationSchedule.identity_nu(
        [B.check_index(k) + 1 for k in sequence], B.n)
    rows = _walk(B, sched).rows
    return [NumericSeed(ExchangeMatrix(b), y)
            for b, y in zip(rows, _y_path(rows, sched.sequence, y0))]
