"""Euler and Rogers dilogarithms and the classical identities of a period.

The Euler dilogarithm is one series, Li2(z) = sum_n B_n w^(n+1) / (n+1)!
in w = -log(1 - z) ('t Hooft and Veltman), after inversion and
reflection keep |w| <= log 2 on the real line and |w| <= 3.33 off it;
the Rogers dilogarithm is built on top of it.  A mutation period of a
seed then yields numerical identities: the signed Rogers sum vanishes,
and the unsigned sums count the negative and positive tropical signs in
units of pi^2/6.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple


from .errors import BranchProximity, PoleHit
from .exchange import (ExchangeMatrix, MutationSchedule, NumericSeed,
                       _y_path, require_period)

PI2_6 = math.pi**2 / 6

_BRANCH_GUARD = 1e-6


def li2(x):
    """Euler dilogarithm.

    Real arguments must satisfy x <= 1; complex arguments are evaluated
    on the principal branch and must keep clear of the cut [1, oo).
    """
    if isinstance(x, complex):
        if x.imag == 0.0 and x.real <= 1.0:
            return complex(li2(x.real), 0.0)
        return _li2_complex(x)
    x = float(x)
    if not x <= 1.0:  # NaN too
        raise ValueError(f"li2 domain error: real argument {x} is not <= 1")
    if x == 1.0:
        return PI2_6
    if x == 0.0:
        return 0.0
    if x < -1.0:
        # inversion onto (-1, 0)
        return -PI2_6 - 0.5 * math.log(-x) ** 2 - li2(1.0 / x)
    if x <= 0.5:  # |w| <= log 2
        return _bernoulli_series(-math.log1p(-x), 11)
    # reflection onto [0, 1/2), where w = -log x
    log_x = math.log(x)
    return PI2_6 - log_x * math.log1p(-x) - _bernoulli_series(-log_x, 11)


# B_2k / (2k+1)! for k = 0..29; the tests check them against the exact
# Bernoulli numbers
_LI2_COEFFS = (
    1.0, 0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06,
    -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
    8.921691020456452e-13, -1.9939295860721074e-14, 4.518980029619918e-16,
    -1.0356517612181247e-17, 2.395218621026187e-19, -5.581785874325009e-21,
    1.3091507554183213e-22, -3.0874198024267403e-24, 7.315975652702203e-26,
    -1.740845657234001e-27, 4.1576356446139e-29, -9.962148488284622e-31,
    2.3940344248961652e-32, -5.76834735536739e-34, 1.393179479647008e-35,
    -3.3721219654850894e-37, 8.178208777562102e-39, -1.987010831152386e-40,
    4.8357785180405507e-42, -1.1786937248718384e-43, 2.877096408117257e-45,
    -7.032059098156028e-47, 1.7208603145033145e-48)


def _bernoulli_series(w, terms: int):
    """Li2(1 - e^-w) = sum_n B_n w^(n+1) / (n+1)!, that is w - w^2/4 plus
    the odd powers, by Horner in w^2 over the first `terms` coefficients.
    The series converges for |w| < 2 pi."""
    u = w * w
    s = 0.0
    for c in _LI2_COEFFS[terms - 1::-1]:
        s = s * u + c
    return w * s - 0.25 * u


def _guard_cut(z):
    if abs(z.imag) < _BRANCH_GUARD and z.real >= 1.0 - _BRANCH_GUARD:
        raise BranchProximity(
            f"dilogarithm argument {z} within {_BRANCH_GUARD} of the cut [1, oo)")


def _li2_complex(z):
    _guard_cut(z)
    if abs(1.0 - z) <= 0.5:
        # reflection onto |z| <= 1/2, where w = -log z
        log_z = cmath.log(z)
        return (PI2_6 - log_z * cmath.log(1.0 - z)
                - _bernoulli_series(-log_z, 30))
    if abs(z) >= 2.0:
        # inversion onto |z| <= 1/2
        return -PI2_6 - 0.5 * cmath.log(-z) ** 2 - _li2_complex(1.0 / z)
    # |w| <= 3.33; z / (1 - u) undoes the rounding of u = 1 - z at small z
    u = 1.0 - z
    return _bernoulli_series(-cmath.log(u) * (z / (1.0 - u)), 30)


def rogers_L(x):
    """Rogers dilogarithm L(x) = li2(x) + (1/2) log x log(1-x) on [0, 1],
    with the endpoint limits taken exactly."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"rogers_L domain error: {x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return PI2_6
    return li2(x) + 0.5 * math.log(x) * math.log1p(-x)


def rogers_L_complex(z):
    """Principal-branch Rogers dilogarithm for arguments near (0, 1).

    Arguments within the guard distance of either logarithm cut raise
    BranchProximity rather than silently picking a branch.
    """
    z = complex(z)
    if abs(z) < _BRANCH_GUARD or abs(1.0 - z) < _BRANCH_GUARD:
        if abs(z) == 0.0:
            return 0.0 + 0.0j
        if abs(1.0 - z) == 0.0:
            return complex(PI2_6, 0.0)
        raise BranchProximity(f"Rogers argument {z} too close to 0 or 1")
    if abs(z.imag) < _BRANCH_GUARD and (z.real < _BRANCH_GUARD
                                        or z.real > 1.0 - _BRANCH_GUARD):
        raise BranchProximity(f"Rogers argument {z} too close to the cuts")
    if z.imag == 0.0:
        return complex(rogers_L(z.real), 0.0)
    return li2(z) + 0.5 * cmath.log(z) * cmath.log(1.0 - z)


class ClassicalIdentityReport(NamedTuple):
    """Evaluation of the Rogers-sum identities along a period.

    terms[t] = (t, k_t, eps_t, active y-value, L-argument, L-value) for
    the signed sum; the two unsigned sums use y/(1+y) and 1/(1+y).
    """

    terms: tuple
    sum_signed: float
    sum_di: float
    sum_di_prime: float
    n_plus: int
    n_minus: int

    @property
    def di_residual(self) -> float:
        return abs(self.sum_di - self.n_minus * PI2_6)

    @property
    def di_prime_residual(self) -> float:
        return abs(self.sum_di_prime - self.n_plus * PI2_6)

    def passed(self, tol: float = 1e-10) -> bool:
        return (abs(self.sum_signed) < tol and self.di_residual < tol
                and self.di_prime_residual < tol)


def verify_classical_identity(B: ExchangeMatrix, sched: MutationSchedule,
                              y0) -> ClassicalIdentityReport:
    """Follow the y-variables from y0 > 0 along the period and evaluate
    the three Rogers sums attached to it.

    One integer walk gives B(t) and the tropical signs, and the y-path of
    `numeric_trajectory` the y(t), rejecting y0 as `NumericSeed` does and
    every later y as `numeric_trajectory` does (OutOfRange).
    """
    rows, _, signs, _, _ = require_period(B, sched)
    seq = sched.sequence
    ys = _y_path(rows, seq, NumericSeed(B, y0).values)
    terms = []
    s_signed = 0.0
    s_di = 0.0
    s_dip = 0.0
    for t, (k, eps) in enumerate(zip(seq, signs)):
        y = ys[t][k - 1]
        ye = y if eps > 0 else 1.0 / y
        arg = ye / (1.0 + ye)
        val = rogers_L(arg)
        s_signed += eps * val
        s_di += val if eps > 0 else rogers_L(y / (1.0 + y))  # arg if ye = y
        s_dip += rogers_L(1.0 / (1.0 + y))
        terms.append((t + 1, k, eps, y, arg, val))
    return ClassicalIdentityReport(tuple(terms), s_signed, s_di, s_dip,
                                   signs.count(1), signs.count(-1))


def log_psiq_numeric(x, q) -> complex:
    """log Psi_q(x) = -sum_k log(1 + q^(2k+1) x), stable when the product
    itself would overflow."""
    q = complex(q)
    x = complex(x)
    if abs(q) >= 1.0 or not cmath.isfinite(x):
        raise ValueError(f"|q| = {abs(q)}, x = {x}: the product does not converge")
    total = 0.0 + 0.0j
    qq = q * q
    factor_arg = q * x
    absq = abs(q)
    abstail = abs(q) * abs(x)
    # the loop runs about log(excess) / -log|q|^2 times: refuse before it
    excess = abstail / (1.0 - absq * absq) * 1e16
    if excess > 1.0 and math.log(excess) / (-2.0 * math.log(absq)) > 10**7:
        raise ArithmeticError(f"q-product needs over 10^7 factors at "
                              f"|q| = {absq}, |x| = {abs(x)}")
    k = 0
    while abstail / (1.0 - absq * absq) > 1e-16:
        f = 1.0 + factor_arg
        if f == 0:
            raise PoleHit(f"product factor vanished at k={k}")
        total -= cmath.log(f)
        factor_arg *= qq
        abstail *= absq * absq
        k += 1
        if k > 10**7:
            raise ArithmeticError("q-product failed to converge")
    return total


def psiq_asymptotics(x: float, q_values) -> list:
    """Rows (q, |2 log q * log Psi_q(x) + li2(-x)|): the defect of the
    leading semiclassical behavior, which decays as q -> 1."""
    rows = []
    target = li2(-x)
    for q in q_values:
        val = 2.0 * math.log(q) * log_psiq_numeric(x, q).real + target
        rows.append((q, abs(val)))
    return rows
