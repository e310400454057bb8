"""Euler and Rogers dilogarithms and the classical identities of a period.

The Euler dilogarithm is evaluated by series after range reduction with
the standard inversion, reflection, and Landen transformations; the
Rogers dilogarithm is built on top of it.  A mutation period of a seed
then yields numerical identities: the signed Rogers sum vanishes, and
the unsigned sums count the negative and positive tropical signs in
units of pi^2/6.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction


from .errors import BranchProximity, PoleHit
from .exchange import (ExchangeMatrix, MutationSchedule, NumericSeed,
                       _exchange_values, _periodic_walk, _positive)

PI2_6 = math.pi**2 / 6

_BRANCH_GUARD = 1e-6


def _li2_series(z):
    """sum z^k / k^2 for |z| <= 1/2."""
    term = z
    total = z
    k = 1
    while True:
        k += 1
        term *= z
        inc = term / (k * k)
        total += inc
        if abs(inc) < 1e-18 * max(1.0, abs(total)):
            return total


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
    if x < -0.5:
        # Landen onto (1/3, 1/2)
        return -li2(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    if x <= 0.5:
        return _li2_series(x)
    # reflection onto [0, 1/2)
    return PI2_6 - math.log(x) * math.log1p(-x) - _li2_series(1.0 - x)


# Bernoulli numbers B_0, B_1, ... (B_1 = -1/2), exact then cached as floats.
_bernoulli_cache = [Fraction(1), Fraction(-1, 2)]


def _bernoulli(m: int) -> Fraction:
    while len(_bernoulli_cache) <= m:
        k = len(_bernoulli_cache)
        acc = Fraction(0)
        for j, bj in enumerate(_bernoulli_cache):
            acc += math.comb(k + 1, j) * bj
        _bernoulli_cache.append(-acc / (k + 1))
    return _bernoulli_cache[m]


def _li2_log_series(z):
    """Dilogarithm via the expansion in w = -log(1-z); needs |w| < 2 pi."""
    w = -cmath.log(1.0 - z)
    total = 0.0 + 0.0j
    wp = w
    fact = 1.0
    prev = float("inf")
    for k in range(0, 120):
        fact *= (k + 1)
        inc = float(_bernoulli(k)) * wp / fact
        total += inc
        wp *= w
        # odd Bernoulli numbers vanish: require two small increments in a row
        cur = abs(inc)
        if max(cur, prev) < 1e-18 * max(1.0, abs(total)) and k > 4:
            return total
        prev = cur
    raise ArithmeticError("dilogarithm log-series failed to converge")


def _guard_cut(z):
    if abs(z.imag) < _BRANCH_GUARD and z.real >= 1.0 - _BRANCH_GUARD:
        raise BranchProximity(
            f"dilogarithm argument {z} within {_BRANCH_GUARD} of the cut [1, oo)")


def _li2_complex(z):
    _guard_cut(z)
    if abs(z) <= 0.5:
        return _li2_series(z)
    if abs(1.0 - z) <= 0.5:
        return (PI2_6 - cmath.log(z) * cmath.log(1.0 - z)
                - _li2_series(1.0 - z))
    if abs(z) >= 2.0:
        return (-PI2_6 - 0.5 * cmath.log(-z) ** 2 - _li2_complex(1.0 / z))
    return _li2_log_series(z)


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


@dataclass(frozen=True)
class ClassicalIdentityReport:
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

    def to_json(self) -> dict:
        return {
            "identity": "classical",
            "terms": [
                {"t": t, "k": k, "sign": eps, "y": y, "L_arg": arg, "L": val}
                for t, k, eps, y, arg, val in self.terms
            ],
            "sum_signed": self.sum_signed,
            "sum_L_y_over_1py": self.sum_di,
            "sum_L_one_over_1py": self.sum_di_prime,
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "residuals": {
                "signed": abs(self.sum_signed),
                "di": self.di_residual,
                "di_prime": self.di_prime_residual,
            },
        }


def verify_classical_identity(B: ExchangeMatrix, sched: MutationSchedule,
                              y0) -> ClassicalIdentityReport:
    """Follow the y-variables from y0 > 0 along the period and evaluate
    the three Rogers sums attached to it.

    One integer walk gives B(t) and the tropical signs; the exchange
    relation of `mutate_y_numeric` then runs on Python floats, rejecting
    y0 as `NumericSeed` does and every later y as `numeric_trajectory`
    does (OutOfRange).
    """
    rows, _, signs, _, _ = _periodic_walk(B, sched)
    seq = sched.sequence
    ys = [NumericSeed(B, y0).values]
    for t, k in enumerate(seq):
        ys.append(_positive(_exchange_values(ys[t], rows[t][k - 1], k - 1),
                            t + 2))
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
        s_di += rogers_L(y / (1.0 + y))
        s_dip += rogers_L(1.0 / (1.0 + y))
        terms.append((t + 1, k, eps, y, arg, val))
    return ClassicalIdentityReport(tuple(terms), s_signed, s_di, s_dip,
                                   signs.count(1), signs.count(-1))


def psiq_numeric(x, q) -> complex:
    """Quantum dilogarithm as the infinite product 1 / (-qx; q^2)_oo,
    the exponential of `log_psiq_numeric`."""
    return cmath.exp(log_psiq_numeric(x, q))


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
