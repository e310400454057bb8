"""Quantum y-seed mutation and the quantum dilogarithm identities.

Quantum y-variables are tracked as elements of the truncated completed
torus of the *initial* seed.  A mutation period then turns into exact
operator identities between products of quantum-dilogarithm series,
which are verified here in four presentations: tropical (monomial
arguments), universal (full y-variable arguments), the shuffle formula
connecting the two, and the pair of identities (direct and
order-reversed in the dual parameter) into which the noncompact
tropical identity factorizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratfunc, torus
from .errors import NonTruncating
from .exchange import (ExchangeMatrix, MutationSchedule, _walk, mutate_matrix,
                       require_period, sign_sequence)
from .torus import (TorusElement, invert, monomial, multiply, power,
                    psi_inverse_series, psi_series, unit)


@dataclass(frozen=True)
class QuantumSeedSeries:
    """A quantum y-seed: current matrix plus the quantum y-variables
    expressed in the initial torus."""

    matrix: ExchangeMatrix
    Y: tuple

    @property
    def n(self) -> int:
        return self.matrix.n


def initial_quantum_seed(B: ExchangeMatrix, N: int, ring=ratfunc.EXACT) -> QuantumSeedSeries:
    gens = []
    for i in range(B.n):
        e = [0] * B.n
        e[i] = 1
        gens.append(monomial(tuple(e), B, N, ring))
    return QuantumSeedSeries(B, tuple(gens))


def quantum_mutate(s: QuantumSeedSeries, k: int, epsilon: int = 1) -> QuantumSeedSeries:
    """Exchange relation for quantum y-variables at k (1-based).

    Y''_k is the inverse of Y'_k; for i != k,

        Y''_i = q^(b'_ik [eps b'_ki]_+) Y'_i Y'_k^([eps b'_ki]_+)
                * prod_{m=1}^{|b'_ki|}
                  (1 + q^(-eps sgn(b'_ki)(2m-1)) Y'_k^eps)^(-sgn(b'_ki)).

    The two sign choices eps = +-1 produce identical results.
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    kk = s.matrix.check_index(k)
    b = s.matrix.rows
    Yk = s.Y[kk]
    Yk_inv = invert(Yk)
    Yk_eps = Yk if epsilon > 0 else Yk_inv
    new = []
    for i in range(s.n):
        if i == kk:
            new.append(Yk_inv)
            continue
        c = b[kk][i]
        if c == 0:
            new.append(s.Y[i])
            continue
        sgn = 1 if c > 0 else -1
        a = max(epsilon * c, 0)
        elem = s.Y[i]
        if a:
            elem = multiply(elem, power(Yk, a))
            elem = elem.scale_q_power(b[i][kk] * a)
        one = unit(elem.matrix, elem.order, elem.ring)
        for m in range(1, abs(c) + 1):
            f = torus.add(one, Yk_eps.scale_q_power(-epsilon * sgn * (2 * m - 1)))
            if sgn > 0:
                f = invert(f)
            elem = multiply(elem, f)
        new.append(elem)
    return QuantumSeedSeries(mutate_matrix(s.matrix, k), tuple(new))


def quantum_trajectory(B: ExchangeMatrix, sequence, N: int, ring=ratfunc.EXACT):
    """Mutate a quantum seed along a sequence, using the tropical sign at
    each step.

    Returns (seeds, actives, signs): the L+1 seeds, the active variable
    Y_{k_t}(t) at each step, and the tropical sign-sequence.
    """
    signs = sign_sequence(B, MutationSchedule.identity_nu(sequence, B.n)).signs
    seed = initial_quantum_seed(B, N, ring)
    seeds = [seed]
    actives = []
    for k, eps in zip(sequence, signs):
        actives.append(seed.Y[k - 1])
        seed = quantum_mutate(seed, k, eps)
        seeds.append(seed)
    return seeds, actives, list(signs)


def seed_commutation_residual(s: QuantumSeedSeries) -> list:
    """Deviation of Y_i Y_j from q^(2 b'_ji) Y_j Y_i for all pairs, with
    b' the current matrix.  Empty if the seed relations hold."""
    bad = []
    b = s.matrix.rows
    for i in range(s.n):
        for j in range(i + 1, s.n):
            lhs = multiply(s.Y[i], s.Y[j])
            rhs = multiply(s.Y[j], s.Y[i]).scale_q_power(2 * b[j][i])
            dev = torus.deviation_from(lhs, rhs)
            if dev:
                bad.append(((i + 1, j + 1), dev))
    return bad


# ---------------------------------------------------------------------------
# identity verification


@dataclass(frozen=True)
class Residual:
    """Truncated deviation of an identity's left side from 1."""

    identity: str
    order: int
    residual_terms: tuple
    mode: str = "exact"

    @property
    def passed(self) -> bool:
        return not self.residual_terms

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "order": self.order,
            "residual_terms": [
                {"exponent": list(expo), "coefficient": _coeff_json(c)}
                for expo, c in self.residual_terms
            ],
            "verdict": self.verdict,
            "mode": self.mode,
        }


def _coeff_json(c):
    num, den = c  # tuples of ints in Q(q), ints at a rational point
    return {"numerator": list(num) if isinstance(num, tuple) else num,
            "denominator": list(den) if isinstance(den, tuple) else den}


def _ring(q0):
    return ratfunc.EXACT if q0 is None else ratfunc.RationalPointField(Fraction(q0))


def _mode(ring):
    return ring.name


def _psi_monomial(alpha, eps: int, B: ExchangeMatrix, N: int, ring) -> TorusElement:
    """Psi(Y^alpha)^eps in closed form, with no torus products.

    (Y^alpha)^n = Y^(n alpha) because <alpha, alpha> = 0, and by Euler
    1/Psi_q(x) = sum_n q^(n^2) x^n / (q^2; q^2)_n, so either sign is a
    sparse series with coefficients at the shifts n alpha.  Like
    psi_series, alpha must be nonzero and nonnegative.
    """
    alpha = tuple(int(a) for a in alpha)
    if not any(alpha) or min(alpha) < 0:
        raise NonTruncating(
            f"monomial argument Y^{alpha} must be nonzero and nonnegative "
            "for the series to truncate")
    coeff = ring.psi_coefficient if eps > 0 else ring.psi_inverse_coefficient
    terms = {tuple(n * a for a in alpha): coeff(n)
             for n in range(N // sum(alpha) + 1)}
    return TorusElement(B, N, (0,) * B.n, terms, ring)


def _product(factors, B, N, ring) -> TorusElement:
    """The factors multiplied in order; 1 for none."""
    P = None
    for f in factors:
        P = f if P is None else multiply(P, f)
    return unit(B, N, ring) if P is None else P


def _tropical_product(B, ss, N, ring, steps):
    """Product of Psi(Y^(eps_t alpha_t))^(eps_t) over the steps t, in order."""
    return _product((_psi_monomial(tuple(ss.signs[t] * a for a in ss.cvectors[t]),
                                   ss.signs[t], B, N, ring) for t in steps),
                    B, N, ring)


def _universal_product(seeds, sequence, signs, B, N, ring):
    """Reverse-ordered product of Psi(Y_t^eps_t)^(eps_t) at the active
    quantum y-variables Y_t = Y_{k_t}(t) of the trajectory `seeds`.

    eps_t > 0 takes psi_series of Y_t.  eps_t < 0 takes Euler's series
    for 1/Psi (psi_inverse_series) of Y_t^-1, which quantum_mutate
    already stored as Y_{k_t}(t+1); so no factor calls invert."""
    def factor(t):
        k = sequence[t] - 1
        if signs[t] > 0:
            return psi_series(seeds[t].Y[k])
        return psi_inverse_series(seeds[t + 1].Y[k])

    return _product(map(factor, reversed(range(len(signs)))), B, N, ring)


def verify_tropical_identity(B: ExchangeMatrix, sched: MutationSchedule,
                             N: int, q0=None) -> Residual:
    """Product over the period of Psi(Y^(eps_t alpha_t))^(eps_t), compared
    against 1.  Exactly zero residual for every period.  Every factor has
    a monomial argument and is built in closed form (_psi_monomial)."""
    require_period(B, sched)
    ring = _ring(q0)
    ss = sign_sequence(B, sched)
    P = _tropical_product(B, ss, N, ring, range(sched.length))
    dev = torus.deviation_from(P, unit(B, N, ring))
    return Residual("tropical", N, tuple(dev), _mode(ring))


def verify_universal_identity(B: ExchangeMatrix, sched: MutationSchedule,
                              N: int, q0=None) -> Residual:
    """Reverse-ordered product of Psi at the actual quantum y-variables
    along the period, compared against 1.  The arguments are dense, so
    each factor is a torus series: psi_series where the tropical sign is
    positive, Euler's series for 1/Psi at the trajectory's own inverse
    where it is negative (see _universal_product)."""
    require_period(B, sched)
    ring = _ring(q0)
    seeds, _, signs = quantum_trajectory(B, sched.sequence, N, ring)
    P = _universal_product(seeds, sched.sequence, signs, B, N, ring)
    dev = torus.deviation_from(P, unit(B, N, ring))
    return Residual("universal", N, tuple(dev), _mode(ring))


def verify_shuffle(B: ExchangeMatrix, sched: MutationSchedule, t: int,
                   N: int, q0=None) -> Residual:
    """Shuffle formula at cut t: the first t tropical factors equal the
    first t universal factors in reverse order.  Holds with or without
    periodicity.  The tropical side uses the closed form for monomial
    arguments; the universal side uses psi_series for positive signs and
    Euler's series for 1/Psi at the trajectory's own inverses for
    negative ones, as in verify_universal_identity."""
    L = sched.length
    if not 1 <= t <= L:
        raise ValueError(f"cut index t={t} outside 1..{L}")
    ring = _ring(q0)
    ss = sign_sequence(B, sched)
    lhs = _tropical_product(B, ss, N, ring, range(t))
    seeds, _, signs = quantum_trajectory(B, sched.sequence[:t], N, ring)
    rhs = _universal_product(seeds, sched.sequence, signs, B, N, ring)
    dev = torus.deviation_from(lhs, rhs)
    return Residual("shuffle", N, tuple(dev), _mode(ring))


def verify_dual_pair(B: ExchangeMatrix, sched: MutationSchedule,
                     N: int, q0=None):
    """The two scalar identities behind the noncompact tropical form.

    The first is the tropical identity itself.  The second is its
    order-reversed twin for the dual generators: with the coefficient
    variable playing qbar = 1/q_dual, the dual generators obey the
    commutation of the opposite matrix -B, and the reversed product of
    the same factors is again 1.  Both products are built from the
    closed-form monomial factors (_psi_monomial).
    """
    require_period(B, sched)
    ring = _ring(q0)
    ss = sign_sequence(B, sched)
    P1 = _tropical_product(B, ss, N, ring, range(sched.length))
    dev1 = torus.deviation_from(P1, unit(B, N, ring))
    Bop = ExchangeMatrix(-B.entries)
    P2 = _tropical_product(Bop, ss, N, ring, reversed(range(sched.length)))
    dev2 = torus.deviation_from(P2, unit(Bop, N, ring))
    return (Residual("dual-q", N, tuple(dev1), _mode(ring)),
            Residual("dual-qbar", N, tuple(dev2), _mode(ring)))


def dual_factor_arguments(B: ExchangeMatrix, sched: MutationSchedule):
    """Monomial exponents of the factors of the direct identity and of
    its dual: the dual list is the direct list reversed."""
    ss = sign_sequence(B, sched)
    direct = [tuple(eps * a for a in alpha)
              for eps, alpha in zip(ss.signs, ss.cvectors)]
    return direct, list(reversed(direct))


# ---------------------------------------------------------------------------
# commutative degeneration at q = 1


def classical_series_trajectory(B: ExchangeMatrix, sequence, N: int):
    """Truncated commutative expansion of the classical y-trajectory.

    Runs the classical exchange relation inside a commutative truncated
    series ring (the torus of the zero matrix), reading the true
    exchange matrices B(t) off the integer walk.  Serves as the
    independent series-level oracle for the q = 1 degeneration of
    quantum trajectories.
    """
    n = B.n
    Z = ExchangeMatrix([[0] * n] * n)
    gens = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        gens.append(monomial(tuple(e), Z, N))
    ys = tuple(gens)
    rows = _walk(B, MutationSchedule.identity_nu(sequence, n)).rows
    out = [(B, ys)]
    one = unit(Z, N)
    for t, k in enumerate(sequence):
        kk = k - 1
        yk = ys[kk]
        new = []
        for i in range(n):
            if i == kk:
                new.append(invert(yk))
                continue
            c = rows[t][kk][i]
            elem = ys[i]
            if c > 0:
                elem = multiply(elem, power(yk, c))
            factor = torus.add(one, yk)
            if c > 0:
                elem = multiply(elem, power(invert(factor), c))
            elif c < 0:
                elem = multiply(elem, power(factor, -c))
            new.append(elem)
        ys = tuple(new)
        out.append((ExchangeMatrix(rows[t + 1]), ys))
    return out


def degenerate_q1(elem: TorusElement) -> dict:
    """Map from total exponent vectors to coefficients evaluated at q = 1."""
    out = {}
    for d, c in elem.terms.items():
        if c.is_zero():
            continue
        expo = tuple(b + e for b, e in zip(elem.base, d))
        v = c.evaluate(Fraction(1))
        if v:
            out[expo] = out.get(expo, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}
