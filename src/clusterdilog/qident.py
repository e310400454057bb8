"""Quantum y-seed mutation and the quantum dilogarithm identities.

Quantum y-variables are tracked as elements of the truncated completed
torus of the *initial* seed.  A mutation period then turns into exact
operator identities between products of quantum-dilogarithm series,
which are verified here in four presentations: tropical (monomial
arguments), universal (full y-variable arguments), the shuffle formula
connecting the two, and the pair of identities (direct and
order-reversed in the dual parameter) into which the noncompact
tropical identity factorizes.  The universal check and every shuffle
cut read one running product along one quantum walk.  The tropical and
dual checks compare the first half of their product P with the inverse
of the second half, which has the same verdict, and a residual whose
lowest-degree terms are those of P - 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import ratfunc, torus
from .errors import NonTruncating
from .exchange import (ExchangeMatrix, MutationSchedule, _walk, mutate_matrix,
                       require_period)
from .torus import (TorusElement, invert, monomial, multiply, power,
                    psi_inverse_series, psi_series, unit)

# largest |b_ki| a quantum mutation accepts: the step multiplies in |b_ki|
# torus factors one by one, whatever the truncation order
MAX_EXPONENT = 64


class QuantumSeedSeries(NamedTuple):
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
    c = max(b[kk], key=abs)
    if abs(c) > MAX_EXPONENT:
        raise ValueError(f"exchange exponent {c} in row {k} exceeds "
                         f"{MAX_EXPONENT} in absolute value")
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
    signs = _walk(B, MutationSchedule.identity_nu(sequence, B.n)).signs
    seeds = [initial_quantum_seed(B, N, ring)]
    for k, eps in zip(sequence, signs):
        seeds.append(quantum_mutate(seeds[-1], k, eps))
    return seeds, [s.Y[k - 1] for s, k in zip(seeds, sequence)], list(signs)


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


class Residual(NamedTuple):
    """Truncated deviation of an identity's two sides: the product minus 1
    for the universal check, the first side minus the second for the
    shuffle formula, and left - right for the tropical and dual checks,
    where left is the first half of the product P and right the inverse
    of its second half.  Then left - right = (P - 1) right with right =
    1 + (higher terms), so its lowest-degree terms are those of P - 1."""

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
    num, den = c  # tuples of ints exactly, ints at a rational point
    return {"numerator": list(num) if isinstance(num, tuple) else num,
            "denominator": list(den) if isinstance(den, tuple) else den}


def _ring(q0):
    return ratfunc.EXACT if q0 is None else ratfunc.RationalPointField(Fraction(q0))


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


def _tropical_product(B, walk, N, ring, steps, power=1):
    """Product of Psi(Y^(eps_t alpha_t))^(power * eps_t) over the steps t,
    in order, with eps_t and alpha_t read off the walk; power = -1 gives
    the factors' inverses."""
    return _product((_psi_monomial(tuple(walk.signs[t] * a
                                         for a in walk.alphas[t]),
                                   power * walk.signs[t], B, N, ring)
                     for t in steps),
                    B, N, ring)


def _tropical_residual(B, walk, N, ring, order) -> tuple:
    """Check that the product P of Psi(Y^(eps_t alpha_t))^(eps_t) over the
    steps t of `order` is 1, as its first half against its inverted
    second half.

    With m = floor(L/2), left is the product of the first m factors and
    right = Q^-1 the product of the last L - m factors' inverses
    Psi(Y^(eps_t alpha_t))^(-eps_t), taken last to first; each is a
    closed form (_psi_monomial).  Then left - right = (P - 1) right, and
    as right has base 0 and constant term 1, the residual vanishes exactly
    when P - 1 does, and its lowest-degree terms are those of P - 1.  The
    two half products stay far sparser than P itself."""
    order = list(order)
    m = len(order) // 2
    left = _tropical_product(B, walk, N, ring, order[:m])
    right = _tropical_product(B, walk, N, ring, reversed(order[m:]), -1)
    return tuple(torus.deviation_from(left, right))


def _universal_products(B, sequence, signs, N, ring):
    """Yield the running product U_t = F_t U_(t-1) after each step t of
    `sequence`, where F_t = Psi(Y_t^eps_t)^(eps_t) at the active quantum
    y-variable Y_t = Y_{k_t}(t), eps_t the tropical sign from `signs`.

    eps_t > 0 takes psi_series of Y_t.  eps_t < 0 takes Euler's series
    for 1/Psi (psi_inverse_series) of Y_t^-1, which quantum_mutate
    stores as Y_{k_t}(t+1).  The last step builds no seed, as nothing
    reads it: there Y_t^-1 is one invert, so L steps make L - 1 mutations."""
    seed, U, last = initial_quantum_seed(B, N, ring), None, len(sequence) - 1
    for t, (k, eps) in enumerate(zip(sequence, signs)):
        Y = seed.Y[k - 1]
        if t < last:
            seed = quantum_mutate(seed, k, eps)
        F = (psi_series(Y) if eps > 0 else
             psi_inverse_series(seed.Y[k - 1] if t < last else invert(Y)))
        U = F if U is None else multiply(F, U)
        yield U


def _shuffle_residuals(B, sched, cuts, N, q0=None) -> list:
    """The shuffle formula's Residual at each cut t of `cuts`: the
    running tropical product T_t = T_(t-1) Psi(Y^(eps_t alpha_t))^(eps_t)
    against the running universal product U_t, both read off one walk to
    the last cut, so every cut of L steps costs L - 1 mutations."""
    for t in cuts:
        if not 1 <= t <= sched.length:
            raise ValueError(f"cut index t={t} outside 1..{sched.length}")
    ring, walk = _ring(q0), _walk(B, sched)
    found, T = {}, None
    for t, U in enumerate(_universal_products(
            B, sched.sequence[:max(cuts, default=0)], walk.signs, N, ring), 1):
        F = _tropical_product(B, walk, N, ring, (t - 1,))
        T = F if T is None else multiply(T, F)
        if t in cuts:
            found[t] = tuple(torus.deviation_from(T, U))
    return [Residual("shuffle", N, found[t], ring.name) for t in cuts]


def verify_tropical_identity(B: ExchangeMatrix, sched: MutationSchedule,
                             N: int, q0=None) -> Residual:
    """Product P over the period of Psi(Y^(eps_t alpha_t))^(eps_t), which
    is 1: exactly zero residual for every period.  Every factor has a
    monomial argument and is built in closed form (_psi_monomial).  The
    residual is left - right, the first half of the product against the
    inverse of the second half (_tropical_residual); its lowest-degree
    terms are those of P - 1."""
    walk = require_period(B, sched)
    ring = _ring(q0)
    dev = _tropical_residual(B, walk, N, ring, range(sched.length))
    return Residual("tropical", N, dev, ring.name)


def verify_universal_identity(B: ExchangeMatrix, sched: MutationSchedule,
                              N: int, q0=None) -> Residual:
    """Reverse-ordered product of Psi at the actual quantum y-variables
    along the period, compared against 1.  The arguments are dense, so
    each factor is a torus series: psi_series where the tropical sign is
    positive, Euler's series for 1/Psi at the trajectory's own inverse
    where it is negative: the last of _universal_products."""
    walk = require_period(B, sched)
    ring = _ring(q0)
    P = one = unit(B, N, ring)
    for P in _universal_products(B, sched.sequence, walk.signs, N, ring):
        pass
    dev = torus.deviation_from(P, one)
    return Residual("universal", N, tuple(dev), ring.name)


def verify_shuffle(B: ExchangeMatrix, sched: MutationSchedule, t: int,
                   N: int, q0=None) -> Residual:
    """Shuffle formula at cut t: the first t tropical factors equal the
    first t universal factors in reverse order.  Holds with or without
    periodicity.  The universal side is the running product after step
    t, which mutates the seed t - 1 times (_shuffle_residuals)."""
    return _shuffle_residuals(B, sched, [t], N, q0)[0]


def verify_dual_pair(B: ExchangeMatrix, sched: MutationSchedule,
                     N: int, q0=None, tropical=None):
    """The two scalar identities behind the noncompact tropical form.

    The first is the tropical identity itself: `tropical` may pass
    verify_tropical_identity's Residual for the same arguments, whose
    residual is reused.  The second is its order-reversed twin for the
    dual generators: with the coefficient variable playing qbar =
    1/q_dual, they obey the commutation of the opposite matrix -B, and
    the reversed product of the same factors is again 1.  It is the
    image of the B-side product under the anti-isomorphism Y^a -> Y^a
    from the B-torus to the -B-torus, so its verdict equals dual-q's;
    it stays as a check on orientation handling.  Both products are
    built from the closed-form monomial factors (_psi_monomial) and
    checked as left - right (_tropical_residual), whose lowest-degree
    terms are those of P - 1.
    """
    walk = require_period(B, sched)
    ring = _ring(q0)
    L = sched.length
    dev1 = (_tropical_residual(B, walk, N, ring, range(L)) if tropical is None
            else tropical.residual_terms)
    Bop = ExchangeMatrix([[-x for x in r] for r in B.rows])
    dev2 = _tropical_residual(Bop, walk, N, ring, reversed(range(L)))
    return (Residual("dual-q", N, dev1, ring.name),
            Residual("dual-qbar", N, dev2, ring.name))


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
    return {tuple(b + e for b, e in zip(elem.base, d)): v
            for d, c in elem.terms.items() if (v := c.evaluate(Fraction(1)))}
