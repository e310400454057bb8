"""Truncated completed quantum torus with exact coefficients.

Elements have the normal form  Y^gamma * sum_delta c_delta Y^delta
with gamma in Z^n, delta running over nonnegative shift vectors of
total degree at most the truncation order, and c_delta in the ring
R = Z[q, q^-1][(1 - q^(2m))^-1] (or in Q at a rational point q0).  The
generators obey

    q^<alpha,beta> Y^alpha Y^beta = Y^(alpha+beta),
    <alpha,beta> = alpha^T B beta,

so Y^alpha Y^beta = q^(2<beta,alpha>) Y^beta Y^alpha.  Every operation
is exact; truncation only ever drops whole terms above the order.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _plus, itemgetter, mul as _times

from .errors import IncompatibleContexts, NonInvertible, NonTruncating
from .exchange import ExchangeMatrix, _Frozen, _set
from .ratfunc import QCoefficient
from . import ratfunc


def pairing(alpha, beta, B: ExchangeMatrix) -> int:
    """<alpha, beta> = alpha^T B beta."""
    n = B.n
    if len(alpha) != n or len(beta) != n:
        raise ValueError(f"exponent vectors must have length {n}")
    return sum(ai * sum(map(_times, row, beta))
               for ai, row in zip(alpha, B.rows) if ai)


def _row_B(alpha, B: ExchangeMatrix) -> tuple:
    """The covector alpha^T B = -(B alpha)^T, so <alpha, beta> = row . beta."""
    return tuple(-sum(map(_times, row, alpha)) for row in B.rows)


class TorusElement(_Frozen):
    """Normal form Y^base * sum_delta terms[delta] * Y^delta, with only
    the nonzero coefficients stored: a missing shift has coefficient 0,
    and the zero element has no terms."""

    __slots__ = ("matrix", "order", "base", "terms", "ring")

    def __init__(self, matrix: ExchangeMatrix, order: int, base: tuple,
                 terms: dict, ring=ratfunc.EXACT):
        _set(self, "matrix", matrix)
        _set(self, "order", order)
        _set(self, "base", base)
        _set(self, "terms", {d: c for d, c in terms.items()
                             if not c.is_zero()})
        _set(self, "ring", ring)

    @property
    def n(self) -> int:
        return self.matrix.n

    def is_zero(self) -> bool:
        return not self.terms

    def constant_coefficient(self) -> QCoefficient:
        """Coefficient of the delta = 0 shift."""
        return self.terms.get((0,) * self.n, self.ring.zero())

    def degree_floor(self) -> int:
        """Least total shift degree carrying a nonzero coefficient."""
        return min(map(sum, self.terms), default=self.order + 1)

    # scale has no caller in the package, as sums take their scalars as
    # pair_sum partners; it stays because perfbench/spans.py traces it
    def scale(self, c: QCoefficient) -> "TorusElement":
        """Multiply by a central scalar of the coefficient ring."""
        return TorusElement(self.matrix, self.order, self.base,
                            {d: v * c for d, v in self.terms.items()}, self.ring)

    def scale_q_power(self, j: int) -> "TorusElement":
        return TorusElement(self.matrix, self.order, self.base,
                            {d: v.mul_q_power(j) for d, v in self.terms.items()},
                            self.ring)

    def __neg__(self):
        return TorusElement(self.matrix, self.order, self.base,
                            {d: -v for d, v in self.terms.items()}, self.ring)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        _check_context(self, other)
        return _sum(((self, self.ring.one()), (other, -self.ring.one())))

    def __mul__(self, other):
        return multiply(self, other)

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        try:
            _check_context(self, other)
        except IncompatibleContexts:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.matrix, self.order, self.base))

    def evaluate_commutative(self, yvals, q0=1) -> float:
        """Send Y_i to commuting numbers yvals[i] and q to q0.

        Only meaningful for elements whose coefficients are regular at
        q0 (trajectory elements are; quantum-dilogarithm series are
        not regular at q0 = 1).
        """
        q0 = Fraction(q0)
        total = 0.0
        for d, c in self.terms.items():
            mono = 1.0
            for i, e in enumerate(d):
                mono *= float(yvals[i]) ** (self.base[i] + e)
            total += float(c.evaluate(q0)) * mono
        return total

    def pretty(self) -> str:
        bits = []
        for d in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[d]
            mono = "*".join(f"Y{i+1}^{e}" for i, e in enumerate(d) if e)
            bits.append(f"{c!r}{'*' + mono if mono else ''}")
        body = " + ".join(bits) if bits else "0"
        if any(self.base):
            head = "*".join(f"Y{i+1}^{e}" for i, e in enumerate(self.base) if e)
            return f"Y^{self.base}[{head}] * ({body})"
        return body


def _check_context(a: TorusElement, b: TorusElement) -> None:
    if a.matrix != b.matrix or a.order != b.order or a.ring != b.ring:
        raise IncompatibleContexts(
            "torus elements carry different matrices, truncation orders, "
            "or coefficient fields")


def monomial(alpha, B: ExchangeMatrix, N: int, ring=ratfunc.EXACT) -> TorusElement:
    """The Laurent monomial Y^alpha at truncation order N."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != B.n:
        raise ValueError(f"exponent vector must have length {B.n}")
    return TorusElement(B, N, alpha, {(0,) * B.n: ring.one()}, ring)


def unit(B: ExchangeMatrix, N: int, ring=ratfunc.EXACT) -> TorusElement:
    return monomial((0,) * B.n, B, N, ring)


def _rebase(elem: TorusElement, scalar, newbase: tuple, out: dict) -> None:
    """Append the terms of scalar * elem, re-expressed over a lower base
    (entrywise <=), to out as (c_d, scalar, q-exponent) triples per shift.

    Y^g sum c_d Y^d = Y^g' sum c_d q^(<g',s> - <s,d>) Y^(s+d), s = g-g'.
    Terms pushed above the order are dropped, consistently with the
    truncation contract.
    """
    g = elem.base
    s = tuple(a - b for a, b in zip(g, newbase))
    if not any(s):
        for d, c in elem.terms.items():
            out.setdefault(d, []).append((c, scalar, 0))
        return
    B, N = elem.matrix, elem.order
    head = pairing(newbase, s, B)
    row_s = _row_B(s, B)
    for d, c in elem.terms.items():
        nd = tuple(si + di for si, di in zip(s, d))
        if sum(nd) > N:
            continue
        e = head - sum(r * di for r, di in zip(row_s, d))
        out.setdefault(nd, []).append((c, scalar, e))


def add(a: TorusElement, b: TorusElement) -> TorusElement:
    _check_context(a, b)
    return _sum(((a, a.ring.one()), (b, a.ring.one())))


def _sum(pairs) -> TorusElement:
    """Sum of c * x over (x, c) pairs of torus elements of one context and
    central scalars, over the lowest base: the triples `_rebase` gathers
    on each shift go to `ring.pair_sum` once."""
    first = pairs[0][0]
    newbase = tuple(map(min, zip(*(x.base for x, _ in pairs))))
    out = {}
    for x, c in pairs:
        _rebase(x, c, newbase, out)
    pair_sum = first.ring.pair_sum
    return TorusElement(first.matrix, first.order, newbase,
                        {d: pair_sum(t) for d, t in out.items()}, first.ring)


def multiply(a: TorusElement, b: TorusElement) -> TorusElement:
    """Graded product; exact coefficients, terms above the order dropped.

    The pairs of terms landing on each output shift are gathered as
    (c_d, c_e, q-exponent) triples and handed to `ring.pair_sum` once per
    shift, which builds and sums their products in one step."""
    _check_context(a, b)
    return _capped_product(a, b, a.order)


def _capped_product(a: TorusElement, b: TorusElement,
                    cap: int) -> TorusElement:
    """a * b of one context, keeping only the shifts of total degree at
    most cap (cap <= the order); no pair above the cap is formed."""
    B, N = a.matrix, a.order
    g1, g2 = a.base, b.base
    head = -pairing(g1, g2, B)
    out = {}
    bterms = sorted(((sum(e), e, ce) for e, ce in b.terms.items()),
                    key=itemgetter(0))
    for d, cd in a.terms.items():
        room = cap - sum(d)
        if room < 0:
            continue
        e1 = head + 2 * pairing(g2, d, B)
        row_d = _row_B(d, B)
        for we, e, ce in bterms:
            if we > room:
                break
            key = tuple(map(_plus, d, e))
            qexp = e1 - sum(map(_times, row_d, e))
            out.setdefault(key, []).append((cd, ce, qexp))
    pair_sum = a.ring.pair_sum
    return TorusElement(B, N, tuple(map(_plus, g1, g2)),
                        {key: pair_sum(pairs) for key, pairs in out.items()},
                        a.ring)


def power(a: TorusElement, m: int) -> TorusElement:
    """a^m for m >= 0 by repeated multiplication (noncommutative)."""
    if m < 0:
        raise ValueError("negative powers go through invert()")
    if m == 0:
        return unit(a.matrix, a.order, a.ring)
    acc = a
    for _ in range(m - 1):
        acc = multiply(acc, a)
    return acc


def invert(a: TorusElement) -> TorusElement:
    """Two-sided inverse up to the truncation order.

    Requires a nonzero delta = 0 coefficient c_0 that the ring can
    invert: over the exact ring, c_0 = +-q^j / prod_m (1 - q^(2m))^(e_m),
    and anything else raises NonInvertible.  As <base, base> = 0,
    Y^(-base) a = sum_delta c_delta Y^delta; its inverse v is solved
    degree by degree from v_0 = 1/c_0 and

        v_delta = -(1/c_0) sum_{eps + zeta = delta, eps != 0}
                  q^<eps,zeta> c_eps v_zeta,

    where each zeta has lower degree than delta, and the triples of each
    delta go to `ring.pair_sum` once.  The result is

        v Y^(-base) = Y^(-base) sum_delta v_delta q^(2<delta,base>) Y^delta.
    """
    c0 = a.constant_coefficient()
    if c0.is_zero():
        raise NonInvertible("element has zero constant-shift coefficient")
    B, N, ring = a.matrix, a.order, a.ring
    c0_inv = c0.inverse()
    zero_key = (0,) * B.n
    w = sorted(((sum(e), e, -(c * c0_inv), _row_B(e, B))
                for e, c in a.terms.items() if any(e)),
               key=itemgetter(0))
    levels = [[(zero_key, c0_inv)]]
    for deg in range(1, N + 1):
        out = {}
        for we, e, ce, row_e in w:
            if we > deg:
                break
            for z, cz in levels[deg - we]:
                out.setdefault(tuple(map(_plus, z, e)), []).append(
                    (cz, ce, sum(map(_times, row_e, z))))
        level = [(d, ring.pair_sum(triples)) for d, triples in out.items()]
        levels.append([(d, c) for d, c in level if not c.is_zero()])
    # <delta, base> = -(base^T B) . delta
    row_base = _row_B(a.base, B)
    return TorusElement(B, N, tuple(-x for x in a.base),
                        {d: c.mul_q_power(-2 * sum(map(_times, row_base, d)))
                         for lv in levels for d, c in lv}, ring)


def psi_series(x: TorusElement) -> TorusElement:
    """The quantum dilogarithm series sum_n (-q x)^n / (q^2; q^2)_n.

    The argument must push degrees up under powers: its base exponent
    vector is nonnegative and nonzero, or zero with no constant term.
    Anything else cannot truncate and raises NonTruncating.
    """
    return _series(x, x.ring.psi_coefficient)


def psi_inverse_series(x: TorusElement) -> TorusElement:
    """1/Psi(x) by Euler's series sum_n q^(n^2) x^n / (q^2; q^2)_n, with
    no inversion; the argument is restricted as for psi_series."""
    return _series(x, x.ring.psi_inverse_coefficient)


def _series(x: TorusElement, coefficient) -> TorusElement:
    """sum_n coefficient(n) x^n with coefficient(0) = 1, up to the order N.

    With rho = |base| > 0, x^n sits over the base n*base, and only its
    shifts of degree at most N - n*rho survive the rebase onto base 0;
    so each power x^n = x^(n-1) x is formed only to that degree.  With
    rho = 0 every power keeps all shifts up to N.  The powers go to `_sum`
    with their series coefficients as scalars."""
    N = x.order
    base = x.base
    if any(e < 0 for e in base):
        raise NonTruncating(
            f"argument base {base} has a negative exponent; powers of the "
            "argument do not raise the total degree")
    rho = step = sum(base)
    if step == 0:
        if not x.constant_coefficient().is_zero():
            raise NonTruncating(
                "argument has a degree-0 component; the series does not truncate")
        step = x.degree_floor()
    pairs = [(unit(x.matrix, N, x.ring), x.ring.one())]
    xp = None
    for n in range(1, N // step + 1):
        xp = x if xp is None else _capped_product(xp, x, N - n * rho)
        if xp.is_zero():
            break
        pairs.append((xp, coefficient(n)))
    return _sum(pairs)


def deviation_from(elem: TorusElement, reference: TorusElement) -> list:
    """Nonzero terms of elem - reference, reported as
    (total exponent vector, canonical coefficient) pairs."""
    diff = elem - reference
    return [(tuple(map(_plus, diff.base, d)), c.canonical())
            for d, c in sorted(diff.terms.items(),
                               key=lambda t: (sum(t[0]), t[0]))]
