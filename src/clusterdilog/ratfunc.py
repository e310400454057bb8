"""Exact arithmetic in R = Z[q, q^-1][(1 - q^(2m))^-1], the ring of every
coefficient the quantum identities produce.

Numerators are integer polynomials stored packed into single Python
integers (one balanced base-2^k digit per coefficient), so polynomial
addition and multiplication become big-integer addition and
multiplication, which CPython does in C.  A coefficient is
q^lo * P(q) / prod_m (1 - q^(2m))^{e_m}: the power of q is one signed
integer lo, never zero digits of P nor a factor of the denominator, so
multiplying by q^j adds j to lo.  The other denominator factors are
stored as the exponent vector (e_1, e_2, ...) with no trailing zero, so
common denominators are exponent-wise sums and maxima of short tuples.
Nothing is normalised on construction: P and q^lo may share a power of
q, which `inverse`, `canonical` and `evaluate` split off.  The
identities only ever divide by a monomial unit, so `inverse` inverts
exactly the values +-q^j / prod_m (1 - q^(2m))^(e_m), however they are
stored; anything else raises NonInvertible.
`canonical` reduces by trial division by the cyclotomic Phi_d of the
denominator, and `hash` is the value at q = 2.

Exactness is unconditional: all operations are ring operations on the
packed values.  Each value stores its own digit width k, taken from
the ladder 64, 128, 256, ... and a bound on its coefficients; its digit
count is not stored but read off its bit length.  Before an operation
the operands' bounds give a bound for the result; if that does not fit
a balanced digit of the operands' width, the result is packed at the
narrowest ladder width that holds the bound.  A coefficient therefore
never outgrows its digit.  Bounds are never recomputed from the digits,
so a value can be packed wider than its coefficients need; the README's
design notes give what that costs.

Every sum is one `ExactField.pair_sum` of c_d * c_e * q^j triples: the
pairs of a torus product landing on one term, the re-based terms of a
torus sum or series with their scalars, or two coefficients with +-1.
It multiplies the packed numerators as plain ints at one digit width,
sums the products sharing a denominator exponent vector with q-powers
aligned by shifts above the lowest, and lifts each such group onto the
common denominator once, so no pair becomes a coefficient of its own.
A lone group, as in every sum with no denominator, is the result as it
stands; several are summed in one pass, at one width chosen from their
lifted bounds (each factor 1 - q^(2m) doubles one), and each factor is
one shift and one subtraction, val - (val << 2mk).  The numerator's
zero low digits then move into lo.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from operator import add as _plus, sub as _minus

from .errors import NonInvertible

_MIN_WIDTH = 64                # narrowest digit, in bits

_offsets = {}


def _width(bound) -> int:
    """Narrowest ladder width whose balanced digits hold |c| <= bound."""
    k = _MIN_WIDTH
    bits = bound.bit_length()
    while k <= bits:
        k <<= 1
    return k


def _offset(nd, k):
    """sum_{i<nd} 2^(k-1) * 2^(k*i), used to make packed values nonnegative."""
    off = _offsets.get((nd, k))
    if off is None:
        off = ((1 << (k * nd)) - 1) // ((1 << k) - 1) << (k - 1)
        _offsets[nd, k] = off
    return off


class Poly:
    """Integer polynomial packed into one big integer.

    `val` is P(2^k) for the digit width `k`, and `bound` bounds the
    magnitude of every coefficient; bound < 2^(k-1) always holds.  The
    digit count `nd` is read off `val`.  Immutable.
    """

    __slots__ = ("val", "bound", "k")

    def __init__(self, val, bound, k):
        self.val = val
        self.bound = bound
        self.k = k

    @staticmethod
    def from_coeffs(coeffs) -> "Poly":
        coeffs = tuple(coeffs)
        bound = max(map(abs, coeffs), default=0)
        k = _width(bound)
        return Poly(_pack(coeffs, k), bound, k)

    @property
    def nd(self) -> int:
        """The digit count, read off `val` by `_digits`."""
        return _digits(self.val, self.k)

    def is_zero(self) -> bool:
        return self.val == 0

    def at(self, k: int) -> int:
        """The packed value at width k >= self.k."""
        if k == self.k or self.val == 0:
            return self.val
        return _pack(_decode(self.val, self.k), k)

    def __neg__(self):
        return Poly(-self.val, self.bound, self.k)

    def __mul__(self, other):
        if self.val == 0 or other.val == 0:
            return _ZERO_POLY
        k = max(self.k, other.k)
        bound = min(self.nd, other.nd) * self.bound * other.bound
        if bound.bit_length() >= k:
            k = _width(bound)
        return Poly(self.at(k) * other.at(k), bound, k)

    def shift(self, j: int) -> "Poly":
        """Multiply by q^j (j >= 0)."""
        return Poly(self.val << (self.k * j), self.bound, self.k)

    def unshift(self, j: int) -> "Poly":
        """Exact division by q^j."""
        return Poly(self.val >> (self.k * j), self.bound, self.k)

    def q_order(self) -> int:
        """The largest j with q^j dividing the nonzero polynomial: as its
        digits are below 2^(k-1), the lowest set bit lies in digit j."""
        return ((self.val & -self.val).bit_length() - 1) // self.k

    def coeffs(self) -> tuple:
        """Decode to a coefficient tuple (constant term first)."""
        return _decode(self.val, self.k)

    def evaluate(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs()):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Poly{list(self.coeffs())}"


def _pack(coeffs, k):
    """P(2^k) for coefficients that fit balanced k-bit digits."""
    half, nbytes = 1 << (k - 1), k // 8
    raw = b"".join((c + half).to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _offset(len(coeffs), k)


def _digits(val, k):
    """The number of balanced k-bit digits of val up to its top nonzero
    one: as every digit is below 2^(k-1) in magnitude, n digits take
    k(n - 1) to kn - 1 bits."""
    return val.bit_length() // k + 1 if val else 0


def _decode(val, k):
    """Balanced k-bit digits of a packed value, the top one nonzero."""
    nd = _digits(val, k)
    half, nbytes = 1 << (k - 1), k // 8
    raw = (val + _offset(nd, k)).to_bytes(nd * nbytes, "little")
    return tuple(int.from_bytes(raw[i:i + nbytes], "little") - half
                 for i in range(0, nd * nbytes, nbytes))


_ZERO_POLY = Poly(0, 0, _MIN_WIDTH)
_ONE_POLY = Poly(1, 1, _MIN_WIDTH)

def _add_fac(f1, f2):
    """Exponent-wise sum of two denominator exponent vectors."""
    if len(f1) < len(f2):
        f1, f2 = f2, f1
    return tuple(map(_plus, f1, f2)) + f1[len(f2):] if f2 else f1


def _fac_diff(big, small):
    """Exponent-wise difference big - small (assumed nonnegative)."""
    if big == small:
        return ()
    d = tuple(map(_minus, big, small)) + big[len(small):]
    while d and not d[-1]:
        d = d[:-1]
    return d


def _max_fac(facs) -> tuple:
    """Exponent-wise maximum of denominator exponent vectors."""
    return tuple(map(max, zip_longest(*facs, fillvalue=0)))


class QCoefficient:
    """An element of R = Z[q, q^-1][(1 - q^(2m))^-1]: the value
    q^lo * num / prod_m (1 - q^(2m))^(e_m), with num a packed integer
    polynomial, lo any integer, and dfac the exponent vector (e_1, e_2,
    ...) with no trailing zero.  num and q^lo may share a power of q."""

    __slots__ = ("num", "lo", "dfac")

    def __init__(self, num: Poly, lo: int = 0, dfac: tuple = ()):
        if num.is_zero():
            num, lo, dfac = _ZERO_POLY, 0, ()
        self.num = num
        self.lo = lo
        self.dfac = dfac

    # ---- constructors -------------------------------------------------

    @staticmethod
    def q_power(j: int) -> "QCoefficient":
        """q^j for any integer j."""
        return QCoefficient(_ONE_POLY, j)

    @staticmethod
    def qpochhammer_inverse(n: int) -> "QCoefficient":
        """1 / (q^2; q^2)_n."""
        return QCoefficient(_ONE_POLY, dfac=(1,) * n)

    # ---- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return ExactField.pair_sum(((self, _ONE_COEF, 0),
                                    (other, _ONE_COEF, 0)))

    def __neg__(self):
        return QCoefficient(-self.num, self.lo, self.dfac)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self.mul_shifted(other, 0)

    def mul_shifted(self, other, j: int) -> "QCoefficient":
        """self * other * q^j, built as one coefficient."""
        return QCoefficient(self.num * other.num, self.lo + other.lo + j,
                            _add_fac(self.dfac, other.dfac))

    def mul_q_power(self, j: int) -> "QCoefficient":
        return QCoefficient(self.num, self.lo + j, self.dfac)

    # scale_int and __truediv__ have no caller in the package; they stay
    # because perfbench/spans.py traces them by name
    def scale_int(self, c: int) -> "QCoefficient":
        return QCoefficient(self.num * Poly.from_coeffs((c,)), self.lo,
                            self.dfac)

    def inverse(self) -> "QCoefficient":
        """Inverse of +-q^j / prod_m (1 - q^(2m))^(e_m), the only
        divisors the identities produce: a quantum y-variable, a Psi-series
        and an exchange factor 1 + q^s Y^eps each have such a constant
        coefficient.  A value stored with another numerator, such as
        (1 - q^2) / (1 - q^2) = 1 or (1 + q^2) / (1 - q^4) = 1 / (1 - q^2),
        is reduced by `canonical` and inverted if it has that form.
        NonInvertible for any other value, such as (1 + q) / (q^2; q^2)_3."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        num, lo = self._q_split()
        if num.val not in (1, -1):
            # the reduced denominator is q^a prod_m (q^(2m) - 1)^(e_m) if
            # the value has that form; its factor of largest m then holds
            # the largest Phi_d left, so it divides out first
            num, den = self.canonical()
            j = next(i for i, c in enumerate(num) if c)
            rest = den[max(-lo, 0):]
            for m in range(len(self.dfac), 0, -1):
                top = (-1,) + (0,) * (2 * m - 1) + (1,)
                while (quo := _quotient(rest, top)) is not None:
                    rest = quo
            if num[j:] not in ((1,), (-1,)) or rest != (1,):
                raise NonInvertible(f"{self!r} is not +-q^j / "
                                    "prod_m (1 - q^(2m))^(e_m)")
            den = Poly.from_coeffs(den)
            return QCoefficient(-den if num[j] < 0 else den, -j)
        den = _lift_sum([((), (1, 0, 1))], 0, self.dfac, _MIN_WIDTH)
        return QCoefficient(-den if num.val < 0 else den, -lo)

    def __truediv__(self, other):
        return self * other.inverse()

    # ---- comparison ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QCoefficient):
            return NotImplemented
        return ExactField.pair_sum(((self, _ONE_COEF, 0),
                                    (other, -_ONE_COEF, 0))).is_zero()

    def __hash__(self):
        # evaluation at q = 2 is a ring homomorphism on all of R, as no
        # 1 - 4^m vanishes, so equal elements get equal hashes
        return hash(self.evaluate(2))

    # ---- presentation -------------------------------------------------

    def _q_split(self) -> tuple:
        """(P, e) with self = q^e P / prod_m (1 - q^(2m))^(e_m) and q not
        dividing P; self is nonzero."""
        j = self.num.q_order()
        return self.num.unshift(j), self.lo + j

    def canonical(self) -> tuple:
        """Fully reduced (numerator, denominator) coefficient tuples.

        With self = q^e P / prod (1 - q^(2m))^e_m and q not dividing P,
        the numerator is q^e P for e >= 0, and P over q^-e otherwise; the
        rest of the denominator is +-prod Phi_d^E.  Each Phi_d is divided
        out of the numerator as often as it divides it, at most E times.
        The denominator left is the monic product of the other factors."""
        if self.is_zero():
            return (0,), (1,)
        num, lo = self._q_split()
        num = (0,) * lo + num.coeffs()      # no zeros when lo < 0
        den = _ONE_POLY.shift(max(-lo, 0))
        for d, e in _cyclotomic_exponents(self.dfac).items():
            num, k = _strip_cyclotomic(num, d, e)
            if k < e:
                phi = Poly.from_coeffs(_cyclotomic(d))
                for _ in range(e - k):
                    den = den * phi
        if sum(self.dfac) % 2:  # (1 - q^(2m)) = -(q^(2m) - 1)
            num = tuple(-c for c in num)
        return num, den.coeffs()

    def evaluate(self, q0) -> Fraction:
        """Exact evaluation at a rational point q0."""
        if self.is_zero():
            return Fraction(0)
        q0 = Fraction(q0)
        num, lo = self._q_split()
        den = q0 ** max(-lo, 0)
        for m, e in enumerate(self.dfac, 1):
            den *= (1 - q0 ** (2 * m)) ** e
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q0}")
        return num.evaluate(q0) * q0 ** max(lo, 0) / den

    def __repr__(self):
        num, den = self.canonical()
        if den == (1,):
            return f"({_poly_str(num)})"
        return f"({_poly_str(num)})/({_poly_str(den)})"


@lru_cache(maxsize=4096)
def _shape(fac) -> tuple:
    """(factor count, the 2m of each factor) of prod_m (1 - q^(2m))^(e_m)
    for the exponent vector fac; cached, as a check lifts thousands of
    groups by a few hundred distinct vectors."""
    steps = tuple(2 * m for m, e in enumerate(fac, 1) for _ in range(e))
    return len(steps), steps


def _lift_sum(groups, lo, dfac, k) -> Poly:
    """The `_pair_groups` groups (fac, (val, low, bound)), packed at width
    k, summed over q^lo / prod over dfac in one pass, with lo <= each low
    and dfac >= each fac.  Each factor 1 - q^(2m) of a group's lift
    doubles its bound; the summed lifted bounds fix one width, at which
    every factor is val - (val << 2mk)."""
    lifts = []
    bound = 0
    for fac, (val, low, b) in groups:
        count, steps = _shape(_fac_diff(dfac, fac))
        bound += b << count
        lifts.append((val, low - lo, steps))
    wide = k if bound.bit_length() < k else _width(bound)
    total = 0
    for val, shift, steps in lifts:
        if wide != k:
            val = _pack(_decode(val, k), wide)
        for s in steps:
            val -= val << (s * wide)
        total += val << (shift * wide)
    return Poly(total, bound, wide)


def _pair_groups(triples, k) -> dict:
    """The products c_d * c_e * q^j of `triples`, summed per
    denominator exponent vector: {dfac: [val, low, bound]}.  A group is
    P(q) q^low / prod over dfac, where val = P(2^k) has each digit within
    bound once bound < 2^(k-1)."""
    groups = {}
    for c, e, j in triples:
        a, b = c.num, e.num
        val = ((a.val if a.k == k else a.at(k))
               * (b.val if b.k == k else b.at(k)))
        s = j + c.lo + e.lo
        # min(a.nd, b.nd) * a.bound * b.bound, with `_digits` inlined
        # as this runs once per pair product
        bound = ((min(a.val.bit_length() // a.k,
                      b.val.bit_length() // b.k) + 1)
                 * a.bound * b.bound)
        fac = _add_fac(c.dfac, e.dfac)
        g = groups.get(fac)
        if g is None:
            groups[fac] = [val, s, bound]
            continue
        low = g[1]
        if s >= low:
            g[0] += val << k * (s - low)
        else:
            g[0] = (g[0] << k * (low - s)) + val
            g[1] = s
        g[2] += bound
    return groups


_ZERO_COEF = QCoefficient(_ZERO_POLY)
_ONE_COEF = QCoefficient(_ONE_POLY)


class ExactField:
    """The exact coefficient ring R = Z[q, q^-1][(1 - q^(2m))^-1] with q a
    formal variable (the default)."""

    name = "exact"

    @staticmethod
    def zero():
        return _ZERO_COEF

    @staticmethod
    def one():
        return _ONE_COEF

    @staticmethod
    def pair_sum(triples):
        """Sum of c_d * c_e * q^j over (c_d, c_e, j) triples, the ring's
        only accumulation call: see the module docstring.

        The products are taken on the packed numerators as plain ints, at
        one digit width, and summed per denominator exponent vector with
        their q-powers aligned by shifts.  A lone nonzero group is the
        result; several are each lifted onto the common denominator once
        and summed.  The result's lo is the lowest q-power of its groups
        plus the numerator's q-order, shifted out of the digits.  A lone
        pair is one `mul_shifted`."""
        if len(triples) == 1:
            c, e, j = triples[0]
            return c.mul_shifted(e, j)
        k = _MIN_WIDTH
        for c, e, _ in triples:
            if c.num.k > k or e.num.k > k:
                k = max(c.num.k, e.num.k, k)
        groups = _pair_groups(triples, k)
        bound = max(g[2] for g in groups.values())
        if bound.bit_length() >= k:
            k = _width(bound)
            groups = _pair_groups(triples, k)
        groups = [(fac, g) for fac, g in groups.items() if g[0]]
        if not groups:
            return _ZERO_COEF
        if len(groups) == 1:
            (dfac, (val, lo, bound)), = groups
            num = Poly(val, bound, k)
        else:
            lo = min(g[1] for _, g in groups)
            dfac = _max_fac(fac for fac, _ in groups)
            num = _lift_sum(groups, lo, dfac, k)
            if not num.val:
                return _ZERO_COEF
        j = num.q_order()
        return QCoefficient(num.unshift(j) if j else num, lo + j, dfac)

    @staticmethod
    def psi_coefficient(n):
        """Series coefficient (-q)^n / (q^2; q^2)_n."""
        return QCoefficient(-_ONE_POLY if n % 2 else _ONE_POLY, n, (1,) * n)

    @staticmethod
    def psi_inverse_coefficient(n):
        """Series coefficient q^(n^2) / (q^2; q^2)_n of 1/Psi (Euler)."""
        return QCoefficient(_ONE_POLY, n * n, (1,) * n)

    def __eq__(self, other):
        return isinstance(other, ExactField)

    def __hash__(self):
        return hash("ExactField")


EXACT = ExactField()


_q0_powers = {}


def _q0_power(q0, j):
    """Fraction(q0) ** j, cached: the pair products of one check ask for
    the same few powers thousands of times."""
    p = _q0_powers.get((q0, j))
    if p is None:
        p = _q0_powers[q0, j] = Fraction(q0) ** j
    return p


class RationalQ:
    """Coefficient in Q obtained by fixing q at an exact rational point.

    Identity checks over this field are probabilistic: a residual can
    vanish at the chosen point without vanishing identically.
    """

    __slots__ = ("value", "q0")

    def __init__(self, value, q0):
        self.value = value if type(value) is Fraction else Fraction(value)
        self.q0 = q0

    def _lift(self, other):
        if isinstance(other, RationalQ):
            if other.q0 is not self.q0 and other.q0 != self.q0:
                raise ValueError("mixed rational evaluation points")
            return other.value
        raise TypeError(f"cannot combine RationalQ with {type(other).__name__}")

    def __add__(self, other):
        return RationalQ(self.value + self._lift(other), self.q0)

    def __sub__(self, other):
        return RationalQ(self.value - self._lift(other), self.q0)

    def __mul__(self, other):
        return RationalQ(self.value * self._lift(other), self.q0)

    def __neg__(self):
        return RationalQ(-self.value, self.q0)

    def mul_q_power(self, j):
        return RationalQ(self.value * _q0_power(self.q0, j), self.q0)

    # scale_int and __truediv__: see QCoefficient
    def scale_int(self, c):
        return RationalQ(self.value * c, self.q0)

    def inverse(self):
        return RationalQ(1 / self.value, self.q0)

    def __truediv__(self, other):
        return RationalQ(self.value / self._lift(other), self.q0)

    def is_zero(self):
        return not self.value

    def evaluate(self, q0=None):
        return self.value

    def canonical(self):
        return (self.value.numerator, self.value.denominator)

    def __eq__(self, other):
        return (isinstance(other, RationalQ) and other.q0 == self.q0
                and other.value == self.value)

    def __hash__(self):
        return hash((self.value, self.q0))

    def __repr__(self):
        return f"{self.value}"


class RationalPointField:
    """The field Q with q specialised to the rational number q0."""

    def __init__(self, q0):
        q0 = Fraction(q0)
        if abs(q0) == 1:
            raise ZeroDivisionError(
                "q-Pochhammer denominators vanish at |q0| = 1")
        if q0 == 0:
            raise ZeroDivisionError(
                "negative powers of q are undefined at q0 = 0")
        self.q0 = q0
        self.name = f"rational-point q0={q0} (probabilistic)"

    def zero(self):
        return RationalQ(0, self.q0)

    def one(self):
        return RationalQ(1, self.q0)

    def pair_sum(self, triples):
        """Sum of c_d * c_e * q0^j over (c_d, c_e, j) triples."""
        q0 = self.q0
        return RationalQ(sum((c.value * e.value * _q0_power(q0, j)
                              for c, e, j in triples), Fraction(0)), q0)

    def _qpochhammer(self, n):
        """(q0^2; q0^2)_n."""
        den = Fraction(1)
        for m in range(1, n + 1):
            den *= 1 - self.q0 ** (2 * m)
        return den

    def psi_coefficient(self, n):
        return RationalQ((-self.q0) ** n / self._qpochhammer(n), self.q0)

    def psi_inverse_coefficient(self, n):
        return RationalQ(self.q0 ** (n * n) / self._qpochhammer(n), self.q0)

    def __eq__(self, other):
        return isinstance(other, RationalPointField) and other.q0 == self.q0

    def __hash__(self):
        return hash(("RationalPointField", self.q0))


def _poly_str(coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mono = "q" if i == 1 else f"q^{i}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
    if not parts:
        return "0"
    s = parts[0]
    for p in parts[1:]:
        s += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
    return s


# ---- dense-tuple helpers: cyclotomic factors, for canonical


def _quotient(a, b):
    """a / b for trimmed coefficient tuples, b nonzero, or None if b does
    not divide a over Z."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    low = [(j, c) for j, c in enumerate(b[:db]) if c]
    out = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        t, r = divmod(a[i], lb)
        if r:
            return None
        if t:
            out[i - db] = t
            for j, c in low:
                a[i - db + j] -= t * c
    if any(a[:db]):
        return None
    while out and not out[-1]:
        out.pop()
    return tuple(out)


_cyclotomics = {}


def _cyclotomic(d) -> tuple:
    """Phi_d: q^d - 1 over the Phi_e of the proper divisors e of d."""
    p = _cyclotomics.get(d)
    if p is None:
        p = (-1,) + (0,) * (d - 1) + (1,)
        for e in range(1, d):
            if d % e == 0:
                p = _quotient(p, _cyclotomic(e))
        _cyclotomics[d] = p
    return p


def _strip_cyclotomic(p, d, most):
    """(p / Phi_d^k, k) for the largest k <= most with Phi_d^k | p."""
    phi = _cyclotomic(d)
    k = 0
    while k < most:
        quo = _quotient(p, phi)
        if quo is None:
            break
        p, k = quo, k + 1
    return p, k


def _cyclotomic_exponents(dfac) -> dict:
    """{d: E_d} with prod_m (1 - q^(2m))^(e_m) = +-prod Phi_d^(E_d):
    q^(2m) - 1 is the product of the Phi_d over d | 2m."""
    out = {}
    for m, e in enumerate(dfac, 1):
        for d in range(1, 2 * m + 1):
            if 2 * m % d == 0:
                out[d] = out.get(d, 0) + e
    return out
