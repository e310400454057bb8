"""Exact arithmetic in the field of rational functions of q.

Coefficients of quantum-torus elements live in Q(q).  Numerators are
integer polynomials stored packed into single Python integers (one
balanced base-2^K digit per coefficient), so polynomial addition and
multiplication become big-integer addition and multiplication, which
CPython does in C.  Denominators are kept factored as

    q^a * prod_m (1 - q^(2m))^{e_m} * (optional extra polynomial)

because every denominator arising from the q-exponential series and
from series inversion is built from these factors; keeping them
factored makes common denominators cheap and bounded.

Exactness is unconditional: all operations are ring operations on the
packed values.  The only representational hazard is a coefficient
outgrowing a balanced digit, which is prevented by per-value magnitude
bounds and on-demand renormalisation.
"""

from __future__ import annotations

from fractions import Fraction

_K = 192                       # bits per packed coefficient
_B = 1 << _K
_HALF = _B >> 1
_LIMIT = 1 << (_K - 8)         # renormalise when the bound crosses this
_DIGIT_BYTES = _K // 8

_offsets = {}


def _offset(nd):
    """sum_{i<nd} HALF * B^i, used to make packed values nonnegative."""
    off = _offsets.get(nd)
    if off is None:
        off = _HALF * ((_B**nd - 1) // (_B - 1))
        _offsets[nd] = off
    return off


class Poly:
    """Integer polynomial packed into one big integer.

    `val` is P(2^K); `nd` bounds the number of digits, `bound` the
    magnitude of every coefficient.  Immutable.
    """

    __slots__ = ("val", "nd", "bound")

    def __init__(self, val, nd, bound):
        if bound > _LIMIT:
            val, nd, bound = _renormalize(val, nd)
        self.val = val
        self.nd = nd
        self.bound = bound

    @staticmethod
    def from_coeffs(coeffs) -> "Poly":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        val = 0
        for c in reversed(coeffs):
            val = (val << _K) + c
        bound = max((abs(c) for c in coeffs), default=0)
        return Poly(val, len(coeffs), bound)

    @staticmethod
    def const(c) -> "Poly":
        return Poly(int(c), 1 if c else 0, abs(int(c)))

    def is_zero(self) -> bool:
        return self.val == 0

    def __add__(self, other):
        return Poly(self.val + other.val, max(self.nd, other.nd),
                    self.bound + other.bound)

    def __sub__(self, other):
        return Poly(self.val - other.val, max(self.nd, other.nd),
                    self.bound + other.bound)

    def __neg__(self):
        return Poly(-self.val, self.nd, self.bound)

    def __mul__(self, other):
        if self.val == 0 or other.val == 0:
            return _ZERO_POLY
        return Poly(self.val * other.val, self.nd + other.nd - 1,
                    min(self.nd, other.nd) * self.bound * other.bound)

    def scale(self, c: int) -> "Poly":
        if c == 0 or self.val == 0:
            return _ZERO_POLY
        return Poly(self.val * c, self.nd, self.bound * abs(c))

    def shift(self, j: int) -> "Poly":
        """Multiply by q^j (j >= 0)."""
        if self.val == 0:
            return self
        return Poly(self.val << (_K * j), self.nd + j, self.bound)

    def q_divisible(self, j: int = 1) -> bool:
        """True if q^j divides the polynomial."""
        return self.val & ((1 << (_K * j)) - 1) == 0

    def unshift(self, j: int) -> "Poly":
        """Exact division by q^j."""
        return Poly(self.val >> (_K * j), max(self.nd - j, 0), self.bound)

    def coeffs(self) -> tuple:
        """Decode to a coefficient tuple (constant term first)."""
        val, nd, _ = _renormalize(self.val, self.nd)
        return _decode(val, nd)

    def degree(self) -> int:
        c = self.coeffs()
        return len(c) - 1

    def __eq__(self, other):
        return isinstance(other, Poly) and self.val == other.val

    def __hash__(self):
        return hash(self.val)

    def evaluate(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs()):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Poly{list(self.coeffs())}"


def _decode(val, nd):
    """Balanced digits of a value known to fit in nd digits."""
    if nd == 0:
        return ()
    shifted = val + _offset(nd)
    raw = shifted.to_bytes(nd * _DIGIT_BYTES, "little")
    out = []
    for i in range(nd):
        d = int.from_bytes(raw[i * _DIGIT_BYTES:(i + 1) * _DIGIT_BYTES],
                           "little") - _HALF
        out.append(d)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _renormalize(val, nd):
    """Recompute the tight digit count and coefficient bound of a value."""
    if val == 0:
        return 0, 0, 0
    # grow nd until the balanced-digit decoding covers the value
    while val < -_offset(nd) or val > _B**nd - 1 - _offset(nd):
        nd += 1
    digits = _decode(val, nd)
    bound = max(abs(d) for d in digits)
    if bound > _LIMIT:
        raise OverflowError(
            "packed polynomial coefficient exceeded the digit capacity; "
            "increase the packing width")
    return val, len(digits), bound


_ZERO_POLY = Poly(0, 0, 0)
_ONE_POLY = Poly(1, 1, 1)

_factor_cache = {}


def _qfactor(m: int) -> Poly:
    """The basis factor 1 - q^(2m)."""
    f = _factor_cache.get(m)
    if f is None:
        coeffs = [0] * (2 * m + 1)
        coeffs[0] = 1
        coeffs[2 * m] = -1
        f = Poly.from_coeffs(coeffs)
        _factor_cache[m] = f
    return f


_fpow_cache = {}


def _qfactor_pow(m: int, e: int) -> Poly:
    key = (m, e)
    p = _fpow_cache.get(key)
    if p is None:
        if e == 0:
            p = _ONE_POLY
        else:
            p = _qfactor_pow(m, e - 1) * _qfactor(m)
        _fpow_cache[key] = p
    return p


def _den_product(dq, dfac, dext) -> Poly:
    p = _ONE_POLY.shift(dq) if dq else _ONE_POLY
    for m, e in dfac:
        p = p * _qfactor_pow(m, e)
    if dext is not None:
        p = p * dext
    return p


def _merge_fac(f1, f2, op):
    d = dict(f1)
    for m, e in f2:
        d[m] = op(d.get(m, 0), e)
    return tuple(sorted((m, e) for m, e in d.items() if e > 0))


def _fac_diff(big, small):
    """Exponent-wise difference big - small (assumed nonnegative)."""
    d = dict(big)
    for m, e in small:
        d[m] = d[m] - e
    return tuple(sorted((m, e) for m, e in d.items() if e > 0))


class QCoefficient:
    """An element of Q(q): packed integer-polynomial numerator over a
    factored denominator q^dq * prod (1-q^(2m))^e * ext."""

    __slots__ = ("num", "dq", "dfac", "dext")

    def __init__(self, num: Poly, dq: int = 0, dfac: tuple = (), dext=None):
        if num.is_zero():
            num, dq, dfac, dext = _ZERO_POLY, 0, (), None
        else:
            while dq > 0 and num.q_divisible():
                num = num.unshift(1)
                dq -= 1
            if dext is not None and dext == _ONE_POLY:
                dext = None
        self.num = num
        self.dq = dq
        self.dfac = dfac
        self.dext = dext

    # ---- constructors -------------------------------------------------

    @staticmethod
    def from_int(c: int) -> "QCoefficient":
        return QCoefficient(Poly.const(c))

    @staticmethod
    def q_power(j: int) -> "QCoefficient":
        """q^j for any integer j."""
        if j >= 0:
            return QCoefficient(_ONE_POLY.shift(j))
        return QCoefficient(_ONE_POLY, dq=-j)

    @staticmethod
    def from_poly(coeffs) -> "QCoefficient":
        return QCoefficient(Poly.from_coeffs(coeffs))

    @staticmethod
    def qpochhammer_inverse(n: int) -> "QCoefficient":
        """1 / (q^2; q^2)_n."""
        return QCoefficient(_ONE_POLY, dfac=tuple((m, 1) for m in range(1, n + 1)))

    # ---- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self == _ONE_COEF

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        dq = max(self.dq, other.dq)
        dfac = _merge_fac(self.dfac, other.dfac, max)
        if self.dext is None and other.dext is None:
            dext = None
            n1, n2 = self.num, other.num
        elif self.dext == other.dext:
            dext = self.dext
            n1, n2 = self.num, other.num
        else:
            e1 = self.dext if self.dext is not None else _ONE_POLY
            e2 = other.dext if other.dext is not None else _ONE_POLY
            dext = e1 * e2
            n1, n2 = self.num * e2, other.num * e1
        n1 = _lift(n1, dq - self.dq, _fac_diff(dfac, self.dfac))
        n2 = _lift(n2, dq - other.dq, _fac_diff(dfac, other.dfac))
        return QCoefficient(n1 + n2, dq, dfac, dext)

    def __neg__(self):
        return QCoefficient(-self.num, self.dq, self.dfac, self.dext)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return _ZERO_COEF
        if self.dext is None:
            dext = other.dext
        elif other.dext is None:
            dext = self.dext
        else:
            dext = self.dext * other.dext
        return QCoefficient(self.num * other.num, self.dq + other.dq,
                            _merge_fac(self.dfac, other.dfac,
                                       lambda a, b: a + b), dext)

    def mul_q_power(self, j: int) -> "QCoefficient":
        if j == 0 or self.is_zero():
            return self
        if j > 0:
            return QCoefficient(self.num.shift(j), self.dq, self.dfac, self.dext)
        return QCoefficient(self.num, self.dq - j, self.dfac, self.dext)

    def scale_int(self, c: int) -> "QCoefficient":
        return QCoefficient(self.num.scale(c), self.dq, self.dfac, self.dext)

    def inverse(self) -> "QCoefficient":
        """Multiplicative inverse; the numerator becomes the denominator."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        den = _den_product(self.dq, self.dfac, self.dext)
        num = self.num
        # pull monomial content of the old numerator back into dq
        j = 0
        while num.q_divisible() and not num.is_zero():
            num = num.unshift(1)
            j += 1
        c = num.coeffs()
        if len(c) == 1 and c[0] in (1, -1):
            # common fast path: old numerator was +-q^j
            return QCoefficient(den.scale(c[0]), dq=j)
        return QCoefficient(den, dq=j, dext=num)

    def __truediv__(self, other):
        return self * other.inverse()

    # ---- comparison ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QCoefficient):
            return NotImplemented
        if self.num.is_zero():
            return other.num.is_zero()
        lhs = self.num * _den_product(other.dq, other.dfac, other.dext)
        rhs = other.num * _den_product(self.dq, self.dfac, self.dext)
        return lhs == rhs

    def __hash__(self):
        num, den = self.canonical()
        return hash((num, den))

    # ---- presentation -------------------------------------------------

    def canonical(self) -> tuple:
        """Fully reduced (numerator, denominator) coefficient tuples.

        The fraction is gcd-reduced over Z[q], the integer contents are
        coprime, and the denominator's leading coefficient is positive.
        """
        num = list(self.num.coeffs())
        den = list(_den_product(self.dq, self.dfac, self.dext).coeffs())
        if not num:
            return (0,), (1,)
        g = poly_gcd(tuple(num), tuple(den))
        if len(g) > 1 or g[0] != 1:
            num = list(poly_exact_div(tuple(num), g))
            den = list(poly_exact_div(tuple(den), g))
        from math import gcd
        cn = 0
        for c in num:
            cn = gcd(cn, abs(c))
        cd = 0
        for c in den:
            cd = gcd(cd, abs(c))
        g0 = gcd(cn, cd)
        if g0 > 1:
            num = [c // g0 for c in num]
            den = [c // g0 for c in den]
        if den[-1] < 0:
            num = [-c for c in num]
            den = [-c for c in den]
        return tuple(num), tuple(den)

    @property
    def numerator(self) -> tuple:
        return self.canonical()[0]

    @property
    def denominator(self) -> tuple:
        return self.canonical()[1]

    def evaluate(self, q0) -> Fraction:
        """Exact evaluation at a rational point q0."""
        q0 = Fraction(q0)
        den = Fraction(1)
        if self.dq:
            den *= q0**self.dq
        for m, e in self.dfac:
            f = 1 - q0 ** (2 * m)
            if f == 0:
                raise ZeroDivisionError(f"denominator factor 1-q^{2*m} vanishes at q={q0}")
            den *= f**e
        if self.dext is not None:
            f = self.dext.evaluate(q0)
            if f == 0:
                raise ZeroDivisionError(f"denominator vanishes at q={q0}")
            den *= f
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q0}")
        return self.num.evaluate(q0) / den

    def __repr__(self):
        num, den = self.canonical()
        if den == (1,):
            return f"({_poly_str(num)})"
        return f"({_poly_str(num)})/({_poly_str(den)})"


def _lift(num: Poly, dq_extra: int, fac_extra: tuple) -> Poly:
    if dq_extra:
        num = num.shift(dq_extra)
    for m, e in fac_extra:
        num = num * _qfactor_pow(m, e)
    return num


_ZERO_COEF = QCoefficient(_ZERO_POLY)
_ONE_COEF = QCoefficient(_ONE_POLY)


def zero() -> QCoefficient:
    return _ZERO_COEF


def one() -> QCoefficient:
    return _ONE_COEF


class ExactField:
    """Coefficient field Q(q) with q a formal variable (the default)."""

    name = "exact"

    @staticmethod
    def zero():
        return _ZERO_COEF

    @staticmethod
    def one():
        return _ONE_COEF

    @staticmethod
    def from_int(c):
        return QCoefficient.from_int(c)

    @staticmethod
    def q_power(j):
        return QCoefficient.q_power(j)

    @staticmethod
    def psi_coefficient(n):
        """Series coefficient (-q)^n / (q^2; q^2)_n."""
        c = QCoefficient.q_power(n) * QCoefficient.qpochhammer_inverse(n)
        return c.scale_int(-1) if n % 2 else c

    @staticmethod
    def psi_inverse_coefficient(n):
        """Series coefficient q^(n^2) / (q^2; q^2)_n of 1/Psi (Euler)."""
        return QCoefficient.q_power(n * n) * QCoefficient.qpochhammer_inverse(n)

    def __eq__(self, other):
        return isinstance(other, ExactField)

    def __hash__(self):
        return hash("ExactField")


EXACT = ExactField()


class RationalQ:
    """Coefficient in Q obtained by fixing q at an exact rational point.

    Identity checks over this field are probabilistic: a residual can
    vanish at the chosen point without vanishing identically.
    """

    __slots__ = ("value", "q0")

    def __init__(self, value, q0):
        self.value = Fraction(value)
        self.q0 = q0

    def _lift(self, other):
        if isinstance(other, RationalQ):
            if other.q0 != self.q0:
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
        return RationalQ(self.value * Fraction(self.q0) ** j, self.q0)

    def scale_int(self, c):
        return RationalQ(self.value * c, self.q0)

    def inverse(self):
        return RationalQ(1 / self.value, self.q0)

    def __truediv__(self, other):
        return RationalQ(self.value / self._lift(other), self.q0)

    def is_zero(self):
        return self.value == 0

    def is_one(self):
        return self.value == 1

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
        self.q0 = q0
        self.name = f"rational-point q0={q0} (probabilistic)"

    def zero(self):
        return RationalQ(0, self.q0)

    def one(self):
        return RationalQ(1, self.q0)

    def from_int(self, c):
        return RationalQ(c, self.q0)

    def q_power(self, j):
        return RationalQ(Fraction(self.q0) ** j, self.q0)

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


# ---- classical dense-tuple helpers (canonicalisation only) ------------


def poly_trim(p) -> tuple:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_exact_div(a, b) -> tuple:
    """Quotient of a by b, assuming the division is exact over Z."""
    a = list(poly_trim(a))
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = len(b) - 1, b[-1]
    out = [0] * (max(len(a) - db, 0))
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c % lb != 0:
            raise ValueError("division is not exact")
        t = c // lb
        out[i - db] = t
        for j in range(db + 1):
            a[i - db + j] -= t * b[j]
    if any(a):
        raise ValueError("division is not exact")
    return poly_trim(out) or (0,)


def _content(p) -> int:
    from math import gcd
    c = 0
    for x in p:
        c = gcd(c, abs(x))
    return c


def _primitive(p) -> tuple:
    c = _content(p)
    if c <= 1:
        return poly_trim(p)
    return tuple(x // c for x in poly_trim(p))


def _pseudo_rem(a, b) -> tuple:
    """Pseudo-remainder of a by b over Z."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        a = poly_trim(a)
        if not a or len(a) - 1 < db:
            break
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for j in range(db + 1):
            a[shift + j] -= la * b[j]
        a = list(poly_trim(a))
    return poly_trim(a)


def poly_gcd(a, b) -> tuple:
    """Primitive gcd of two integer polynomials (positive leading coeff)."""
    a, b = poly_trim(a), poly_trim(b)
    if not a:
        g = _primitive(b)
    elif not b:
        g = _primitive(a)
    else:
        a, b = _primitive(a), _primitive(b)
        while b:
            r = _pseudo_rem(a, b)
            a, b = b, _primitive(r)
        g = a
    if not g:
        return (1,)
    if g[-1] < 0:
        g = tuple(-c for c in g)
    return g
