"""Faddeev's noncompact quantum dilogarithm.

Defined inside the strip |Im z| < |Im c_b| by a contour integral over the
real line that passes above the origin; continued outside by the
recurrence in steps of i*b, or of i/b when |b| > 1.  The integral is taken
on the line R + ih, clear of the origin and half way up to the lowest
poles; for Re z > 0, where e^(-2izw) grows on that line, the reflection
formula gives the value from Phi_b(-z).  From ih one ray runs right and
one left, each turned towards its steepest descent but at most half way
to the nearest pole, over panels that grow geometrically.  Each panel
takes a 16-point Gauss-Legendre rule, and a null rule on the same nodes
(Berntsen-Espelid) estimates its error; where the estimates add up to
more than a tenth of the budget, the rays are summed again with the
32-point rule, and its distance from the 16-point sum is the error.  For
real b and z the left ray is the right one's conjugate, node by node, so
only one is summed, and Phi_b is unimodular by construction.  Phi_b(0) =
e^(-i pi s/24), s = b^2 + b^-2, is taken in closed form.  For Im b^2 > 0,
Phi_b is also a ratio of two compact q-dilogarithm products.  The module
uses only cmath and math.
"""

from __future__ import annotations

import cmath
import functools
import math

from .dilog import PI2_6, li2, log_psiq_numeric
from .errors import QuadratureFailure
from .exchange import _Frozen, _set

_MAX_PANELS = 4096
_TOL = 1e-8  # a quadrature or rounding error above 100 * _TOL is refused


@functools.cache
def _rule(n: int) -> tuple:
    """The n-point Gauss-Legendre rule on [-1, 1], n even, as (offset,
    weight, null weight) triples: nodes x ascending, each given by its
    offset 1 + x from the left end.  The positive nodes are the roots of
    P_n that Newton's method finds from cos(pi (i + 3/4) / (n + 1/2)),
    mirrored; each weight is 2 / ((1 - x^2) P_n'(x)^2).  The null weights
    w (P_{n-1} + P_{n-2}), scaled to the weights' norm, pick out the top
    two Legendre coefficients of the interpolant, so they integrate every
    polynomial of degree below n - 2 to zero: a null rule (Berntsen and
    Espelid, ACM TOMS 17, 1991)."""
    half = []
    for i in range(n // 2):  # the positive roots, largest first
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, p1, p2 = _legendre(n, x)
            dx = p * (x * x - 1.0) / (n * (x * p - p1))
            x -= dx
            if abs(dx) <= 1e-16:
                break
        p, p1, p2 = _legendre(n, x)
        dp = n * (x * p - p1) / (x * x - 1.0)
        half.append((x, 2.0 / ((1.0 - x * x) * dp * dp), p1, p2))
    # P_{n-1} is odd and P_{n-2} even
    rule = [(-x, w, w * (p2 - p1)) for x, w, p1, p2 in half]
    rule += [(x, w, w * (p1 + p2)) for x, w, p1, p2 in reversed(half)]
    norm = math.sqrt(math.fsum(w * w for _, w, _ in rule)
                     / math.fsum(t * t for _, _, t in rule))
    return tuple((1.0 + x, w, norm * t) for x, w, t in rule)


def _legendre(n: int, x: float) -> tuple:
    """P_n(x), P_{n-1}(x) and P_{n-2}(x) by the three-term recurrence."""
    p2, p1, p = 0.0, 0.0, 1.0
    for k in range(1, n + 1):
        p2, p1, p = p1, p, ((2 * k - 1) * x * p - (k - 1) * p1) / k
    return p, p1, p2


class PhibParams(_Frozen):
    """Parameter b with its derived constants, recomputed on access."""

    __slots__ = ("b",)

    def __init__(self, b: complex):
        b = complex(b)
        if b.real == 0.0 or not cmath.isfinite(b):
            raise ValueError("b must be finite with nonzero real part")
        _set(self, "b", b)

    @property
    def c_b(self) -> complex:
        return 0.5j * (self.b + 1.0 / self.b)

    @property
    def q(self) -> complex:
        return cmath.exp(1j * math.pi * self.b * self.b)

    @property
    def q_dual(self) -> complex:
        return cmath.exp(1j * math.pi / (self.b * self.b))

    @property
    def q_bar(self) -> complex:
        return cmath.exp(-1j * math.pi / (self.b * self.b))

    @property
    def strip_height(self) -> float:
        return abs(self.c_b.imag)


def _log_phib_strip(z, p: PhibParams):
    """-1/4 of the contour integral, for z strictly inside the strip, taken
    on the line R + ih half way up to the lowest poles i pi b and i pi / b.

    On that line e^(-2izw) has size e^(2h Re z), so for Re z > 0 the value
    comes from the reflection Phi_b(z) Phi_b(-z) = e^(-i pi (s/12 + z^2)),
    s = b^2 + b^-2."""
    b = p.b if p.b.real > 0 else -p.b  # the integrand is even under b -> -b
    rate = (b + 1.0 / b).real - 2.0 * abs(z.imag)
    if not (rate > 0 and cmath.isfinite(z)):
        raise QuadratureFailure(
            f"z={z} is not a finite point of the integrable strip for b={b}")
    m = min(abs(b), 1.0 / abs(b))
    floor = math.pi / 24 * (m * m + 1.0 / m / m) * 2.0**-53
    if not floor <= 100 * _TOL:  # the rounding of s alone misses the budget
        raise QuadratureFailure(
            f"b={b}: pi s / 24 rounds off by {floor:.2e}", floor)
    s = b * b + 1.0 / (b * b)
    if z == 0:  # the reflection at z = 0: Phi_b(0)^2 = e^(-i pi s / 12)
        return -1j * math.pi * s / 24
    reflect = z.real > 0
    if reflect:
        shift = math.pi * (s / 12 + z * z)
        rounding = abs(shift) * 2.0**-53
        if not rounding <= 100 * _TOL:
            raise QuadratureFailure(
                f"pi (s/12 + z^2) at z={z} " + (
                    f"rounds off by {rounding:.2e}" if math.isfinite(rounding)
                    else "is not finite"), rounding)
    x = -z if reflect else z  # the point integrated
    # the poles i pi k b and i pi k / b, k >= 1, stand at heights k H; seen
    # from ih, each lies at least 2 clip above the horizontal, and the
    # origin and the poles below lie further below it
    tan_b = abs(b.imag) / b.real
    heights = (math.pi * b.real, math.pi * b.real / abs(b) ** 2)
    h = 0.5 * min(heights)
    clip = 0.5 * min(math.atan2(H - h, H * tan_b) for H in heights)
    # on the ray from ih to the right the integrand is 4 e^(-wy) /
    # (y expm1(-2by) expm1(-2y/b)) with w = b + 1/b + 2ix; on the ray to
    # the left it is minus that at y = -(the contour point), with
    # w = b + 1/b - 2ix; each ray turns towards the steepest descent of
    # e^(-wy), by at most clip
    w = [b + 1.0 / b + 2j * x, b + 1.0 / b - 2j * x]
    turn = [cmath.exp(1j * max(-clip, min(clip, -cmath.phase(v)))) for v in w]
    # each ray's first panel, no wider than h or one oscillation; the
    # panels after it grow by 1 + g1, so each lies about as far from the
    # poles as it is wide, out to 40 decay lengths
    step = [u * min(h, 1.0 / abs(v)) for v, u in zip(w, turn)]
    g1 = 2.0 * math.sin(clip)
    panels = max(math.log1p(40.0 * g1 / (v * d).real)
                 for v, d in zip(w, step)) / math.log1p(g1)
    if not panels <= _MAX_PANELS:
        raise QuadratureFailure(f"the rays need {panels:.3g} panels at z={z} "
                                f"for b={b}")
    count = math.ceil(panels)
    mirror = b.imag == 0 and x.imag == 0
    rays = list(zip((1j * h, -1j * h), step, w))[:1 if mirror else 2]

    def integral(rule):  # the left ray's sum minus the right one's
        sums, estimate = _rays(rule, rays, count, g1, b)
        if mirror:  # the left ray is the right one's conjugate
            return -2j * sums[0].imag, 2.0 * estimate
        return sums[1] - sums[0], estimate

    try:
        value, achieved = integral(_rule(16))
        if achieved > 10 * _TOL:
            coarse, (value, _) = value, integral(_rule(32))
            achieved = abs(value - coarse)
    except (OverflowError, ValueError, ZeroDivisionError):
        value = achieved = math.nan  # an extreme b or z overflows a factor
    if not (cmath.isfinite(value) and math.isfinite(achieved)):
        raise QuadratureFailure(f"ray sums are not finite at z={z}")
    if not achieved <= 100 * _TOL:
        raise QuadratureFailure(
            f"ray quadrature error {achieved:.2e} above budget", achieved)
    if reflect:
        value = -1j * shift - value
    return value


def _rays(rule, rays, count, g1, b) -> tuple:
    """The integral of e^(-wy) / (y expm1(-2by) expm1(-2y/b)) along each
    ray (start, step, w) over count panels, the k-th from start + step
    ((1 + g1)^k - 1) / g1 to the next; and the sum over every panel of
    its null rule's absolute value.  Each panel takes its nodes from its left end, so
    neighbours share their end points exactly: near the poles a gap of
    one ulp between panels, times the integrand there, would cost more
    than the rule's own error."""
    mb, mbi = -2.0 * b, -2.0 / b
    small = min(abs(mb), abs(mbi))
    exp = cmath.exp
    sums, estimate = [], 0.0
    for start, step, w in rays:
        mw = -w
        total = 0j
        left = start
        for k in range(1, count + 1):
            right = start + step * (((1.0 + g1) ** k - 1.0) / g1)
            c = 0.5 * (right - left)  # dy / dnode
            g = n = 0j
            if small * (abs(left + c) - abs(c)) < 0.5:
                # |2by| or |2y/b| may fall below 0.5 on the panel, where
                # e^u - 1 would cancel: expm1 by parts
                for t, wg, wn in rule:
                    y = left + c * t
                    f = exp(mw * y) / (y * _expm1(mb * y) * _expm1(mbi * y))
                    g += f * wg
                    n += f * wn
            else:
                for t, wg, wn in rule:
                    y = left + c * t
                    f = exp(mw * y) / (
                        y * (exp(mb * y) - 1.0) * (exp(mbi * y) - 1.0))
                    g += f * wg
                    n += f * wn
            total += c * g
            estimate += abs(c * n)
            left = right
        sums.append(total)
    return sums, estimate


def _expm1(u: complex) -> complex:
    """e^u - 1 without the cancellation of e^u near 1."""
    x, y = u.real, u.imag
    s = math.sin(0.5 * y)
    return complex(math.expm1(x) * math.cos(y) - 2.0 * s * s,
                   math.exp(x) * math.sin(y))


def phib(z, p: PhibParams) -> complex:
    """Evaluate Phi_b(z), reducing into the strip by the recurrence
    Phi_b(w + i s) = (1 + q_s e^(2 pi s w)) Phi_b(w) when needed.

    The step s is b, with q_s = q, for |b| <= 1, and 1/b, with q_s =
    q_dual, for |b| > 1 (Phi_b = Phi_{1/b}): the shorter of the two is
    under the strip's height, so the last step lands in the half-strip."""
    z0 = z = complex(z)
    b = p.b if p.b.real > 0 else -p.b
    s, q = (b, p.q) if abs(b) <= 1 else (1.0 / b, p.q_dual)
    thresh = 0.5 * p.strip_height
    prefactor = 1.0 + 0.0j
    steps = 0
    for up in (False, True):    # down while above the half-strip, then up
        while z.imag < -thresh if up else z.imag > thresh:
            steps += 1
            if steps > 500:
                raise QuadratureFailure("recurrence reduction did not terminate")
            try:
                if up:
                    z = z + 1j * s
                    prefactor /= 1.0 + cmath.exp(2 * math.pi * s * z) / q
                else:
                    z = z - 1j * s
                    prefactor *= 1.0 + q * cmath.exp(2 * math.pi * s * z)
            except (OverflowError, ValueError):  # ValueError: inf phase
                raise QuadratureFailure(f"a recurrence factor at z={z0} is "
                                        "beyond double range") from None
    log_value = _log_phib_strip(z, p)
    try:
        return prefactor * cmath.exp(log_value)
    except OverflowError:
        raise QuadratureFailure(
            f"|Phi_b(z)| = exp({log_value.real:.6g}) at z={z} is beyond "
            "double range") from None


def log_phib(z, p: PhibParams) -> complex:
    """log Phi_b(z) for z inside the strip (no recurrence reduction)."""
    if abs(complex(z).imag) >= 0.5 * p.strip_height:
        raise ValueError("log_phib requires z well inside the strip")
    return _log_phib_strip(complex(z), p)


def unitarity_residual(z: float, p: PhibParams) -> float:
    """| |Phi_b(z)| - 1 | for real z; zero when b is real or |b| = 1."""
    return abs(abs(phib(z, p)) - 1.0)


def recurrence_residual(z, p: PhibParams, dual: bool = False) -> float:
    """Relative deviation of Phi_b(z + i s/2) / Phi_b(z - i s/2) from
    1 + e^(2 pi s z), s = b (or 1/b in the dual direction): no step of
    phib's own reduction maps one point onto the other."""
    b = p.b if p.b.real > 0 else -p.b  # Phi_b = Phi_{-b}
    s = 1.0 / b if dual else b
    lhs = phib(z + 0.5j * s, p) / phib(z - 0.5j * s, p)
    rhs = 1.0 + cmath.exp(2 * math.pi * s * z)
    return abs(lhs - rhs) / abs(rhs)


def check_duality(z, b) -> tuple:
    """Residuals |Phi_b(z) - Phi_{1/b}(z)| and |Phi_b(z) - Phi_{-b}(z)|."""
    base = phib(z, PhibParams(b))
    inv = phib(z, PhibParams(1.0 / complex(b)))
    neg = phib(z, PhibParams(-complex(b)))
    return abs(base - inv), abs(base - neg)


def phipsi_residual(z, p: PhibParams) -> float:
    """Deviation of the integral from the compact product ratio
    Psi_q(e^(2 pi b z)) / Psi_qbar(e^(2 pi z / b)); needs Im b^2 > 0."""
    if (p.b * p.b).imag <= 0:
        raise ValueError("the product ratio requires Im b^2 > 0")
    lhs = phib(z, p)
    log_num = log_psiq_numeric(cmath.exp(2 * math.pi * p.b * z), p.q)
    log_den = log_psiq_numeric(cmath.exp(2 * math.pi * z / p.b), p.q_bar)
    rhs = cmath.exp(log_num - log_den)  # either product alone can overflow
    return abs(lhs - rhs) / abs(rhs)


def check_phib_asymptotics(z: float, b_values) -> list:
    """Rows (b, |2 pi b^2 i log Phi_b(z / 2 pi b) + li2(-e^z)|): the
    defect of the leading small-b behavior, which decays as b -> 0."""
    rows = []
    # past z = 700, e^z overflows: invert li2(-e^z) onto li2(-e^-z)
    target = (li2(-math.exp(z)) if z <= 700 else
              -PI2_6 - 0.5 * z * z - li2(-math.exp(-z)))
    for b in b_values:
        p = PhibParams(b)
        val = 2j * math.pi * b * b * log_phib(z / (2 * math.pi * b), p) + target
        rows.append((b, abs(val)))
    return rows
