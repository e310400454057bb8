"""Faddeev's noncompact quantum dilogarithm.

Defined inside the strip |Im z| < |Im c_b| by a contour integral over the
real line that passes above the origin; continued outside by the
recurrence in steps of i*b, or of i/b when |b| > 1.  The integral is taken
on the line R + ih, clear of the origin and half way up to the lowest
poles; for Re z > 0, where e^(-2izw) grows on that line, the reflection
formula gives the value from Phi_b(-z).  From ih one ray runs right and
one left, each turned towards its steepest descent but at most half way
to the nearest pole, over Gauss-Legendre panels that grow geometrically;
a 16-point rule beside the 32-point one estimates the error.  For real b
and z only the imaginary part is kept, so Phi_b is unimodular by
construction, and Phi_b(0) = e^(-i pi s/24), s = b^2 + b^-2, is taken in
closed form.  For Im b^2 > 0, Phi_b is also a ratio of two compact
q-dilogarithm products.
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
def _tables():
    """numpy; the nodes of the 32- and 16-point Gauss-Legendre rules side by
    side, with a matrix whose two columns weigh them; loaded on the first
    quadrature rather than at import."""
    import numpy as np
    (x32, w32), (x16, w16) = (np.polynomial.legendre.leggauss(n)
                              for n in (32, 16))
    weights = np.zeros((48, 2), complex)
    weights[:32, 0], weights[32:, 1] = w32, w16
    return np, np.concatenate((x32, x16)), weights


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
    np, nodes, weights = _tables()
    # an extreme b or z can overflow a factor: the inf or NaN that
    # follows is refused below, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grow = (1.0 + g1) ** np.arange(math.ceil(panels))
        # panel k: y - y(0) = step ((1 + g1)^k (1 + g1 (1 + node) / 2) - 1)
        # / g1, dy = step (1 + g1)^k dnode / 2
        t = (grow[:, None] * (1.0 + 0.5 * g1 * (1.0 + nodes)) - 1.0) / g1
        y = np.array([1j * h, -1j * h])[:, None, None] + (
            np.array(step)[:, None, None] * t)
        f = np.exp(-np.array(w)[:, None, None] * y) / (
            y * np.expm1(-2.0 * b * y) * np.expm1(-2.0 * y / b))
        right, left = (grow @ (f @ weights)).tolist()
    value, coarse = (-0.5 * (step[0] * a - step[1] * c)
                     for a, c in zip(right, left))
    # abs() of a NaN can raise a stale libm ERANGE as OverflowError
    if not (cmath.isfinite(value) and cmath.isfinite(coarse)):
        raise QuadratureFailure(f"ray sums are not finite at z={z}")
    achieved = abs(value - coarse)
    if not achieved <= 100 * _TOL:
        raise QuadratureFailure(
            f"ray quadrature error {achieved:.2e} above budget", achieved)
    if reflect:
        value = -1j * shift - value
    if b.imag == 0 and z.imag == 0:
        # Phi_b is unimodular: the two rays mirror each other node by node,
        # and this keeps the sum imaginary in whatever order numpy adds
        value = 1j * value.imag
    return value


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
