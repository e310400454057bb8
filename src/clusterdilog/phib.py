"""Faddeev's noncompact quantum dilogarithm.

Defined inside the strip |Im z| < |Im c_b| by a contour integral over
the real line that circles the origin from above; continued outside by
the recurrence in steps of i*b, or of i/b when |b| > 1.  The pole at the
origin is integrated in closed form, so for real b and z the integral is
imaginary and Phi_b is unimodular by construction.  The rest is a Taylor
series on [0, r] and the tails, where each half e^(+-2izx) of sin(2zx)
runs from r on a ray towards its steepest descent, turned at most half
way to the nearest pole ray, over Gauss-Legendre panels that triple in
width; a 16-point rule beside the 32-point one estimates the error.  For
Im b^2 > 0, Phi_b is also a ratio of two compact q-dilogarithm products.
"""

from __future__ import annotations

import cmath
import functools
import math

from .dilog import PI2_6, _bernoulli, li2, log_psiq_numeric
from .errors import QuadratureFailure
from .exchange import _Frozen, _set


@functools.cache
def _tables():
    """numpy; the nodes of the 32- and 16-point Gauss-Legendre rules side by
    side, shifted by 2, with a matrix whose two columns weigh them; and, for
    `_head`, the coefficients in t^2 of t/sinh(t) and of sin(t)/t through
    t^16 with the odd reciprocals; loaded on the first quadrature rather
    than at import."""
    import numpy as np
    t = np.array([float((2 - 4**n) * _bernoulli(2 * n) / math.factorial(2 * n))
                  for n in range(9)])
    sinc = np.array([(-1) ** n / math.factorial(2 * n + 1) for n in range(9)])
    (x32, w32), (x16, w16) = (np.polynomial.legendre.leggauss(n)
                              for n in (32, 16))
    weights = np.zeros((48, 2), complex)
    weights[:32, 0], weights[32:, 1] = w32, w16
    return (np, np.concatenate((x32, x16)) + 2.0, weights, t, sinc,
            1.0 / np.arange(1, 17, 2))


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


def _head(z, b, r) -> complex:
    """Integral over [0, r] of the contour integrand at x and -x plus 4iz/x^2,
    -(4iz/x^2) (sinc(2zx) T(bx) T(x/b) - 1), T(t) = t/sinh(t), term by
    term in (x/r)^2."""
    np, _, _, t, sinc, odd = _tables()
    n = np.arange(len(t))
    series = np.convolve(t * (b * r) ** (2 * n), t * (r / b) ** (2 * n))
    series = np.convolve(series[:len(t)], sinc * (2 * z * r) ** (2 * n))
    return -4j * z / r * (series[1:len(t)] @ odd)


def _log_phib_strip(z, p: PhibParams, tol: float):
    """-1/4 of the contour integral, for z strictly inside the strip.

    The pole at 0 contributes -i pi z^2 / 2 - i pi s / 24, s = b^2 + b^-2,
    in closed form; the regular rest is the series head on [0, r], the
    tails from r on and 4iz/r, the integral of the subtracted 4iz/x^2."""
    b = p.b if p.b.real > 0 else -p.b  # the integrand is even under b -> -b
    rate = (b + 1.0 / b).real - 2.0 * abs(z.imag)
    if not (rate > 0 and cmath.isfinite(z)):
        raise QuadratureFailure(
            f"z={z} is not a finite point of the integrable strip for b={b}")
    m = min(abs(b), 1.0 / abs(b))
    floor = math.pi / 24 * (m * m + 1.0 / m / m) * 2.0**-53
    if not floor <= 100 * tol:  # the rounding of s alone misses the budget
        raise QuadratureFailure(
            f"b={b}: pi s / 24 rounds off by {floor:.2e}", floor)
    # a tenth of the radius of T(bx) T(x/b), and |2zr| <= 1, where the sinc
    # series misses under 1e-17; each ray carries about 1/(2 r^2) that cancels
    r = 0.1 * min(math.pi * m, 5.0 / max(abs(z), 1e-300))
    # the half of sin(2zx) = (e^(2izx) - e^(-2izx)) / 2i with e^(+-2izx)
    # decays like e^(-wx), w = b + 1/b -+ 2iz; turned at most half way to
    # the nearest pole ray i pi k / b or i pi k b, its ray passes no pole
    clip = 0.25 * math.pi - 0.5 * abs(cmath.phase(b))
    w = [b + 1.0 / b - 2j * z, b + 1.0 / b + 2j * z]
    turn = [cmath.exp(1j * max(-clip, min(clip, -cmath.phase(v)))) for v in w]
    decay = min((v * u).real for v, u in zip(w, turn))
    # panels triple in width from [0, r], so each lies as far from the pole
    # at 0 as it is wide, out to r (3^n - 1) / 2 = 40 / decay
    panels = (math.log(80.0 + r * decay) - math.log(r)
              - math.log(decay)) / math.log(3)
    if not math.isfinite(panels):  # 2z overflows a float
        raise QuadratureFailure(f"no panels reach the tails at z={z}")
    np, nodes, weights = _tables()[:3]
    # a vanishing decay or a huge z overflows 3^k or underflows x expm1 expm1:
    # the inf or NaN that follows is refused below, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grow = 3.0 ** np.arange(math.ceil(panels))
        # panel k: t = r (3^k (2 + node) - 1) / 2, dt = r 3^k dnode / 2; the
        # half with e^(+-2izx) is -+4 e^(-wx) / (x expm1(-2bx) expm1(-2x/b))
        x = r + np.array(turn)[:, None, None] * (
            0.5 * r * (grow[:, None] * nodes - 1.0))
        f = np.exp(-np.array(w)[:, None, None] * x) / (
            x * np.expm1(-2.0 * b * x) * np.expm1(-2.0 * x / b))
        plus, minus = (grow @ (f @ weights)).tolist()
    tails, coarse = (-2.0 * r * (turn[0] * a - turn[1] * c)
                     for a, c in zip(plus, minus))
    # abs() of a NaN can raise a stale libm ERANGE as OverflowError
    if not (cmath.isfinite(tails) and cmath.isfinite(coarse)):
        raise QuadratureFailure(f"tail sums are not finite at z={z}")
    achieved = abs(tails - coarse)
    if not achieved <= 100 * tol:
        raise QuadratureFailure(
            f"tail quadrature error {achieved:.2e} above budget", achieved)
    s = b * b + 1.0 / (b * b)
    return (-0.5j * math.pi * z * z - 1j * math.pi * s / 24
            - 0.25 * (_head(z, b, r) + tails + 4j * z / r))


def phib(z, p: PhibParams, tol: float = 1e-8) -> complex:
    """Evaluate Phi_b(z), reducing into the strip by the recurrence
    Phi_b(w + i s) = (1 + q_s e^(2 pi s w)) Phi_b(w) when needed.

    The step s is b, with q_s = q, for |b| <= 1, and 1/b, with q_s =
    q_dual, for |b| > 1 (Phi_b = Phi_{1/b}): the shorter of the two is
    under the strip's height, so the last step lands in the half-strip."""
    z = complex(z)
    b = p.b if p.b.real > 0 else -p.b
    s, q = (b, p.q) if abs(b) <= 1 else (1.0 / b, p.q_dual)
    thresh = 0.5 * p.strip_height
    prefactor = 1.0 + 0.0j
    guard = 0
    while z.imag > thresh:
        z = z - 1j * s
        prefactor *= 1.0 + q * cmath.exp(2 * math.pi * s * z)
        guard += 1
        if guard > 500:
            raise QuadratureFailure("recurrence reduction did not terminate")
    while z.imag < -thresh:
        z = z + 1j * s
        prefactor /= 1.0 + cmath.exp(2 * math.pi * s * z) / q
        guard += 1
        if guard > 500:
            raise QuadratureFailure("recurrence reduction did not terminate")
    log_value = _log_phib_strip(z, p, tol)
    try:
        return prefactor * cmath.exp(log_value)
    except OverflowError:
        raise QuadratureFailure(
            f"|Phi_b(z)| = exp({log_value.real:.6g}) at z={z} is beyond "
            "double range") from None


def log_phib(z, p: PhibParams, tol: float = 1e-8) -> complex:
    """log Phi_b(z) for z inside the strip (no recurrence reduction)."""
    if abs(complex(z).imag) >= 0.5 * p.strip_height:
        raise ValueError("log_phib requires z well inside the strip")
    return _log_phib_strip(complex(z), p, tol)


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
