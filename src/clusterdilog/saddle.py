"""Stationary-point construction for the semiclassical limit of a period.

The phase attached to a mutation period is a function of position
variables u(t) and momentum variables p(t) along the sequence; its
stationary points reproduce the classical y-trajectory, and the phase
value at the constructed stationary point is the signed Rogers sum of
the period, hence zero.

The stationarity system is written once, as four private rules: w(t) =
B(t)^T u(t) (`_w`); the momentum map between p(t) and ptilde(t+1), an
involution (`_momentum_map`); the closing row p(L) (`_closing_row`);
and the equations from varying u(t) and p(t) (`_equations`, which takes
exp and log as arguments).  `build_solution` solves the system in
closed form, `residuals` evaluates it on scalars, `newton_refine` on
jets, values carrying sparse gradients, for an exact Jacobian, and
`coordinate_maps` is the momentum map and its transpose as integer
matrices.  `action` is the one evaluation of the phase; `residuals`
reports its value.

Two modes: "b" works with real u(1) and the positive real trajectory;
"lambda" deforms the exponent by a complex unit-like parameter with
Im(lambda^2) > 0 and small imaginary part, keeping all logarithms on
principal branches behind an explicit guard.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .dilog import li2, rogers_L, rogers_L_complex
from .errors import BranchProximity, OutOfRange
from .exchange import (ExchangeMatrix, MutationSchedule, _units, _walk,
                       _y_path, require_period)

_GUARD = 1e-6
_MAX_IM_LAMBDA = 0.1  # lambda-mode keeps Im lambda within this


def _safe_log(z, mode):
    if mode == "b":
        return math.log(z)
    z = complex(z)
    dist = abs(z.imag) if z.real <= 0 else abs(z)
    if dist < _GUARD:
        raise BranchProximity(f"log argument {z} within {_GUARD} of the cut")
    return cmath.log(z)


def matrices_along(B: ExchangeMatrix, sequence):
    """B(t) for t = 1..L+1 along a mutation sequence."""
    walk = _walk(B, MutationSchedule.identity_nu(sequence, B.n))
    return [ExchangeMatrix(rows) for rows in walk.rows]


def _w(b, u):
    """w = B^T u for the rows b of B."""
    return [sum(b[j][i] * u[j] for j in range(len(u))) for i in range(len(u))]


def _momentum_map(b, k, eps, v):
    """v_k -> -v_k, v_i -> v_i + [eps b_ki]_+ v_k: the involution taking
    ptilde(t+1) to p(t) and back."""
    return [v[i] + max(eps * b[k][i], 0) * v[k] if i != k else -v[k]
            for i in range(len(v))]


def _closing_row(mats, sched: MutationSchedule, signs, w1):
    """p(L), fixed by the closing constraint: ptilde(L+1) relabelled
    through nu is ptilde(1) = w(1)."""
    v = [None] * len(w1)
    for i, j in enumerate(sched.nu):
        v[j - 1] = w1[i]
    L = sched.length
    return _momentum_map(mats[L - 1], sched.sequence[L - 1] - 1,
                         signs[L - 1], v)


def _equations(mats, seq, signs, lam, us, ps, pts, exp, log, first=1):
    """The stationarity system at (u, p, ptilde), with exp and log given;
    exp takes p_k + w_k to the active y, e^(lam (p_k + w_k)).

    Returns w(t), the active y^eps(t) and the residual rows per t: from
    varying u(t) (t = first..L) and from varying p(t) (t = 1..L-1).
    """
    n, L = len(us[0]), len(us)
    ws = [_w(mats[t], us[t]) for t in range(L)]
    ya = []
    for t in range(L):
        y = exp(ps[t][seq[t] - 1] + ws[t][seq[t] - 1])
        ya.append(y if signs[t] > 0 else 1.0 / y)
    lgs = [log(1.0 + a) for a in ya]
    u_eqs = []
    for t in range(first - 1, L):
        b, k = mats[t], seq[t] - 1
        u_eqs.append([ps[t][i] - pts[t][i] + b[k][i] * lgs[t] / (2 * lam)
                      for i in range(n)])
    p_eqs = []
    for t in range(L - 1):
        b, k = mats[t], seq[t] - 1
        rk = (us[t][k] + us[t + 1][k]
              - sum(max(signs[t] * b[k][j], 0) * us[t + 1][j]
                    for j in range(n))
              - lgs[t] / (2 * lam))
        p_eqs.append([us[t][i] - us[t + 1][i] if i != k else rk
                      for i in range(n)])
    return ws, ya, u_eqs, p_eqs


class SaddleState(NamedTuple):
    """Constructed stationary point of the phase of a period.

    Arrays are indexed [t-1][i-1] for t = 1..L; `ys` additionally holds
    the closing seed t = L+1.  In lambda-mode all entries are complex.
    """

    mode: str
    lam: complex
    u: tuple
    p: tuple
    ptilde: tuple
    w: tuple
    ys: tuple
    yactive: tuple
    signs: tuple

    @property
    def length(self) -> int:
        return len(self.yactive)


def build_solution(B: ExchangeMatrix, sched: MutationSchedule, u1,
                   mode: str = "b", lam=None) -> SaddleState:
    """Solve the stationarity system of a period in closed form.

    Steps: the initial u determines w(1) and hence the y-trajectory;
    the u-variables propagate by the half-logarithmic exchange rule;
    the momenta come from half-logarithms of the y-values, pulled back
    through the monomial maps.  Every stationarity equation then holds
    identically.
    """
    mats, _, signs, _, _ = require_period(B, sched)
    n, L = B.n, sched.length
    seq = sched.sequence
    if L == 0:
        raise ValueError("the empty period has no phase to make stationary")
    if mode == "b":
        lam = 1.0
    elif mode == "lambda":
        if lam is None:
            raise ValueError("lambda-mode needs the deformation parameter")
        lam = complex(lam)
        if not cmath.isfinite(lam):
            raise ValueError(f"lambda={lam} must be finite")
        if (lam * lam).imag <= 0:
            raise ValueError(f"lambda={lam} must satisfy Im(lambda^2) > 0")
        if abs(lam.imag) > _MAX_IM_LAMBDA:
            raise BranchProximity(
                f"Im lambda = {lam.imag} exceeds the configured bound "
                f"{_MAX_IM_LAMBDA}")
    else:
        raise ValueError(f"unknown mode {mode!r}")

    u1 = [float(x) for x in u1]
    if len(u1) != n:
        raise ValueError(f"u1 must have length {n}")

    # (i) w(1) and the y-trajectory
    w1 = _w(mats[0], u1)
    y = []
    for i, w in enumerate(w1, 1):
        try:
            y.append(cmath.exp(2 * lam * w) if mode == "lambda"
                     else math.exp(2 * w))
        except OverflowError:
            raise OutOfRange(f"t = 1, index {i}: y = exp({2 * w}) "
                             "overflows") from None
    ys = _y_path(mats, seq, y)
    yactive = [ys[t][seq[t] - 1] for t in range(L)]

    # (ii) u(t) by the half-logarithmic exchange rule
    us = [list(u1)]
    for t in range(L - 1):
        k = seq[t] - 1
        b = mats[t]
        eps = signs[t]
        ya = yactive[t] if eps > 0 else 1.0 / yactive[t]
        cur = us[-1]
        nxt = list(cur)
        nxt[k] = (-cur[k]
                  + sum(max(eps * b[k][j], 0) * cur[j]
                        for j in range(n) if j != k)
                  + _safe_log(1.0 + ya, mode) / (2 * lam))
        us.append(nxt)

    ws = [w1] + [_w(mats[t], us[t]) for t in range(1, L)]

    # (iii) momenta: ptilde from half-logs of y, p by pulling back
    pts = [[_safe_log(ys[t][i], mode) / (2 * lam) for i in range(n)]
           for t in range(L)]
    # the closing constraint identifies ptilde(1) with w(1)
    for i in range(n):
        if abs(pts[0][i] - w1[i]) > 1e-9 * max(1.0, abs(w1[i])):
            raise BranchProximity(
                "half-logarithm of y(1) wrapped a branch; reduce |u1| or "
                "Im lambda")
    ps = [_momentum_map(mats[t], seq[t] - 1, signs[t], pts[t + 1])
          for t in range(L - 1)] + [_closing_row(mats, sched, signs, w1)]

    tup = lambda rows: tuple(tuple(r) for r in rows)
    return SaddleState(mode, lam, tup(us), tup(ps), tup(pts), tup(ws),
                       tup(ys), tuple(yactive), signs)


class SaddleReport(NamedTuple):
    """Max-norm residuals of the stationarity system plus the phase value.

    residual_u_eqs: equations from varying u(t) (momentum-difference
    relations); residual_p_eqs: equations from varying p(t) (the u
    propagation rules); residual_w_eqs: the induced w relations.
    """

    residual_u_eqs: float
    residual_p_eqs: float
    residual_w_eqs: float
    action_value: complex
    cross_check_value: complex

    @property
    def max_residual(self) -> float:
        return max(self.residual_u_eqs, self.residual_p_eqs,
                   self.residual_w_eqs)


def _max_abs(rows):
    return max([0.0] + [abs(r) for row in rows for r in row])


def _require_match(state: SaddleState, B: ExchangeMatrix,
                   sched: MutationSchedule) -> None:
    if B.n != len(state.u[0]) or sched.length != state.length:
        raise ValueError("state does not match the given seed and schedule")


def residuals(state: SaddleState, B: ExchangeMatrix,
              sched: MutationSchedule) -> SaddleReport:
    """Evaluate every stationarity equation at the state."""
    _require_match(state, B, sched)
    n, L = B.n, sched.length
    seq = sched.sequence
    lam = state.lam
    mats = _walk(B, sched).rows
    exp = cmath.exp if state.mode == "lambda" else math.exp
    ws, yas, u_eqs, p_eqs = _equations(
        mats, seq, state.signs, lam, state.u, state.p, state.ptilde,
        lambda x: exp(lam * x), lambda z: _safe_log(z, state.mode))
    max_u = _max_abs(u_eqs)
    max_p = _max_abs(p_eqs)

    max_w = 0.0
    for t in range(L - 1):
        k = seq[t] - 1
        b = mats[t]
        eps = state.signs[t]
        for i in range(n):
            lhs = cmath.exp(lam * ws[t + 1][i])
            if i == k:
                rhs = cmath.exp(lam * ws[t][k]) ** (-1)
            else:
                c = b[k][i]
                rhs = (cmath.exp(lam * ws[t][i])
                       * cmath.exp(lam * ws[t][k]) ** max(eps * c, 0)
                       * (1.0 + yas[t]) ** (-c / 2.0))
            max_w = max(max_w, abs(lhs - rhs) / max(1.0, abs(rhs)))

    value, cross = action(state, B, sched)
    return SaddleReport(max_u, max_p, max_w, value, cross)


def action(state: SaddleState, B: ExchangeMatrix,
           sched: MutationSchedule):
    """Phase value at the state and its closed-form cross-check.

    value = sum_t [ (1/2) eps_t li2(-y_a^eps) + lam^2 sum_i u_i (p_i - pt_i) ],
    cross = -(1/2) sum_t eps_t L(y_a^eps / (1 + y_a^eps)); both vanish
    on a period.
    """
    _require_match(state, B, sched)
    n, L = B.n, sched.length
    lam = state.lam
    value = 0.0 + 0.0j
    cross = 0.0 + 0.0j
    for t in range(L):
        eps = state.signs[t]
        ya = state.yactive[t] if eps > 0 else 1.0 / state.yactive[t]
        if state.mode == "b":
            value += 0.5 * eps * li2(-ya)
            cross += -0.5 * eps * rogers_L(ya / (1.0 + ya))
        else:
            value += 0.5 * eps * li2(complex(-ya))
            cross += -0.5 * eps * rogers_L_complex(ya / (1.0 + ya))
        dot = sum(state.u[t][i] * (state.p[t][i] - state.ptilde[t][i])
                  for i in range(n))
        value += lam * lam * dot
    if state.mode == "b":
        return value.real, cross.real
    return value, cross


class _Jet:
    """A value with its gradient, a sparse dict {variable: partial
    derivative}: forward-mode differentiation through the arithmetic of
    `_equations` and `_momentum_map`, where jets add and subtract, scale
    by numbers and divide a number.  Numbers are constants; a product
    with 0 is the plain float it equals, so gradients hold only the
    variables a value depends on.  The value is computed as on floats, so
    it is the scalar value bit for bit.  No gradient dict is changed once
    built, so jets share them."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, o):
        if type(o) is not _Jet:
            return _Jet(self.v + o, self.d)
        d = dict(self.d)
        for k, x in o.d.items():
            d[k] = d.get(k, 0.0) + x
        return _Jet(self.v + o.v, d)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not _Jet:
            return _Jet(self.v - o, self.d)
        d = dict(self.d)
        for k, x in o.d.items():
            d[k] = d.get(k, 0.0) - x
        return _Jet(self.v - o.v, d)

    def __rsub__(self, o):
        return _Jet(o - self.v, {k: -x for k, x in self.d.items()})

    def __neg__(self):
        return _Jet(-self.v, {k: -x for k, x in self.d.items()})

    def __mul__(self, o):
        if o == 0:
            return self.v * o
        return _Jet(self.v * o, {k: o * x for k, x in self.d.items()})

    __rmul__ = __mul__

    def __truediv__(self, o):
        return _Jet(self.v / o, {k: x / o for k, x in self.d.items()})

    def __rtruediv__(self, o):
        v = o / self.v
        f = -v / self.v
        return _Jet(v, {k: f * x for k, x in self.d.items()})


def _jet_exp(a):
    if type(a) is not _Jet:
        return math.exp(a)
    e = math.exp(a.v)
    return _Jet(e, {k: e * x for k, x in a.d.items()})


def _jet_log(a):
    if type(a) is not _Jet:
        return math.log(a)
    return _Jet(math.log(a.v), {k: x / a.v for k, x in a.d.items()})


def _solve(rows, rhs):
    """x with sum_k rows[i][k] x[k] = rhs[i] for every i, the rows sparse
    dicts {column: entry} of a square matrix: Gaussian elimination with
    partial pivoting, column by column, the pivot the entry of largest
    magnitude among the rows not yet pivots.  The rows and rhs are
    overwritten.  A singular matrix raises ValueError."""
    m = len(rows)
    holding = [set() for _ in range(m)]     # rows not yet pivots, by column
    for i, row in enumerate(rows):
        for k in row:
            holding[k].add(i)
    order = []
    for j in range(m):
        below = holding[j]
        p = max(below, key=lambda i: abs(rows[i][j]), default=None)
        piv = 0.0 if p is None else rows[p][j]
        if not 0.0 < abs(piv) < math.inf:
            raise ValueError("the Newton Jacobian is singular or not finite")
        order.append(p)
        prow = rows[p]
        for k in prow:
            holding[k].discard(p)
        rest = [(k, x) for k, x in prow.items() if k != j]
        for i in below:
            row = rows[i]
            f = row.pop(j) / piv
            rhs[i] -= f * rhs[p]
            for k, x in rest:
                if k in row:
                    row[k] -= f * x
                else:
                    row[k] = -f * x
                    holding[k].add(i)
    x = [0.0] * m
    for j in range(m - 1, -1, -1):
        row = rows[order[j]]
        x[j] = (rhs[order[j]] - sum(a * x[k] for k, a in row.items()
                                     if k != j)) / row[j]
    return x


def _newton_system(state: SaddleState, B: ExchangeMatrix,
                   sched: MutationSchedule):
    """(rows, rhs): the exact Jacobian J of the stationarity system in the
    free variables (p(1..L-1), u(2..L)), as sparse rows {column: entry},
    and -F, F the system's value at the state.

    `_equations` runs once on jets that carry the free variables, with
    the jets' exp and log, so every row comes with its gradient.
    """
    _require_match(state, B, sched)
    if state.mode != "b":
        raise ValueError("refinement is defined for the real mode")
    n, L = B.n, sched.length
    seq = sched.sequence
    mats = _walk(B, sched).rows
    signs = state.signs
    w1 = state.w[0]
    x0 = ([state.p[t][i] for t in range(L - 1) for i in range(n)]
          + [state.u[t][i] for t in range(1, L) for i in range(n)])
    x = [_Jet(v, {j: 1.0}) for j, v in enumerate(x0)]
    ps = ([x[t * n:(t + 1) * n] for t in range(L - 1)]
          + [_closing_row(mats, sched, signs, w1)])
    us = [state.u[0]] + [x[(L - 1 + t) * n:(L + t) * n] for t in range(L - 1)]
    # ptilde(t) for t >= 2 from the momentum map of p(t-1)
    pts = [w1] + [_momentum_map(mats[t], seq[t] - 1, signs[t], ps[t])
                  for t in range(L - 1)]
    # u(1) is not free, so the equations of varying it drop out
    _, _, u_eqs, p_eqs = _equations(mats, seq, signs, 1.0, us, ps, pts,
                                    _jet_exp, _jet_log, first=2)
    eqs = [r for rows in u_eqs + p_eqs for r in rows]
    return ([dict(r.d) if type(r) is _Jet else {} for r in eqs],
            [-(r.v if type(r) is _Jet else r) for r in eqs])


def newton_refine(state: SaddleState, B: ExchangeMatrix,
                  sched: MutationSchedule):
    """One Newton step on the stationarity system in the free variables
    (p(1..L-1), u(2..L)); returns the max-norm of the step.

    The constructed solution must be a stationary point, so the step
    must be negligible; this confirms stationarity independently of the
    construction.  The Jacobian is exact (`_newton_system`), and the
    step solves J s = -F by sparse elimination (`_solve`).
    """
    step = _solve(*_newton_system(state, B, sched))
    # max() passes over a NaN that is not first; a NaN step must show
    return math.nan if any(map(math.isnan, step)) else max(map(abs, step))


class TransformSpec(NamedTuple):
    """Integer matrices of the coordinate maps induced by one mutation, as
    rows of Python ints: new = M @ old for u and w.  The momenta p and the
    D-coordinates transform as w does, by `w_map`."""

    u_map: tuple
    w_map: tuple


def coordinate_maps(Bp: ExchangeMatrix, k: int, epsilon: int) -> TransformSpec:
    """The affine-integer transformations of the u, p, w, D coordinates
    under mutation at k with decomposition sign epsilon.

    The w-map is the momentum map, an involution, and the u-map is its
    transpose, so the two are dual: u'^T M_u^T M_w w' = u'^T w'.
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    kk = Bp.check_index(k)
    # row j of the u-map is the momentum map's image of e_j
    u_map = tuple(tuple(_momentum_map(Bp.rows, kk, epsilon, e))
                  for e in _units(Bp.n))
    return TransformSpec(u_map, tuple(zip(*u_map)))
