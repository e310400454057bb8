"""Stationary-point construction for the semiclassical limit of a period.

The phase attached to a mutation period is a function of position
variables u(t) and momentum variables p(t) along the sequence; its
stationary points reproduce the classical y-trajectory, and the phase
value at the constructed stationary point is the signed Rogers sum of
the period, hence zero.  This module builds that solution explicitly,
checks every stationarity equation, evaluates the phase two ways, and
exposes the induced integer coordinate maps of a single mutation.

Two modes: "b" works with real u(1) and the positive real trajectory;
"lambda" deforms the exponent by a complex unit-like parameter with
Im(lambda^2) > 0 and small imaginary part, keeping all logarithms on
principal branches behind an explicit guard.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dilog import li2, rogers_L, rogers_L_complex
from .errors import BranchProximity
from .exchange import (ExchangeMatrix, MutationSchedule, _exchange_values,
                       _periodic_walk, _walk)

_GUARD = 1e-6


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


@dataclass(frozen=True)
class SaddleState:
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
    action: complex = 0.0

    @property
    def length(self) -> int:
        return len(self.yactive)


def build_solution(B: ExchangeMatrix, sched: MutationSchedule, u1,
                   mode: str = "b", lam=None,
                   max_im_lambda: float = 0.1) -> SaddleState:
    """Solve the stationarity system of a period in closed form.

    Steps: the initial u determines w(1) and hence the y-trajectory;
    the u-variables propagate by the half-logarithmic exchange rule;
    the momenta come from half-logarithms of the y-values, pulled back
    through the monomial maps.  Every stationarity equation then holds
    identically.
    """
    mats, _, signs, _, _ = _periodic_walk(B, sched)
    n, L = B.n, sched.length
    seq = sched.sequence
    if mode == "b":
        lam = 1.0
    elif mode == "lambda":
        if lam is None:
            raise ValueError("lambda-mode needs the deformation parameter")
        lam = complex(lam)
        if (lam * lam).imag <= 0:
            raise ValueError(f"lambda={lam} must satisfy Im(lambda^2) > 0")
        if abs(lam.imag) > max_im_lambda:
            raise BranchProximity(
                f"Im lambda = {lam.imag} exceeds the configured bound "
                f"{max_im_lambda}")
    else:
        raise ValueError(f"unknown mode {mode!r}")

    u1 = [float(x) for x in np.asarray(u1, dtype=float)]
    if len(u1) != n:
        raise ValueError(f"u1 must have length {n}")

    # (i) w(1) and the y-trajectory
    w1 = [sum(mats[0][j][i] * u1[j] for j in range(n)) for i in range(n)]
    y = [cmath.exp(2 * lam * w) if mode == "lambda" else math.exp(2 * w)
         for w in w1]
    ys = [list(y)]
    for t in range(L):
        ys.append(_exchange_values(ys[-1], mats[t][seq[t] - 1], seq[t] - 1))
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

    # w(t) from u(t)
    ws = [[sum(mats[t][j][i] * us[t][j] for j in range(n))
           for i in range(n)] for t in range(L)]

    # (iii) momenta: ptilde from half-logs of y, p by pulling back
    pts = [[_safe_log(ys[t][i], mode) / (2 * lam) for i in range(n)]
           for t in range(L)]
    # the closing constraint identifies ptilde(1) with w(1)
    for i in range(n):
        if abs(pts[0][i] - w1[i]) > 1e-9 * max(1.0, abs(w1[i])):
            raise BranchProximity(
                "half-logarithm of y(1) wrapped a branch; reduce |u1| or "
                "Im lambda")
    ps = [None] * L
    for t in range(L - 1):
        k = seq[t] - 1
        b = mats[t]
        eps = signs[t]
        row = [None] * n
        row[k] = -pts[t + 1][k]
        for i in range(n):
            if i != k:
                row[i] = pts[t + 1][i] + max(eps * b[k][i], 0) * pts[t + 1][k]
        ps[t] = row
    # t = L closes through nu onto ptilde(1) = w(1)
    k = seq[L - 1] - 1
    b = mats[L - 1]
    eps = signs[L - 1]
    nu_inv = [0] * n
    for i, v in enumerate(sched.nu):
        nu_inv[v - 1] = i
    row = [None] * n
    row[k] = -w1[nu_inv[k]]
    for j in range(n):
        if j != k:
            row[j] = w1[nu_inv[j]] + max(eps * b[k][j], 0) * w1[nu_inv[k]]
    ps[L - 1] = row

    tup = lambda rows: tuple(tuple(r) for r in rows)
    state = SaddleState(mode, lam, tup(us), tup(ps), tup(pts), tup(ws),
                        tup(ys), tuple(yactive), signs)
    value, _ = _evaluate_action(state)
    return dataclasses.replace(state, action=value)


@dataclass(frozen=True)
class SaddleReport:
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

    def to_json(self) -> dict:
        return {
            "residual_u_eqs": self.residual_u_eqs,
            "residual_p_eqs": self.residual_p_eqs,
            "residual_w_eqs": self.residual_w_eqs,
            "action": _c2j(self.action_value),
            "cross_check": _c2j(self.cross_check_value),
            "action_minus_cross_check": abs(self.action_value
                                            - self.cross_check_value),
        }


def _c2j(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _state_wy(state: SaddleState, B: ExchangeMatrix, sched: MutationSchedule):
    """w(t) recomputed from the state's u, and the active y from the
    momentum-position exponential."""
    n, L = B.n, sched.length
    mats = _walk(B, sched).rows
    lam = state.lam
    ws = [[sum(mats[t][j][i] * state.u[t][j] for j in range(n))
           for i in range(n)] for t in range(L)]
    yact = []
    for t in range(L):
        k = sched.sequence[t] - 1
        e = lam * (state.p[t][k] + ws[t][k])
        yact.append(cmath.exp(e) if state.mode == "lambda" else math.exp(e.real
                    if isinstance(e, complex) else e))
    return mats, ws, yact


def residuals(state: SaddleState, B: ExchangeMatrix,
              sched: MutationSchedule) -> SaddleReport:
    """Evaluate every stationarity equation at the state."""
    n, L = B.n, sched.length
    seq = sched.sequence
    lam = state.lam
    mats, ws, yact = _state_wy(state, B, sched)

    max_u = 0.0
    for t in range(L):
        k = seq[t] - 1
        b = mats[t]
        eps = state.signs[t]
        ya = yact[t] if eps > 0 else 1.0 / yact[t]
        lg = _safe_log(1.0 + ya, state.mode)
        for i in range(n):
            r = (state.p[t][i] - state.ptilde[t][i]
                 + b[k][i] * lg / (2 * lam))
            max_u = max(max_u, abs(r))

    max_p = 0.0
    for t in range(L - 1):
        k = seq[t] - 1
        b = mats[t]
        eps = state.signs[t]
        ya = yact[t] if eps > 0 else 1.0 / yact[t]
        lg = _safe_log(1.0 + ya, state.mode)
        for i in range(n):
            if i == k:
                r = (state.u[t][k] + state.u[t + 1][k]
                     - sum(max(eps * b[k][j], 0) * state.u[t + 1][j]
                           for j in range(n))
                     - lg / (2 * lam))
            else:
                r = state.u[t][i] - state.u[t + 1][i]
            max_p = max(max_p, abs(r))

    max_w = 0.0
    for t in range(L - 1):
        k = seq[t] - 1
        b = mats[t]
        eps = state.signs[t]
        ya = yact[t] if eps > 0 else 1.0 / yact[t]
        for i in range(n):
            lhs = cmath.exp(lam * ws[t + 1][i])
            if i == k:
                rhs = cmath.exp(lam * ws[t][k]) ** (-1)
            else:
                c = b[k][i]
                rhs = (cmath.exp(lam * ws[t][i])
                       * cmath.exp(lam * ws[t][k]) ** max(eps * c, 0)
                       * (1.0 + ya) ** (-c / 2.0))
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
    if B.n != len(state.u[0]) or sched.length != state.length:
        raise ValueError("state does not match the given seed and schedule")
    return _evaluate_action(state)


def _evaluate_action(state: SaddleState):
    n, L = len(state.u[0]), state.length
    lam = state.lam
    value = 0.0 + 0.0j
    cross = 0.0 + 0.0j
    for t in range(L):
        eps = state.signs[t]
        ya = state.yactive[t] if eps > 0 else 1.0 / state.yactive[t]
        if state.mode == "b":
            value += 0.5 * eps * li2(-ya.real if isinstance(ya, complex) else -ya)
            cross += -0.5 * eps * rogers_L(
                (ya / (1.0 + ya)).real if isinstance(ya, complex)
                else ya / (1.0 + ya))
        else:
            value += 0.5 * eps * li2(complex(-ya))
            cross += -0.5 * eps * rogers_L_complex(ya / (1.0 + ya))
        dot = sum(state.u[t][i] * (state.p[t][i] - state.ptilde[t][i])
                  for i in range(n))
        value += lam * lam * dot
    if state.mode == "b":
        return value.real, cross.real
    return value, cross


def newton_refine(state: SaddleState, B: ExchangeMatrix,
                  sched: MutationSchedule, h: float = 1e-6):
    """One Newton step on the stationarity system in the free variables
    (p(1..L-1), u(2..L)); returns the max-norm of the step.

    The constructed solution must be a stationary point, so the step
    must be negligible; this confirms stationarity independently of the
    construction.  The central-difference Jacobian comes from one batched
    residual: every scalar of the system is a row holding its value at x0
    and at x0 +- h e_j, with exp and log taken element by element by
    `math`, so each entry equals its unbatched value.
    """
    if state.mode != "b":
        raise ValueError("refinement is defined for the real mode")
    n, L = B.n, sched.length
    seq = sched.sequence
    mats = _walk(B, sched).rows
    signs = state.signs
    u1 = state.u[0]
    w1 = state.w[0]
    nu_inv = [0] * n
    for i, v in enumerate(sched.nu):
        nu_inv[v - 1] = i
    # p(L) is fixed by the closing constraint ptilde(1) = w(1)
    k = seq[L - 1] - 1
    b = mats[L - 1]
    pl = [w1[nu_inv[j]] + max(signs[L - 1] * b[k][j], 0) * w1[nu_inv[k]]
          for j in range(n)]
    pl[k] = -w1[nu_inv[k]]

    def emap(f, row):
        return np.array(list(map(f, row.tolist())))

    def residual_rows(x):
        ps = [list(x[t * n:(t + 1) * n]) for t in range(L - 1)] + [pl]
        us = [list(u1)] + [list(x[(L - 1 + t) * n:(L + t) * n])
                           for t in range(L - 1)]
        ws = [[sum(mats[t][j][i] * us[t][j] for j in range(n))
               for i in range(n)] for t in range(L)]
        # ptilde(t) for t >= 2 from the monomial map of p(t-1)
        pts = [list(w1)]
        for t in range(L - 1):
            k = seq[t] - 1
            b = mats[t]
            eps = signs[t]
            row = [0.0] * n
            row[k] = -ps[t][k]
            for i in range(n):
                if i != k:
                    row[i] = ps[t][i] + max(eps * b[k][i], 0) * ps[t][k]
            pts.append(row)
        yact = [emap(math.exp, ps[t][seq[t] - 1] + ws[t][seq[t] - 1])
                for t in range(L)]
        lgs = [emap(math.log, 1.0 + (yact[t] if signs[t] > 0
                                     else 1.0 / yact[t]))
               for t in range(L)]
        out = []
        for t in range(1, L):
            k = seq[t] - 1
            b = mats[t]
            for i in range(n):
                out.append(ps[t][i] - pts[t][i] + b[k][i] * lgs[t] / 2.0)
        for t in range(L - 1):
            k = seq[t] - 1
            b = mats[t]
            eps = signs[t]
            for i in range(n):
                if i == k:
                    out.append(us[t][k] + us[t + 1][k]
                               - sum(max(eps * b[k][j], 0) * us[t + 1][j]
                                     for j in range(n))
                               - lgs[t] / 2.0)
                else:
                    out.append(us[t][i] - us[t + 1][i])
        return np.array(out)

    x0 = np.array([state.p[t][i] for t in range(L - 1) for i in range(n)]
                  + [state.u[t][i] for t in range(1, L) for i in range(n)],
                  dtype=float)
    m = len(x0)
    col = x0[:, None]
    dx = h * np.eye(m)
    res = residual_rows(np.hstack([col, col + dx, col - dx]))
    jac = (res[:, 1:m + 1] - res[:, m + 1:]) / (2 * h)
    step = np.linalg.solve(jac, -res[:, 0])
    return float(np.max(np.abs(step)))


@dataclass(frozen=True)
class TransformSpec:
    """Integer matrices of the coordinate maps induced by one mutation:
    new = M @ old for each of u, p, w, D."""

    u_map: np.ndarray
    p_map: np.ndarray
    w_map: np.ndarray
    d_map: np.ndarray


def coordinate_maps(Bp: ExchangeMatrix, k: int, epsilon: int) -> TransformSpec:
    """The affine-integer transformations of the u, p, w, D coordinates
    under mutation at k with decomposition sign epsilon.

    The u-map and the w-map are dual: u'^T M_u^T M_w w' = u'^T w'.
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    kk = Bp.check_index(k)
    n = Bp.n
    b = Bp.entries
    u_map = np.eye(n, dtype=np.int64)
    u_map[kk, kk] = -1
    for j in range(n):
        if j != kk:
            u_map[kk, j] = max(-epsilon * int(b[j, kk]), 0)
    cov = np.eye(n, dtype=np.int64)
    cov[kk, kk] = -1
    for i in range(n):
        if i != kk:
            cov[i, kk] = max(epsilon * int(b[kk, i]), 0)
    return TransformSpec(u_map, cov.copy(), cov.copy(), cov.copy())
