"""Acceptance suite: one test per criterion, one printed verdict line each.

Run as `pytest tests/test_acceptance.py -v`; the PASS/FAIL lines are
written through to the terminal even under output capture.
"""

import cmath
import math
import sys
import time

import numpy as np
import pytest

from clusterdilog import qident, torus
from clusterdilog.dilog import (PI2_6, psiq_asymptotics,
                                verify_classical_identity)
from clusterdilog.exchange import (ExchangeMatrix, MutationSchedule, _step,
                                   _units, check_period, extend_schedule,
                                   mutate_matrix, numeric_trajectory,
                                   principal_extension, tropical_sign)
from clusterdilog.fixtures import builtin_seed
from clusterdilog.phib import (PhibParams, check_duality,
                               check_phib_asymptotics, phipsi_residual,
                               recurrence_residual, unitarity_residual)
from clusterdilog.qident import (initial_quantum_seed, quantum_mutate,
                                 quantum_trajectory, verify_dual_pair,
                                 verify_shuffle, verify_tropical_identity,
                                 verify_universal_identity)
from clusterdilog.saddle import (action, build_solution, newton_refine,
                                 residuals)
from clusterdilog.torus import invert, monomial, multiply, unit

A1, A1_SCHED = builtin_seed("A1")
A2, A2_SCHED = builtin_seed("A2")

# measured |action(lambda)| values sit at machine noise (~1e-16), far
# below the criterion's 1e-6; ordering below this floor is unresolvable
NOISE_FLOOR = 1e-12


def record(num, passed, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def test_criterion_01_classical_identity_a2():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_signed = worst_di = worst_dip = 0.0
    for _ in range(100):
        y0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=2))
        rep = verify_classical_identity(A2, A2_SCHED, y0)
        worst_signed = max(worst_signed, abs(rep.sum_signed))
        worst_di = max(worst_di, abs(rep.sum_di - 3 * PI2_6))
        worst_dip = max(worst_dip, abs(rep.sum_di_prime - 2 * PI2_6))
    elapsed = time.perf_counter() - t0
    ok = (worst_signed < 1e-10 and worst_di < 1e-10 and worst_dip < 1e-10
          and rep.n_minus == 3 and rep.n_plus == 2 and elapsed < 1.0)
    record(1, ok,
           f"signed<{worst_signed:.2e}, DI gap<{worst_di:.2e}, "
           f"DI' gap<{worst_dip:.2e}, {elapsed:.2f}s")


def test_criterion_02_tropical_pentagon_exact():
    t0 = time.perf_counter()
    rep = verify_tropical_identity(A2, A2_SCHED, 8)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rep.mode == "exact" and elapsed < 5.0
    record(2, ok, f"residual terms {len(rep.residual_terms)}, {elapsed:.2f}s")


def test_criterion_03_universal_form_exact():
    t0 = time.perf_counter()
    rep = verify_universal_identity(A2, A2_SCHED, 6)
    # symbolic check of the factor arguments at low degrees
    N = 6
    one = unit(A2, N)
    Y1 = monomial((1, 0), A2, N)
    Y2 = monomial((0, 1), A2, N)
    qp = lambda e, j: e.scale_q_power(j)
    _, actives, signs = quantum_trajectory(A2, A2_SCHED.sequence, N)
    args = [a if s > 0 else invert(a) for a, s in zip(actives, signs)]
    inner = torus.add(torus.add(one, qp(Y2, 1)), multiply(Y1, Y2))
    expected = [
        Y1,
        multiply(Y2, torus.add(one, qp(Y1, 1))),
        multiply(invert(inner), Y1),
        qp(multiply(invert(torus.add(one, qp(Y2, 1))), multiply(Y2, Y1)), 1),
        Y2,
    ]
    elapsed = time.perf_counter() - t0
    ok = rep.passed and args == expected and elapsed < 30.0
    record(3, ok, f"residual terms {len(rep.residual_terms)}, "
                  f"arguments match: {args == expected}, {elapsed:.2f}s")


def test_criterion_04_shuffle_formula():
    ok = True
    for t in range(2, 6):
        ok = ok and verify_shuffle(A2, A2_SCHED, t, 6).passed
    prefix = MutationSchedule.identity_nu((1, 2, 1), 2)
    ok = ok and verify_shuffle(A2, prefix, 3, 6).passed
    record(4, ok, "cuts 2..5 and non-periodic prefix (1,2,1), order 6, exact")


def test_criterion_05_dual_pair():
    r1, r2 = verify_dual_pair(A2, A2_SCHED, 6)
    ok = r1.passed and r2.passed
    record(5, ok, f"direct {r1.verdict}, reversed-dual {r2.verdict}, order 6")


def test_criterion_06_phib_properties():
    zs = np.linspace(-0.4, 0.4, 5)
    real_bs = (0.7, 1.0, 1.3)
    complex_bs = (cmath.exp(1j * math.pi / 5), cmath.exp(1j * math.pi / 7))
    worst = {"unitarity": 0.0, "recurrence": 0.0, "duality": 0.0, "phipsi": 0.0}
    for b in real_bs + complex_bs:
        p = PhibParams(b)
        for z in zs:
            z = float(z)
            if b in real_bs:
                worst["unitarity"] = max(worst["unitarity"],
                                         unitarity_residual(z, p))
            worst["recurrence"] = max(worst["recurrence"],
                                      recurrence_residual(z, p))
            r_inv, r_neg = check_duality(z, b)
            worst["duality"] = max(worst["duality"], r_inv, r_neg)
            if b in complex_bs:
                worst["phipsi"] = max(worst["phipsi"], phipsi_residual(z, p))
    ok = (worst["unitarity"] < 1e-8 and worst["recurrence"] < 1e-7
          and worst["duality"] < 1e-7 and worst["phipsi"] < 1e-6)
    record(6, ok, ", ".join(f"{k}<{v:.2e}" for k, v in worst.items()))


def test_criterion_07_semiclassical_asymptotics():
    ok = True
    detail = []
    for x in (0.5, 1.0, 2.0):
        vals = [v for _, v in psiq_asymptotics(x, [0.9, 0.95, 0.99, 0.999])]
        ok = ok and all(a > b for a, b in zip(vals, vals[1:]))
        detail.append(f"Psi(x={x}) {vals[0]:.1e}->{vals[-1]:.1e}")
    for z in (0.0, 1.0):
        vals = [v for _, v in check_phib_asymptotics(z, [0.5, 0.4, 0.3, 0.2])]
        ok = ok and all(a > b for a, b in zip(vals, vals[1:]))
        detail.append(f"Phi(z={z}) {vals[0]:.1e}->{vals[-1]:.1e}")
    record(7, ok, "monotone decay: " + ", ".join(detail))


def test_criterion_08_saddle_point():
    rng = np.random.default_rng(7)
    worst_res = worst_act = worst_gap = worst_step = 0.0
    for _ in range(50):
        u1 = rng.uniform(-2.0, 2.0, size=2)
        st = build_solution(A2, A2_SCHED, u1)
        rep = residuals(st, A2, A2_SCHED)
        worst_res = max(worst_res, rep.max_residual)
        worst_act = max(worst_act, abs(rep.action_value))
        worst_gap = max(worst_gap,
                        abs(rep.action_value - rep.cross_check_value))
        worst_step = max(worst_step, newton_refine(st, A2, A2_SCHED))
    ok = (worst_res < 1e-10 and worst_act < 1e-10 and worst_gap < 1e-12
          and worst_step < 1e-12)
    record(8, ok, f"stationarity<{worst_res:.2e}, |action|<{worst_act:.2e}, "
                  f"gap<{worst_gap:.2e}, newton<{worst_step:.2e}")


def test_criterion_09_lambda_deformation():
    ray = cmath.exp(1j * math.pi / 4)
    rng = np.random.default_rng(11)
    u1 = rng.uniform(-0.5, 0.5, size=2)
    vals = []
    for d in (0.1, 0.05, 0.01):
        st = build_solution(A2, A2_SCHED, u1, mode="lambda", lam=1 + d * ray)
        val, _ = action(st, A2, A2_SCHED)
        vals.append(abs(val))
    below = all(v < 1e-6 for v in vals)
    decreasing = (all(a >= b for a, b in zip(vals, vals[1:]))
                  or max(vals) < NOISE_FLOOR)
    record(9, below and decreasing,
           "|action| = " + ", ".join(f"{v:.2e}" for v in vals)
           + (" (at measurement noise floor)" if max(vals) < NOISE_FLOOR else ""))


def test_criterion_10_structural_properties():
    rng = np.random.default_rng(13)
    ok = True
    # mutation involution and sign-coherence on random data
    for _ in range(40):
        n = int(rng.integers(1, 5))
        raw = rng.integers(-3, 4, size=(n, n))
        B = ExchangeMatrix(np.triu(raw, 1) - np.triu(raw, 1).T)
        k = int(rng.integers(1, n + 1))
        ok = ok and mutate_matrix(mutate_matrix(B, k), k) == B
        rows, cols = B.rows, _units(n)
        for _ in range(12):
            kk = int(rng.integers(1, n + 1))
            tropical_sign(cols[kk - 1])  # raises on violation
            rows, cols, _ = _step(rows, cols, kk - 1)
    # epsilon-independence of the quantum exchange relation
    s = initial_quantum_seed(A2, 5)
    for k in A2_SCHED.sequence:
        plus = quantum_mutate(s, k, +1)
        minus = quantum_mutate(s, k, -1)
        ok = ok and all(plus.Y[i] == minus.Y[i] for i in range(2))
        s = plus
    # the A2 period survives principal extension
    ext, ext_sched = principal_extension(A2), extend_schedule(A2_SCHED, 2)
    ok = ok and check_period(ext, ext_sched).periodic
    ok = ok and verify_tropical_identity(ext, ext_sched, 5).passed
    # q = 1 degeneration matches the classical trajectory
    seeds, _, _ = quantum_trajectory(A2, A2_SCHED.sequence, 12)
    shadow = qident.classical_series_trajectory(A2, A2_SCHED.sequence, 12)
    for t in range(6):
        for i in range(2):
            ok = ok and (qident.degenerate_q1(seeds[t].Y[i])
                         == qident.degenerate_q1(shadow[t][1][i]))
    worst = 0.0
    for _ in range(20):
        y0 = rng.uniform(1e-3, 3e-2, size=2)
        traj = numeric_trajectory(A2, A2_SCHED.sequence, y0)
        for t in range(6):
            for i in range(2):
                approx = seeds[t].Y[i].evaluate_commutative(y0, 1)
                worst = max(worst,
                            abs(approx - traj[t].y[i]) / abs(traj[t].y[i]))
    ok = ok and worst < 1e-12
    record(10, ok, f"involution, sign-coherence, eps-independence, extension, "
                   f"q=1 degeneration (rel err < {worst:.2e})")
