import cmath
import math
import sys

import numpy as np
import pytest

from clusterdilog.errors import BranchProximity, NotAPeriod
from clusterdilog.exchange import (ExchangeMatrix, MutationSchedule,
                                   extend_schedule, principal_extension)
from clusterdilog.fixtures import builtin_seed
from clusterdilog.saddle import (
    _newton_system,
    _solve,
    action,
    build_solution,
    coordinate_maps,
    matrices_along,
    newton_refine,
    residuals,
)

A1, A1_SCHED = builtin_seed("A1")
A2, A2_SCHED = builtin_seed("A2")
A2P, A2P_SCHED = builtin_seed("A2-principal")

LAMBDA_RAY = cmath.exp(1j * math.pi / 4)


def lam_at(d):
    return 1 + d * LAMBDA_RAY


class TestBuildSolution:
    def test_a2_at_origin(self):
        st = build_solution(A2, A2_SCHED, [0.0, 0.0])
        assert st.w[0] == (0.0, 0.0)
        assert st.ys[0] == (1.0, 1.0)
        assert st.yactive == (1.0, 2.0, 3.0, 2.0, 1.0)
        assert st.ptilde[0] == (0.0, 0.0)
        assert st.u[1][0] == pytest.approx(0.5 * math.log(2), abs=1e-15)

    def test_structural_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            st = build_solution(A2, A2_SCHED, rng.uniform(-2, 2, size=2))
            # closing constraint and active-momentum agreement
            for i in range(2):
                assert st.ptilde[0][i] == pytest.approx(st.w[0][i], abs=1e-14)
            for t in range(5):
                k = A2_SCHED.sequence[t] - 1
                assert st.p[t][k] == pytest.approx(st.ptilde[t][k], abs=1e-14)
            # half-exponent convention: e^(2 w_i(t)) = y_i(t)
            for t in range(5):
                for i in range(2):
                    assert math.exp(2 * st.w[t][i]) == pytest.approx(
                        st.ys[t][i], rel=1e-10)

    def test_rejects_empty_period(self):
        with pytest.raises(ValueError, match="empty period"):
            build_solution(A2, MutationSchedule.identity_nu((), 2), [0, 0])

    def test_rejects_non_period(self):
        with pytest.raises(NotAPeriod):
            build_solution(A2, MutationSchedule.identity_nu((1, 2), 2), [0, 0])


class TestResiduals:
    def test_stationarity_on_random_draws(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            st = build_solution(A2, A2_SCHED, rng.uniform(-2, 2, size=2))
            rep = residuals(st, A2, A2_SCHED)
            assert rep.max_residual < 1e-10
            assert abs(rep.action_value) < 1e-10
            assert abs(rep.action_value - rep.cross_check_value) < 1e-12

    def test_perturbation_is_detected(self):
        st = build_solution(A2, A2_SCHED, [0.3, -0.7])
        u = [list(r) for r in st.u]
        u[1][1] += 0.1
        pert = st._replace(u=tuple(tuple(r) for r in u))
        rep = residuals(pert, A2, A2_SCHED)
        assert rep.residual_p_eqs > 1e-3

    def test_a1_all_tiny(self):
        st = build_solution(A1, A1_SCHED, [0.8])
        rep = residuals(st, A1, A1_SCHED)
        assert rep.max_residual < 1e-12
        assert rep.action_value == pytest.approx(0.0, abs=1e-14)

    def test_principal_extension(self):
        rng = np.random.default_rng(2)
        ext, ext_sched = principal_extension(A2), extend_schedule(A2_SCHED, 2)
        for _ in range(10):
            st = build_solution(ext, ext_sched, rng.uniform(-1.5, 1.5, size=4))
            rep = residuals(st, ext, ext_sched)
            assert rep.max_residual < 1e-10
            assert abs(rep.action_value) < 1e-10

    def test_rank3_source_sequence(self):
        rng = np.random.default_rng(6)
        A3 = ExchangeMatrix(np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))
        sched = MutationSchedule((1, 2, 1, 3, 2, 1, 3, 2, 1), (3, 2, 1))
        for _ in range(10):
            st = build_solution(A3, sched, rng.uniform(-1.5, 1.5, size=3))
            rep = residuals(st, A3, sched)
            assert rep.max_residual < 1e-10
            assert abs(rep.action_value) < 1e-10
            assert abs(rep.action_value - rep.cross_check_value) < 1e-12
        assert newton_refine(st, A3, sched) < 1e-12


class TestAction:
    def test_a1_exact_zero(self):
        st = build_solution(A1, A1_SCHED, [1.7])
        val, cross = action(st, A1, A1_SCHED)
        assert val == pytest.approx(0.0, abs=1e-14)
        assert cross == pytest.approx(0.0, abs=1e-14)

    def test_a2_vanishes_and_matches_cross_check(self):
        st = build_solution(A2, A2_SCHED, [0.0, 0.0])
        val, cross = action(st, A2, A2_SCHED)
        assert abs(val) < 1e-12
        assert abs(val - cross) < 1e-12


class TestStateMatch:
    """A state built on another seed is refused with the same ValueError
    by each function that reads it along a seed and schedule, before any
    index into it runs out of range.  A1 differs from A2 in rank and
    length, A2-principal in rank only."""

    @pytest.mark.parametrize("fn", [residuals, newton_refine, action],
                             ids=["residuals", "newton_refine", "action"])
    @pytest.mark.parametrize("name", ["A1", "A2-principal"])
    def test_state_of_another_seed(self, fn, name):
        st = build_solution(A2, A2_SCHED, [0.3, -0.7])
        B, sched = builtin_seed(name)
        with pytest.raises(ValueError,
                           match="state does not match the given seed"):
            fn(st, B, sched)


class TestNewton:
    def test_step_is_negligible_at_solution(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            st = build_solution(A2, A2_SCHED, rng.uniform(-2, 2, size=2))
            assert newton_refine(st, A2, A2_SCHED) < 1e-12

    def test_step_moves_perturbed_point(self):
        st = build_solution(A2, A2_SCHED, [0.3, -0.7])
        u = [list(r) for r in st.u]
        u[1][0] += 1e-4
        pert = st._replace(u=tuple(tuple(r) for r in u))
        assert newton_refine(pert, A2, A2_SCHED) > 1e-6

    def test_nan_step_shows(self):
        """w_1(1) reaches only the closing row's p_2(L), which enters the
        system additively: F is NaN in one row, the Jacobian is finite,
        and the step's NaN must not be passed over as small."""
        st = build_solution(A2, A2_SCHED, [0.3, -0.7])
        pert = st._replace(w=((math.nan, st.w[0][1]),) + st.w[1:])
        assert math.isnan(newton_refine(pert, A2, A2_SCHED))

    def test_disconnected_seed(self):
        """On A1 x A1, B = 0, the last time step's active y depends on no
        free variable, so exp and log also meet plain floats."""
        B = ExchangeMatrix([[0, 0], [0, 0]])
        sched = MutationSchedule((1, 1, 2, 2), (1, 2))
        st = build_solution(B, sched, [0.3, -0.5])
        assert newton_refine(st, B, sched) < 1e-12
        p = [list(r) for r in st.p]
        p[0][0] += 1e-4
        pert = st._replace(p=tuple(tuple(r) for r in p))
        assert abs(newton_refine(pert, B, sched) - 1e-4) < 1e-7


H = 1e-6     # the central-difference step of the reference Jacobian
# its rounding, eps |F| / h with |F| of order 1, with a margin of 100,
# and its truncation error, of order h^2
JAC_TOL = 100 * sys.float_info.epsilon / H + H * H


def reference_system(state, B, sched, h=H):
    """The stationarity system at the state as a scalar loop with B(t)
    read from matrices_along: its value F and its Jacobian, built one
    central-difference column at a time."""
    n, L, seq, signs = B.n, sched.length, sched.sequence, state.signs
    b = [m.entries for m in matrices_along(B, seq)]
    u1, w1 = state.u[0], state.w[0]
    nu_inv = [sched.nu.index(v) for v in range(1, n + 1)]
    pos = lambda a: max(int(a), 0)

    def residual(x):
        ps = [list(x[t * n:(t + 1) * n]) for t in range(L - 1)]
        us = [list(u1)] + [list(x[(L - 1 + t) * n:(L + t) * n])
                           for t in range(L - 1)]
        k = seq[L - 1] - 1
        pl = [w1[nu_inv[j]] + pos(signs[L - 1] * b[L - 1][k, j]) * w1[nu_inv[k]]
              for j in range(n)]
        pl[k] = -w1[nu_inv[k]]
        ps.append(pl)
        ws = [[sum(int(b[t][j, i]) * us[t][j] for j in range(n))
               for i in range(n)] for t in range(L)]
        pts = [list(w1)]
        for t in range(L - 1):
            k = seq[t] - 1
            row = [ps[t][i] + pos(signs[t] * b[t][k, i]) * ps[t][k]
                   for i in range(n)]
            row[k] = -ps[t][k]
            pts.append(row)
        lg = []
        for t in range(L):
            k = seq[t] - 1
            y = math.exp(ps[t][k] + ws[t][k])
            lg.append(math.log(1.0 + (y if signs[t] > 0 else 1.0 / y)))
        out = []
        for t in range(1, L):
            k = seq[t] - 1
            out += [ps[t][i] - pts[t][i] + int(b[t][k, i]) * lg[t] / 2.0
                    for i in range(n)]
        for t in range(L - 1):
            k = seq[t] - 1
            for i in range(n):
                if i == k:
                    out.append(us[t][k] + us[t + 1][k]
                               - sum(pos(signs[t] * b[t][k, j]) * us[t + 1][j]
                                     for j in range(n))
                               - lg[t] / 2.0)
                else:
                    out.append(us[t][i] - us[t + 1][i])
        return np.array(out)

    x0 = np.array([state.p[t][i] for t in range(L - 1) for i in range(n)]
                  + [state.u[t][i] for t in range(1, L) for i in range(n)])
    m = len(x0)
    jac = np.zeros((m, m))
    for j in range(m):
        dx = np.zeros(m)
        dx[j] = h
        jac[:, j] = (residual(x0 + dx) - residual(x0 - dx)) / (2 * h)
    return residual(x0), jac


def dense(rows):
    out = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        for j, a in row.items():
            out[i, j] = a
    return out


A3 = ExchangeMatrix(np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))
A3_SCHED = MutationSchedule((1, 2, 1, 3, 2, 1, 3, 2, 1), (3, 2, 1))


def states(B, sched, count=5):
    rng = np.random.default_rng(8)
    return [build_solution(B, sched, rng.uniform(-2, 2, size=B.n))
            for _ in range(count)]


class TestBatchedJacobian:
    """newton_refine's Jacobian, every column from one forward-mode pass
    of the system on jets, against a column-by-column central-difference
    reference, and its sparse solve against numpy's dense one."""

    @pytest.mark.parametrize("B, sched", [(A2, A2_SCHED), (A3, A3_SCHED)],
                             ids=["A2", "A3"])
    def test_jacobian_matches_per_column_reference(self, B, sched):
        for st in states(B, sched):
            rows, rhs = _newton_system(st, B, sched)
            value, jac = reference_system(st, B, sched)
            assert (-np.array(rhs) == value).all()
            assert np.max(np.abs(dense(rows) - jac)) < JAC_TOL

    @pytest.mark.parametrize("B, sched", [(A2, A2_SCHED), (A3, A3_SCHED)],
                             ids=["A2", "A3"])
    def test_step_matches_numpy_solve(self, B, sched):
        for st in states(B, sched):
            rows, rhs = _newton_system(st, B, sched)
            ref = np.linalg.solve(dense(rows), rhs)
            step = _solve(rows, list(rhs))
            assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert newton_refine(st, B, sched) == np.max(np.abs(step))

    @pytest.mark.parametrize("B, sched", [(A2, A2_SCHED), (A3, A3_SCHED)],
                             ids=["A2", "A3"])
    @pytest.mark.parametrize("i", [0, 1])
    def test_perturbed_momentum_gives_a_step_of_its_size(self, B, sched, i):
        """p(2) moved by delta: a degenerate or wrong Jacobian could not
        return a step of delta to three digits."""
        delta = 1e-4
        st = build_solution(B, sched, [0.3, -0.7, 0.2][:B.n])
        p = [list(r) for r in st.p]
        p[1][i] += delta
        pert = st._replace(p=tuple(tuple(r) for r in p))
        step = newton_refine(pert, B, sched)
        assert 0.1 * delta < step < 10 * delta
        assert abs(step - delta) < 1e-3 * delta


class TestSolve:
    """The sparse elimination behind newton_refine."""

    def test_zero_pivot_needs_a_row_swap(self):
        # column 0 holds an explicit 0.0 in the first row
        assert _solve([{0: 0.0, 1: 1.0}, {0: 2.0, 1: 1.0}], [3.0, 5.0]) == [
            1.0, 3.0]

    def test_random_systems_match_numpy(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 5, 12, 30):
            a = rng.normal(size=(m, m)) * (rng.random((m, m)) < 0.3)
            a += np.diag(rng.normal(size=m))
            b = rng.normal(size=m)
            rows = [{j: a[i, j] for j in range(m) if a[i, j]} for i in range(m)]
            got = np.array(_solve(rows, list(b)))
            ref = np.linalg.solve(a, b)
            assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("rows", [
        [{0: 1.0, 1: 2.0}, {0: 2.0, 1: 4.0}],
        [{0: 1.0}, {0: 2.0}],
        [{0: 1.0, 1: 1.0}, {}],
    ], ids=["dependent rows", "empty column", "empty row"])
    def test_singular_system(self, rows):
        with pytest.raises(ValueError, match="singular"):
            _solve(rows, [1.0, 1.0])

    def test_singular_jacobian_exits_4(self, capsys, monkeypatch):
        """A system whose rows carry no gradient ends in exit 4, with no
        traceback."""
        from clusterdilog import cli, saddle
        equations = saddle._equations

        def flat(*args, **kwargs):
            ws, ya, u_eqs, p_eqs = equations(*args, **kwargs)
            return ws, ya, [[0 * r for r in row] for row in u_eqs], p_eqs

        monkeypatch.setattr(saddle, "_equations", flat)
        assert cli.main(["verify", "saddle", "--builtin", "A2"]) == 4
        assert capsys.readouterr().err == (
            "error: the Newton Jacobian is singular or not finite\n")


class TestLambdaMode:
    def test_requires_contracting_parameter(self):
        with pytest.raises(ValueError):
            build_solution(A2, A2_SCHED, [0, 0], mode="lambda", lam=1.0)
        with pytest.raises(BranchProximity):
            build_solution(A2, A2_SCHED, [0, 0], mode="lambda",
                           lam=1 + 0.3j)

    @pytest.mark.parametrize("lam", [complex(math.inf, 0.05),
                                     complex(1, math.nan)])
    def test_rejects_non_finite_parameter(self, lam):
        with pytest.raises(ValueError, match="must be finite"):
            build_solution(A2, A2_SCHED, [0, 0], mode="lambda", lam=lam)

    def test_action_vanishes_along_ray(self):
        rng = np.random.default_rng(4)
        u1 = rng.uniform(-0.5, 0.5, size=2)
        for d in (0.1, 0.05, 0.01):
            st = build_solution(A2, A2_SCHED, u1, mode="lambda", lam=lam_at(d))
            rep = residuals(st, A2, A2_SCHED)
            val, cross = action(st, A2, A2_SCHED)
            assert rep.max_residual < 1e-9
            assert abs(val) < 1e-6
            assert abs(val - cross) < 1e-12

    def test_continuity_towards_real_mode(self):
        u1 = [0.2, -0.3]
        st_b = build_solution(A2, A2_SCHED, u1)
        val_b, _ = action(st_b, A2, A2_SCHED)
        gaps = []
        for d in (0.1, 0.05, 0.01):
            st = build_solution(A2, A2_SCHED, u1, mode="lambda", lam=lam_at(d))
            val, _ = action(st, A2, A2_SCHED)
            gaps.append(abs(val - val_b))
        assert all(g < 1e-10 for g in gaps)

    def test_branch_guard_fires_for_wild_input(self):
        # large |u1| pushes a half-logarithm across a branch in lambda-mode
        with pytest.raises(BranchProximity):
            build_solution(A2, A2_SCHED, [12.0, -9.0], mode="lambda",
                           lam=lam_at(0.1))


class TestCoordinateMaps:
    def test_a2_table(self):
        mats = matrices_along(A2, A2_SCHED.sequence)
        signs = (1, 1, -1, -1, -1)
        expected_u = {
            1: [[-1, 0], [0, 1]],
            2: [[1, 0], [0, -1]],
            3: [[-1, 1], [0, 1]],
            4: [[1, 0], [1, -1]],
            5: [[-1, 1], [0, 1]],
        }
        expected_w = {
            1: [[-1, 0], [0, 1]],
            2: [[1, 0], [0, -1]],
            3: [[-1, 0], [1, 1]],
            4: [[1, 1], [0, -1]],
            5: [[-1, 0], [1, 1]],
        }
        for t in range(1, 6):
            spec = coordinate_maps(mats[t - 1], A2_SCHED.sequence[t - 1],
                                   signs[t - 1])
            assert np.array_equal(spec.u_map, np.array(expected_u[t])), t
            assert np.array_equal(spec.w_map, np.array(expected_w[t])), t

    def test_decoupled_direction_is_pure_sign_flip(self):
        B = ExchangeMatrix(np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]))
        spec = coordinate_maps(B, 3, 1)
        expect = np.eye(3, dtype=int)
        expect[2, 2] = -1
        assert np.array_equal(spec.u_map, expect)
        assert np.array_equal(spec.w_map, expect)

    def test_entries_beyond_int64(self):
        B = ExchangeMatrix([[0, 10**20], [-10**20, 0]])
        spec = coordinate_maps(B, 1, 1)
        assert spec.u_map == ((-1, 10**20), (0, 1))
        assert spec.w_map == ((-1, 0), (10**20, 1))

    def test_duality_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            raw = rng.integers(-3, 4, size=(n, n))
            B = ExchangeMatrix(np.triu(raw, 1) - np.triu(raw, 1).T)
            k = int(rng.integers(1, n + 1))
            for eps in (1, -1):
                spec = coordinate_maps(B, k, eps)
                assert np.array_equal(np.array(spec.u_map).T @ spec.w_map,
                                      np.eye(n, dtype=int))
                u = rng.uniform(-3, 3, size=n)
                w = rng.uniform(-3, 3, size=n)
                assert (spec.u_map @ u) @ (spec.w_map @ w) == pytest.approx(u @ w)

    def test_composition_along_period_is_permutation(self):
        """The covariant maps composed along the period give the
        relabeling permutation, mirroring the tropical periodicity."""
        mats = matrices_along(A2, A2_SCHED.sequence)
        signs = (1, 1, -1, -1, -1)
        total = np.eye(2, dtype=int)
        for t in range(5):
            spec = coordinate_maps(mats[t], A2_SCHED.sequence[t], signs[t])
            total = spec.w_map @ total
        perm = np.zeros((2, 2), dtype=int)
        for i, v in enumerate(A2_SCHED.nu):
            perm[v - 1, i] = 1
        assert np.array_equal(total, perm)


class TestMapsAreTheConstruction:
    """The integer maps of coordinate_maps are the maps build_solution
    applies: w_map(t) takes p(t) to ptilde(t+1), and u_map(t) takes u(t)
    to u(t+1) up to the half-logarithm at k_t."""

    @pytest.mark.parametrize("B, sched", [(A2P, A2P_SCHED), (A3, A3_SCHED)],
                             ids=["A2-principal", "A3"])
    def test_every_step(self, B, sched):
        rng = np.random.default_rng(11)
        mats = matrices_along(B, sched.sequence)
        L = sched.length
        for _ in range(5):
            st = build_solution(B, sched, rng.uniform(-1.5, 1.5, size=B.n))
            # ptilde(L+1) is w(1) relabelled through nu
            closing = np.zeros(B.n)
            closing[np.array(sched.nu) - 1] = st.w[0]
            for t in range(L):
                k = sched.sequence[t] - 1
                spec = coordinate_maps(mats[t], k + 1, st.signs[t])
                target = st.ptilde[t + 1] if t + 1 < L else closing
                assert np.allclose(spec.w_map @ np.array(st.p[t]), target,
                                   rtol=0, atol=1e-12), t
                if t + 1 == L:
                    continue
                ya = st.yactive[t] if st.signs[t] > 0 else 1 / st.yactive[t]
                half_log = np.zeros(B.n)
                half_log[k] = math.log(1 + ya) / 2
                assert np.allclose(np.array(st.u[t + 1])
                                   - spec.u_map @ np.array(st.u[t]),
                                   half_log, rtol=0, atol=1e-12), t

    @pytest.mark.parametrize("B, sched", [(A2P, A2P_SCHED), (A3, A3_SCHED)],
                             ids=["A2-principal", "A3"])
    def test_lambda_mode_residuals(self, B, sched):
        rng = np.random.default_rng(12)
        u1 = rng.uniform(-0.5, 0.5, size=B.n)
        for d in (0.1, 0.05, 0.01):
            st = build_solution(B, sched, u1, mode="lambda", lam=lam_at(d))
            rep = residuals(st, B, sched)
            assert rep.max_residual < 1e-9
            assert abs(rep.action_value) < 1e-6
            assert abs(rep.action_value - rep.cross_check_value) < 1e-12

