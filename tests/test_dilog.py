import cmath
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from clusterdilog.dilog import (
    _LI2_COEFFS,
    PI2_6,
    li2,
    log_psiq_numeric,
    psiq_asymptotics,
    rogers_L,
    rogers_L_complex,
    verify_classical_identity,
)
from clusterdilog.errors import BranchProximity, NotAPeriod
from clusterdilog.exchange import (ExchangeMatrix, MutationSchedule,
                                   numeric_trajectory)
from clusterdilog.fixtures import builtin_seed

A1, A1_SCHED = builtin_seed("A1")
A2, A2_SCHED = builtin_seed("A2")


def li2_quadrature(x):
    """Independent oracle: -int_0^x log(1-y)/y dy by quadrature."""
    val, err = mpmath.quad(lambda y: -mpmath.log1p(-y) / y, [0, x], error=True)
    assert err < 1e-9
    return float(val)


class TestLi2:
    def test_special_values(self):
        assert li2(0.0) == 0.0
        assert li2(1.0) == PI2_6
        assert abs(li2(-1.0) + math.pi**2 / 12) < 1e-15

    def test_against_quadrature_oracle(self):
        for x in (-1.0, -3.7, 0.4, 0.9, -0.6):
            assert li2(x) == pytest.approx(li2_quadrature(x), abs=1e-10)

    def test_against_mpmath_real(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = float(rng.uniform(-200, 1))
            assert li2(x) == pytest.approx(float(mpmath.polylog(2, x)),
                                           rel=1e-14, abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            li2(1.0000001)
        with pytest.raises(ValueError):
            li2(math.nan)

    def test_complex_against_mpmath(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z.imag) < 1e-5 and z.real > 0.9:
                continue
            ref = complex(mpmath.polylog(2, z))
            assert li2(z) == pytest.approx(ref, rel=5e-14, abs=5e-14)

    def test_complex_branch_guard(self):
        with pytest.raises(BranchProximity):
            li2(complex(1.5, 1e-8))

    def test_real_axis_complex_input_delegates(self):
        assert li2(complex(0.3, 0.0)) == complex(li2(0.3), 0.0)


def assert_close_to_mpmath(value, ref):
    """value within 1e-15 relative of the 40-digit reference ref."""
    assert abs(mpmath.mpc(value) - ref) <= 1e-15 * abs(ref)


class TestBernoulliSeries:
    """li2 is one series in w = -log(1 - z) after inversion and
    reflection: the literal coefficients, and both sides of every
    border between the regions, against 40-digit mpmath."""

    def test_literal_coefficients_are_the_exact_values(self):
        bernoulli = [Fraction(1)]  # B_0, B_1, ... with B_1 = -1/2
        for k in range(1, 59):
            bernoulli.append(-sum(math.comb(k + 1, j) * bj
                                  for j, bj in enumerate(bernoulli)) / (k + 1))
        assert len(_LI2_COEFFS) == 30
        for k, c in enumerate(_LI2_COEFFS):
            assert c == float(bernoulli[2 * k] / math.factorial(2 * k + 1))

    @pytest.mark.parametrize("x", [
        -1.0 - 1e-9, -1.0, -1.0 + 1e-9, -1.5, -0.7,
        0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.3, 0.8,
        1.0 - 2.0**-52, 1e-300, -1e-300, -1e300])
    def test_real_region_borders(self, x):
        with mpmath.workdps(40):
            assert_close_to_mpmath(li2(x), mpmath.polylog(2, mpmath.mpf(x)))

    @pytest.mark.parametrize("scale", [1 - 1e-9, 1 + 1e-9, 0.97, 1.03])
    @pytest.mark.parametrize("border", ["|z| = 1/2", "|z| = 2", "|1-z| = 1/2"])
    def test_complex_region_borders(self, border, scale):
        radius = 2.0 if border == "|z| = 2" else 0.5
        with mpmath.workdps(40):
            for t in range(16):
                z = cmath.rect(radius * scale, math.pi * (t + 0.5) / 8)
                if border == "|1-z| = 1/2":
                    z = 1.0 - z
                assert_close_to_mpmath(li2(z), mpmath.polylog(2, mpmath.mpc(z)))

    def test_small_complex_arguments(self):
        """Near 0 the rounding of 1 - z would cost all relative accuracy."""
        with mpmath.workdps(40):
            for r in (1e-300, 1e-12, 1e-6):
                z = cmath.rect(r, 0.7)
                assert_close_to_mpmath(li2(z), mpmath.polylog(2, mpmath.mpc(z)))

    def test_rogers_L_on_the_open_interval(self):
        with mpmath.workdps(40):
            for x in [1e-300, 1e-10, *(k / 64 for k in range(1, 64)),
                      1.0 - 1e-10, 1.0 - 2.0**-52]:
                X = mpmath.mpf(x)
                ref = mpmath.polylog(2, X) + mpmath.log(X) * mpmath.log1p(-X) / 2
                assert_close_to_mpmath(rogers_L(x), ref)


class TestRogersL:
    def test_endpoints_exact(self):
        assert rogers_L(0.0) == 0.0
        assert rogers_L(1.0) == PI2_6

    def test_half(self):
        assert rogers_L(0.5) == pytest.approx(PI2_6 / 2, abs=1e-15)

    def test_reflection(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = float(rng.uniform(0, 1))
            assert rogers_L(x) + rogers_L(1 - x) == pytest.approx(PI2_6, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            rogers_L(-0.1)
        with pytest.raises(ValueError):
            rogers_L(1.1)

    def test_relation_to_li2_of_negative(self):
        # -L(x/(1+x)) = li2(-x) + (1/2) log x log(1+x)
        for x in np.logspace(-3, 3, 50):
            lhs = -rogers_L(x / (1 + x))
            rhs = li2(-x) + 0.5 * math.log(x) * math.log1p(x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_complex_matches_real_on_axis(self):
        assert rogers_L_complex(0.37 + 0j) == complex(rogers_L(0.37), 0.0)

    def test_complex_branch_guard(self):
        with pytest.raises(BranchProximity):
            rogers_L_complex(complex(-1e-8, 1e-9))


class TestClassicalIdentity:
    def test_a2_unit_point(self):
        rep = verify_classical_identity(A2, A2_SCHED, [1.0, 1.0])
        assert [t[3] for t in rep.terms] == [1.0, 2.0, 3.0, 2.0, 1.0]
        assert abs(rep.sum_signed) < 1e-14
        assert rep.sum_di == pytest.approx(3 * PI2_6, abs=1e-13)
        assert rep.sum_di_prime == pytest.approx(2 * PI2_6, abs=1e-13)
        assert rep.n_minus == 3 and rep.n_plus == 2
        assert rep.passed(1e-10)

    def test_a1_exact_cancellation(self):
        rep = verify_classical_identity(A1, A1_SCHED, [5.0])
        assert rep.sum_signed == 0.0
        assert rep.passed(1e-12)

    def test_random_points_log_uniform(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=2))
            rep = verify_classical_identity(A2, A2_SCHED, y0)
            assert abs(rep.sum_signed) < 1e-10
            assert rep.di_residual < 1e-10
            assert rep.di_prime_residual < 1e-10

    def test_reduces_to_pentagon(self):
        """At generic y0 the five identity terms are the Rogers pentagon
        at x = y1/(1+y1), y = y2(1+y1)/(1+y2+y1y2)."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            y1, y2 = rng.uniform(0.05, 5.0, size=2)
            rep = verify_classical_identity(A2, A2_SCHED, [y1, y2])
            x = y1 / (1 + y1)
            y = y2 * (1 + y1) / (1 + y2 + y1 * y2)
            pentagon = (rogers_L(x) + rogers_L(y)
                        - rogers_L(x * (1 - y) / (1 - x * y))
                        - rogers_L(x * y)
                        - rogers_L(y * (1 - x) / (1 - x * y)))
            assert rep.sum_signed == pytest.approx(pentagon, abs=1e-12)
            args = [t[4] for t in rep.terms]
            assert args[0] == pytest.approx(x)
            assert args[1] == pytest.approx(y)
            assert args[3] == pytest.approx(x * y)

    def test_not_a_period(self):
        with pytest.raises(NotAPeriod):
            verify_classical_identity(
                A2, MutationSchedule.identity_nu((1, 2), 2), [1.0, 1.0])

    def test_rank3_source_sequence(self):
        from clusterdilog.exchange import ExchangeMatrix

        A3 = ExchangeMatrix(np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))
        sched = MutationSchedule((1, 2, 1, 3, 2, 1, 3, 2, 1), (3, 2, 1))
        rng = np.random.default_rng(5)
        for _ in range(25):
            y0 = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=3))
            rep = verify_classical_identity(A3, sched, y0)
            assert rep.passed(1e-10)
        # nine mutation steps split six positive and three negative signs
        assert (rep.n_plus, rep.n_minus) == (3, 6)

    @pytest.mark.parametrize("name", ["A2", "A2-principal", "A3",
                                      "A2-opposite"])
    def test_active_values_equal_numeric_trajectory(self, name):
        """The float exchange relation repeats numeric_trajectory bit for
        bit, also where an exchange exponent is -1 (A2-opposite)."""
        if name == "A3":
            B = ExchangeMatrix(np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]))
            sched = MutationSchedule((1, 2, 1, 3, 2, 1, 3, 2, 1), (3, 2, 1))
        elif name == "A2-opposite":
            B, sched = ExchangeMatrix(np.array([[0, 1], [-1, 0]])), A2_SCHED
        else:
            B, sched = builtin_seed(name)
        rng = np.random.default_rng(9)
        for _ in range(50):
            y0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=B.n))
            traj = numeric_trajectory(B, sched.sequence, y0)
            rep = verify_classical_identity(B, sched, y0)
            assert [t[3] for t in rep.terms] == [
                float(traj[t].y[k - 1]) for t, k in enumerate(sched.sequence)]

    def test_active_values_with_negative_exponents(self):
        """Where (1 + y_k)^(-1) enters, Python's pow and numpy's vectorised
        power may differ in the last bit."""
        B = ExchangeMatrix(np.array([[0, 1], [-1, 0]]))
        rng = np.random.default_rng(10)
        for _ in range(50):
            y0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=2))
            traj = numeric_trajectory(B, A2_SCHED.sequence, y0)
            rep = verify_classical_identity(B, A2_SCHED, y0)
            for t, k in enumerate(A2_SCHED.sequence):
                assert rep.terms[t][3] == pytest.approx(traj[t].y[k - 1],
                                                        rel=1e-15)
            assert rep.passed(1e-10)

    @pytest.mark.parametrize("y0", [[1.0], [1.0, 2.0, 3.0], [0.0, 1.0],
                                    [-1.0, 1.0], [math.nan, 1.0],
                                    [1.0, math.inf], [1e300, 1e300],
                                    [1e-300, 1e300]])
    def test_rejects_what_numeric_seed_rejects(self, y0):
        """Wrong length, a y that is not strictly positive (NaN included)
        at the start or after an overflow along the path."""
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            numeric_trajectory(A2, A2_SCHED.sequence, y0)
        with pytest.raises(ValueError):
            verify_classical_identity(A2, A2_SCHED, y0)

    def test_overflowing_power_saturates_like_numpy(self):
        """y_1^2 overflows: Python's pow raises, numpy's gives inf, and the
        check follows numpy's path."""
        B = ExchangeMatrix(np.array([[0, 2], [-2, 0]]))
        sched = MutationSchedule((1, 1), (1, 2))
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError):
                verify_classical_identity(B, sched, [1e200, 1.0])
            rep = verify_classical_identity(B, sched, [1e160, 1e160])
        assert [t[3] for t in rep.terms] == [1e160, 1 / 1e160]
        assert rep.passed()

    @pytest.mark.parametrize("name", ["A2", "A3"])
    def test_positive_terms_reuse_their_value(self, name, monkeypatch):
        """For eps = +1 the signed sum's argument is y / (1 + y), the one
        the unsigned sum takes, so each such step calls rogers_L twice, not
        three times; the terms, sums and residuals keep the bits of three
        separate calls."""
        module = sys.modules["clusterdilog.dilog"]
        if name == "A3":
            B = ExchangeMatrix([[0, -1, 0], [1, 0, -1], [0, 1, 0]])
            sched = MutationSchedule((1, 2, 1, 3, 2, 1, 3, 2, 1), (3, 2, 1))
        else:
            B, sched = A2, A2_SCHED
        rng = random.Random(35)
        for _ in range(20):
            y0 = [math.exp(rng.uniform(-7.0, 7.0)) for _ in range(B.n)]
            calls = []
            monkeypatch.setattr(module, "rogers_L",
                                lambda x: calls.append(x) or rogers_L(x))
            rep = verify_classical_identity(B, sched, y0)
            monkeypatch.undo()
            signed = di = di_prime = 0.0
            for t, k, eps, y, arg, val in rep.terms:
                ye = y if eps > 0 else 1.0 / y
                assert (arg, val) == (ye / (1.0 + ye), rogers_L(arg))
                signed += eps * val
                di += rogers_L(y / (1.0 + y))
                di_prime += rogers_L(1.0 / (1.0 + y))
            assert (rep.sum_signed, rep.sum_di, rep.sum_di_prime) == (
                signed, di, di_prime)
            assert rep.di_residual == abs(di - rep.n_minus * PI2_6)
            assert rep.di_prime_residual == abs(
                di_prime - rep.n_plus * PI2_6)
            assert len(calls) == 3 * len(rep.terms) - rep.n_plus


def psiq(x, q):
    """Psi_q(x) = 1 / (-qx; q^2)_oo as the exponential of its logarithm."""
    return cmath.exp(log_psiq_numeric(x, q))


class TestPsiqNumeric:
    def test_at_zero(self):
        assert psiq(0.0, 0.5) == 1.0

    def test_recursion(self):
        for q in (0.3, 0.8, complex(0.2, 0.5)):
            for x in (0.4, 2.0, complex(-0.3, 1.1)):
                lhs = psiq(q * q * x, q)
                rhs = (1 + q * x) * psiq(x, q)
                assert abs(lhs - rhs) / abs(rhs) < 1e-13

    def test_q_outside_disk(self):
        with pytest.raises(ValueError):
            log_psiq_numeric(0.5, 1.0)
        with pytest.raises(ValueError):
            log_psiq_numeric(0.5, 1.2)

    def test_log_form_rejects_infinite_argument(self):
        with pytest.raises(ValueError):
            log_psiq_numeric(math.inf, 0.9)

    def test_log_form_matches_product(self):
        """exp(log_psiq_numeric) against mpmath's product
        1 / (-qx; q^2)_oo."""
        for q, x in ((0.6, 0.7), (0.4, complex(0.2, 0.1))):
            ref = complex(1 / mpmath.qp(-q * x, q * q))
            assert psiq(x, q) == pytest.approx(ref, rel=1e-12)

    def test_semiclassical_defect_decays(self):
        for x in (0.5, 1.0, 2.0):
            vals = [v for _, v in psiq_asymptotics(x, [0.9, 0.95, 0.99, 0.999])]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] < 1e-6

    def test_defect_limit_is_li2(self):
        # -2 log q * log Psi_q(x) tends to li2(-x), computed independently
        x = 1.0
        q = 0.9999
        approx = -2 * math.log(q) * log_psiq_numeric(x, q).real
        assert approx == pytest.approx(li2_quadrature(-x), rel=1e-3)
