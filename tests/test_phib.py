import cmath
import math
import os
import subprocess
import sys
import textwrap
import time
import warnings

import mpmath
import numpy as np
import pytest

import clusterdilog
from clusterdilog.dilog import li2, psiq_numeric
from clusterdilog.errors import QuadratureFailure
from clusterdilog.phib import (
    PhibParams,
    check_duality,
    check_phib_asymptotics,
    log_phib,
    phib,
    phipsi_residual,
    recurrence_residual,
    unitarity_residual,
)

REAL_BS = (0.7, 1.0, 1.3)
COMPLEX_BS = (cmath.exp(1j * math.pi / 5), cmath.exp(1j * math.pi / 7))
Z_GRID = tuple(np.linspace(-0.4, 0.4, 5))


class TestParams:
    def test_derived_quantities(self):
        p = PhibParams(1.3)
        assert p.c_b == pytest.approx(0.5j * (1.3 + 1 / 1.3))
        assert p.q == pytest.approx(cmath.exp(1j * math.pi * 1.3**2))
        assert p.q_bar == pytest.approx(1 / p.q_dual)

    def test_rejects_imaginary_b(self):
        with pytest.raises(ValueError):
            PhibParams(1j)

    @pytest.mark.parametrize("b", [math.inf, math.nan, complex(1, math.inf)])
    def test_rejects_non_finite_b(self, b):
        with pytest.raises(ValueError):
            PhibParams(b)

    def test_im_b_squared_positive_means_contracting_q(self):
        for b in COMPLEX_BS:
            p = PhibParams(b)
            assert (b * b).imag > 0
            assert abs(p.q) < 1 and abs(p.q_bar) < 1


def log_phib_mpmath(z, b):
    """Independent oracle: -1/4 of the contour integral at 40 digits.  The
    arc over the origin has a radius below 1/|z|, so its factor e^(2|z|r)
    stays small; each half of the tails, g(x) and g(-x) for x > r, runs on
    a ray turned by a fixed pi/4 towards its decay, where mpmath's
    tanh-sinh rule integrates it out to infinity.  No pole lies between
    the ray and the real axis while |arg b| < pi/4."""
    with mpmath.workdps(40):
        z, b = mpmath.mpc(z), mpmath.mpc(b)

        def g(x):
            return mpmath.exp(-2j * z * x) / (x * mpmath.sinh(x * b) * mpmath.sinh(x / b))

        r = min(mpmath.pi / 4 * min(abs(b), 1 / abs(b)), 1 / max(abs(z), 1))
        arc = mpmath.quad(lambda t: g(r * mpmath.expj(t)) * 1j * r * mpmath.expj(t),
                          [mpmath.pi, 0])
        tails = 0
        for sign in (1, -1):
            w = b + 1 / b + 2j * sign * z  # g(sign x) decays like e^(-wx)
            turn = mpmath.expj(-mpmath.pi / 4 if w.imag >= 0 else mpmath.pi / 4)
            tails += mpmath.quad(lambda t: g(sign * (r + turn * t)) * turn,
                                 [0, r, 8 / abs(w), mpmath.inf])
        return complex(-(tails + arc) / 4)


class TestValues:
    @pytest.mark.parametrize("b", (0.7, 1.3, COMPLEX_BS[0]))
    def test_against_mpmath_contour(self, b):
        p = PhibParams(b)
        for z in (-0.3, 0.0, 0.15 + 0.1j):
            assert abs(phib(z, p) - cmath.exp(log_phib_mpmath(z, b))) < 1e-13

    @pytest.mark.parametrize("b,z", [(0.7, 5), (0.7, 20), (0.3, 60), (0.05, 60),
                                     (0.3, 100), (0.1, 300), (0.05, 300),
                                     (0.7, 100), (0.3, 300), (1, 1000)])
    def test_large_real_z(self, b, z):
        p = PhibParams(b)
        val = log_phib(z, p)
        ref = log_phib_mpmath(z, b)
        assert abs(val - ref) < 1e-12 * abs(ref)
        assert abs(abs(phib(z, p)) - 1.0) < 1e-12

    @pytest.mark.parametrize("b,z,limit", [
        (5, -0.85, 4e-15), (0.3, -1.07, 4e-15), (0.05, -20, 4e-15),
        (0.7, -3, 1e-13), (1, -4, 1e-6), (1, -8, 1e-6)])
    def test_error_relative_to_the_value_itself(self, b, z, limit):
        """No term of the line integral is larger than the integrand at ih,
        of size e^(2h Re z), so where Phi_b is close to 1 the error stays
        relative to |log Phi_b| itself: 9.3e-7 at (0.7, -3), 5.1e-11 and
        1.2e-21 at b = 1, z = -4 and -8.  The integrand there is about the
        square root of the value, so about half the digits remain."""
        ref = log_phib_mpmath(z, b)
        assert abs(log_phib(z, PhibParams(b)) - ref) <= limit * abs(ref)


class TestReach:
    def test_seeded_sweep_resolves(self):
        """Every point of a seeded sweep over 16 values of b, |z| up to 4000
        and Im z up to 0.97 of the half-strip resolves at the default
        tolerance; real-axis tails under a 4096-panel cap resolved 107 of
        these 128.  Re log Phi_b is exactly 0 for real b and z."""
        rng = np.random.default_rng(17)
        for b in (0.05, 0.1, 0.3, 0.7, 1.0, 1.3, 2.0, 5.0, *COMPLEX_BS,
                  0.8 + 0.3j, 1.5 - 0.2j, 0.5 + 0.4j, 3 + 0.5j, 0.2 - 0.1j, 1 + 0.9j):
            p = PhibParams(b)
            for _ in range(8):
                z = complex(rng.choice((-1, 1)) * 10 ** rng.uniform(-2, math.log10(4000)),
                            rng.uniform(-0.97, 0.97) * 0.5 * p.strip_height
                            * rng.integers(0, 2))
                val = log_phib(z, p)
                if isinstance(b, float) and z.imag == 0:
                    assert val.real == 0.0, (b, z)

    def test_far_left_is_exactly_one(self):
        """At z = -1e6 every term of the line integral underflows, so
        Phi_b = 1 exactly."""
        assert log_phib(-1e6, PhibParams(1.0)) == 0.0

    def test_reflection_rounding_is_refused(self):
        """For Re z > 0 the value carries pi z^2, which rounds off by more
        than the budget past real z of about 5e4."""
        assert log_phib(5e4, PhibParams(1.0)).real == 0.0
        with pytest.raises(QuadratureFailure, match="rounds off") as info:
            log_phib(6e4, PhibParams(1.0))
        assert info.value.achieved_error > 1e-6

    def test_panel_cap_refuses_at_once(self):
        """As arg b nears pi/2 the poles close in on the line, the panels
        grow ever more slowly, and their count passes the cap: the run is
        refused before any node is built."""
        start = time.perf_counter()
        with pytest.raises(QuadratureFailure, match="panels"):
            phib(0.1, PhibParams(1e-4 + 1j))
        assert time.perf_counter() - start < 0.5


class TestReductionAtLargeB:
    """For |b| > 1 phib steps by i/b (Phi_b = Phi_{1/b}), so a step never
    crosses the half-strip; the oracle integrates at z itself."""

    @pytest.mark.parametrize("b,z", [
        (1.8, -0.62j),
        (1.7978314801989181, -0.05446281163520439 - 0.6217899523032944j)])
    def test_inputs_that_stepped_across_the_strip(self, b, z):
        val = phib(z, PhibParams(b))
        assert abs(val - cmath.exp(log_phib_mpmath(z, b))) < 1e-13 * abs(val)

    def test_seeded_grid_inside_the_strip(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            b = complex(rng.uniform(1.5, 3.0), rng.uniform(-0.3, 0.3))
            height = abs((0.5j * (b + 1 / b)).imag)
            z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 0.9) * height
                        * rng.choice((-1, 1)))
            val = phib(z, PhibParams(b))
            ref = cmath.exp(log_phib_mpmath(z, b))
            assert abs(val - ref) < 1e-12 * abs(ref), (b, z)


class TestInversion:
    """Phi_b(z) Phi_b(-z) = exp(-i pi s / 12 - i pi z^2), s = b^2 + b^-2
    (Faddeev-Kashaev-Volkov); the last two z lie past half the strip
    height, where phib first reduces z by the recurrence."""

    @pytest.mark.parametrize("b", (1.3, 0.7, COMPLEX_BS[0]))
    def test_product_with_reflection(self, b):
        p = PhibParams(b)
        s = b * b + 1 / (b * b)
        for z in (0.0, 0.3, -0.2 + 0.1j, 2.0, 0.1 + 1.5j, -0.4 + 0.9j):
            rhs = cmath.exp(-1j * math.pi * s / 12 - 1j * math.pi * z * z)
            assert abs(phib(z, p) * phib(-z, p) - rhs) < 1e-13


class TestUnitarity:
    @pytest.mark.parametrize("b", REAL_BS)
    def test_real_b(self, b):
        p = PhibParams(b)
        for z in Z_GRID:
            assert unitarity_residual(float(z), p) < 1e-8

    @pytest.mark.parametrize("b", COMPLEX_BS)
    def test_unit_modulus_b(self, b):
        p = PhibParams(b)
        for z in Z_GRID:
            assert unitarity_residual(float(z), p) < 1e-8


class TestRecurrence:
    @pytest.mark.parametrize("b", REAL_BS + COMPLEX_BS)
    def test_both_step_directions(self, b):
        p = PhibParams(b)
        for z in (-0.3, 0.0, 0.25):
            assert recurrence_residual(z, p) < 1e-7
            assert recurrence_residual(z, p, dual=True) < 1e-7

    @pytest.mark.parametrize("b", REAL_BS)
    def test_both_directions_see_a_wrong_integral(self, b, monkeypatch):
        """With 1e-5 z added to the strip integral, both residuals exceed
        the tolerance: neither direction is a recurrence step that phib's
        own reduction undoes exactly."""
        module = sys.modules["clusterdilog.phib"]
        strip = module._log_phib_strip
        monkeypatch.setattr(module, "_log_phib_strip",
                            lambda z, p: strip(z, p) + 1e-5 * z)
        p = PhibParams(b)
        for z in (-0.3, 0.0, 0.25):
            assert recurrence_residual(z, p) > 1e-7
            assert recurrence_residual(z, p, dual=True) > 1e-7

    def test_deep_strip_reduction(self):
        """Evaluation far outside the strip agrees with the compact
        product ratio, so the iterated recurrence is consistent."""
        p = PhibParams(COMPLEX_BS[0])
        z = 0.1 + 3.5j
        lhs = phib(z, p)
        rhs = psiq_numeric(cmath.exp(2 * math.pi * p.b * z), p.q) / \
            psiq_numeric(cmath.exp(2 * math.pi * z / p.b), p.q_bar)
        assert abs(lhs - rhs) / abs(rhs) < 1e-9

    @pytest.mark.parametrize("z", [1e300 + 1e300j, 1e300 - 1e300j,
                                   400 + 2j])
    def test_overflowing_reduction_is_a_domain_error(self, z):
        """A recurrence factor e^(2 pi s z) beyond double range is a
        QuadratureFailure naming z, in either step direction."""
        with pytest.raises(QuadratureFailure, match="beyond double range") \
                as info:
            phib(z, PhibParams(1.0))
        assert str(z) in str(info.value)


class TestDuality:
    def test_b_equal_one_trivial(self):
        r_inv, r_neg = check_duality(0.2, 1.0)
        assert r_inv == 0.0

    def test_real_b(self):
        r_inv, r_neg = check_duality(0.2, 1.3)
        assert r_inv < 1e-7 and r_neg < 1e-7

    def test_complex_b(self):
        r_inv, r_neg = check_duality(0.1, cmath.exp(1j * math.pi / 7))
        assert r_inv < 1e-6 and r_neg < 1e-6


class TestProductRatio:
    @pytest.mark.parametrize("b", COMPLEX_BS)
    def test_integral_matches_product(self, b):
        p = PhibParams(b)
        for z in (-0.2, 0.0, 0.3):
            assert phipsi_residual(z, p) < 1e-6

    @pytest.mark.parametrize("b", (0.3 + 1j, 0.05 + 1j, 0.2 + 3j))
    def test_b_near_the_imaginary_axis(self, b):
        """With arg b near pi/2 the rays turn by at most half the angle at
        which the poles stand above the line, and the panels grow more
        slowly; the product ratio and both recurrence directions agree."""
        p = PhibParams(b)
        for z in (-0.2, 0.3):
            assert phipsi_residual(z, p) < 1e-12
            assert recurrence_residual(z, p) < 1e-12
            assert recurrence_residual(z, p, dual=True) < 1e-12

    def test_requires_positive_im_b2(self):
        with pytest.raises(ValueError):
            phipsi_residual(0.1, PhibParams(1.3))


class TestAsymptotics:
    @pytest.mark.parametrize("z", (0.0, 1.0))
    def test_defect_decays_towards_zero(self, z):
        rows = check_phib_asymptotics(z, [0.5, 0.4, 0.3, 0.2])
        vals = [v for _, v in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_inversion_past_exp_overflow(self):
        """Past z = 700 li2(-e^z) is taken by inversion, because e^z
        overflows at z = 709.78; the defect is continuous across."""
        below = check_phib_asymptotics(699.9999, [0.5])[0][1]
        above = check_phib_asymptotics(700.0001, [0.5])[0][1]
        assert above == pytest.approx(below, rel=1e-6)
        assert check_phib_asymptotics(710.0, [0.5])[0][1] == pytest.approx(
            below, rel=1e-6)

    def test_limit_value_is_li2(self):
        z = 0.5
        b = 0.05
        p = PhibParams(b)
        approx = 2j * math.pi * b * b * log_phib(z / (2 * math.pi * b), p)
        assert approx.real == pytest.approx(-li2(-math.exp(z)), rel=1e-3)


class TestStripHandling:
    def test_log_phib_rejects_outside_strip(self):
        p = PhibParams(1.0)
        with pytest.raises(ValueError):
            log_phib(0.9j, p)

    def test_integral_diverges_outside_strip_is_guarded(self):
        p = PhibParams(1.0)
        with pytest.raises(QuadratureFailure):
            from clusterdilog.phib import _log_phib_strip
            _log_phib_strip(1.5j, p)

    def test_error_estimate_above_budget_is_guarded(self, monkeypatch):
        monkeypatch.setattr(sys.modules["clusterdilog.phib"], "_TOL", 1e-20)
        with pytest.raises(QuadratureFailure) as info:
            phib(0.2, PhibParams(1.0))
        assert info.value.achieved_error > 1e-18

    @pytest.mark.parametrize("z", [1e20, math.inf, math.nan])
    def test_panel_count_is_bounded(self, z):
        with pytest.raises(QuadratureFailure):
            phib(z, PhibParams(1.0))

    def test_non_finite_tail_sums_are_guarded(self):
        """At b = 2000, z = 400i (inside the half-strip) the tails are one
        exp of a decaying sum and stay finite, so the run ends where
        |Phi_b| leaves double range.  At z = 1e300 x expm1 expm1
        underflows to 0 on the rays, and the sums are refused as such."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure, match="beyond double range"):
                phib(400j, PhibParams(2000.0))
            with pytest.raises(QuadratureFailure, match="not finite"):
                phib(1e300, PhibParams(1.0))

    @pytest.mark.parametrize("b", [1e-6, 1e-160, 1e200])
    def test_b_past_double_precision_is_guarded(self, b):
        """Far from 1, rounding s = b^2 + b^-2 alone moves the phase of
        Phi_b(0) = exp(-i pi s / 24) past the budget: refused up front."""
        with pytest.raises(QuadratureFailure) as info:
            log_phib(0.1, PhibParams(b))
        assert info.value.achieved_error > 1e-6

    def test_overflowing_integrand_is_guarded(self):
        """At b = 0.001 sinh(x / b) overflows; the tails never form it, so
        the value comes without a warning, unimodular and as mpmath's."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = log_phib(0.1, PhibParams(0.001))
        assert val.real == 0.0
        ref = log_phib_mpmath(0.1, 0.001)
        assert abs(val - ref) < 1e-12 * abs(ref)


def test_depends_only_on_numpy():
    """In a fresh interpreter where importing anything outside the standard
    library, numpy and the package fails, the CLI imports and Phi_b evaluates;
    until the first quadrature numpy fails too, through an exact check."""
    code = textwrap.dedent("""
        import sys

        class OnlyNumpy:
            allowed = sys.stdlib_module_names | {"clusterdilog"}

            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] not in self.allowed:
                    raise ImportError(f"{name} is not a declared dependency")

        finder = OnlyNumpy()
        sys.meta_path.insert(0, finder)
        import clusterdilog.cli
        assert clusterdilog.cli.main(["verify", "quantum-tropical", "dual",
                                      "--builtin", "A2", "-N", "4"]) == 0
        finder.allowed = finder.allowed | {"numpy"}
        from clusterdilog.phib import PhibParams, phib, phipsi_residual
        assert abs(abs(phib(0.3, PhibParams(1.0))) - 1) < 1e-8
        assert phipsi_residual(0.1, PhibParams(0.8 + 0.3j)) < 1e-6
    """)
    src = os.path.dirname(os.path.dirname(clusterdilog.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
