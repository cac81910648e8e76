import math
from types import SimpleNamespace

import numpy as np
import pytest

from geominimax.checks import _triangle_comparison_line
from geominimax.curvature import rceg_step_size, tau, xi, zeta
from geominimax.errors import DomainError, ParameterError
from geominimax.manifolds import Euclidean, Product, Spd, Sphere


def coth(x):
    return math.cosh(x) / math.sinh(x)


class TestZeta:
    def test_flat_limit(self):
        assert zeta(0.0, 2.7) == 1.0
        assert zeta(0.0, 0.0) == 1.0

    def test_scalar_oracle_values(self):
        # zeta(-1, 1) = 1 * coth(1); zeta(-4, 0.5) hits the same argument
        # because sqrt(4) * 0.5 = 1.
        assert abs(zeta(-1.0, 1.0) - coth(1.0)) < 1e-14
        assert abs(zeta(-1.0, 1.0) - 1.31304) < 1e-5
        assert abs(zeta(-4.0, 0.5) - coth(1.0)) < 1e-14

    def test_series_branch_matches_closed_form(self):
        # On both sides of the series cutoff the two formulas agree.
        for x in [2e-5, 9e-5, 9.9e-5, 1.01e-4, 5e-4]:
            series = 1.0 + x * x / 3.0 - x**4 / 45.0
            assert abs(series - x / math.tanh(x)) < 1e-12
            assert abs(zeta(-1.0, x) - x / math.tanh(x)) < 1e-12

    def test_near_zero_curvature_is_continuous(self):
        val = zeta(-1e-12, 3.0)
        assert 1.0 < val < 1.0 + 1e-11

    def test_monotone_in_curvature_and_diameter(self):
        cs = np.linspace(0.1, 5.0, 25)
        vals = [zeta(-1.0, c) for c in cs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        ks = np.linspace(0.0, -4.0, 25)
        vals = [zeta(k, 2.0) for k in ks]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v >= 1.0 for v in vals)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            zeta(0.5, 1.0)
        with pytest.raises(ParameterError):
            zeta(-1.0, -0.1)
        with pytest.raises(ParameterError):
            zeta(-1.0, math.inf)


class TestXi:
    def test_flat_limit(self):
        assert xi(0.0, 5.0) == 1.0

    def test_matches_zeta_for_nonpositive_curvature(self):
        assert abs(xi(-1.0, 1.0) - coth(1.0)) < 1e-14
        for k, c in [(-0.5, 2.0), (-3.0, 0.7), (0.0, 9.0)]:
            assert xi(k, c) == zeta(k, c)

    def test_positive_curvature_oracle(self):
        # xi(1, pi/4) = (pi/4) * cot(pi/4) = pi/4
        assert abs(xi(1.0, math.pi / 4.0) - math.pi / 4.0) < 1e-14
        assert 0.0 < xi(1.0, 1.5) <= 1.0

    def test_series_branch_for_positive_curvature(self):
        for x in [2e-5, 9.9e-5, 1.01e-4]:
            assert abs(xi(1.0, x) - x / math.tan(x)) < 1e-12

    def test_domain_boundary(self):
        with pytest.raises(DomainError):
            xi(1.0, math.pi / 2.0)
        with pytest.raises(DomainError):
            xi(4.0, math.pi / 4.0)
        xi(1.0, math.pi / 2.0 - 1e-6)  # just inside is fine

    def test_monotone_decreasing_in_diameter(self):
        cs = np.linspace(0.05, 1.5, 20)
        vals = [xi(1.0, c) for c in cs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def bounds(kappa_min, kappa_max, diameter):
    """The three numbers :func:`tau` reads from a manifold."""
    return SimpleNamespace(kappa_min=kappa_min, kappa_max=kappa_max, diameter_bound=diameter)


class TestTau:
    def test_flat_is_one(self):
        assert tau(Euclidean(2, 3.0)) == 1.0

    def test_hadamard_case(self):
        # Spd has kappa_min = -1/2, so a diameter of sqrt(2) puts the
        # argument of coth at 1.
        assert abs(tau(Spd(2, math.sqrt(2.0))) - coth(1.0)) < 1e-14

    def test_sphere_case(self):
        # zeta(0, pi/4) / xi(1, pi/4) = 1 / (pi/4)
        assert abs(tau(Sphere(3, math.pi / 4.0)) - 4.0 / math.pi) < 1e-14

    def test_mixed_curvature_case(self):
        # zeta(-1, pi/4) / xi(1, pi/4) = coth(pi/4), approximately 1.52487
        t = tau(bounds(-1.0, 1.0, math.pi / 4.0))
        assert abs(t - coth(math.pi / 4.0)) < 1e-14
        assert abs(t - 1.52487) < 1e-5

    def test_product_reads_its_combined_bounds(self):
        # A product's kappa_max is its factors' max and its diameter is
        # hypot(D_A, D_B), so a sphere factor limits the whole product:
        # sqrt(1) * hypot(pi/4, 10) = 10.03 and hypot(pi/4, 4) = 4.08 are
        # past pi/2, while two default spheres give D = pi / (2 sqrt(2))
        # and tau = zeta(0, D) / xi(1, D) = tan(D) / D, about 1.8168.
        with pytest.raises(DomainError):
            tau(Product(Sphere(3), Euclidean(2)))
        with pytest.raises(DomainError):
            tau(Product(Sphere(3), Spd(2, 4.0)))
        d = math.pi / (2.0 * math.sqrt(2.0))
        t = tau(Product(Sphere(3), Sphere(3)))
        assert abs(t - math.tan(d) / d) < 1e-14
        assert abs(t - 1.8168) < 1e-4

    def test_positive_lower_bound_counts_as_flat(self):
        assert tau(bounds(0.5, 1.0, 1.0)) == tau(bounds(0.0, 1.0, 1.0))

    def test_ratio_identity_and_lower_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            kmin = -float(rng.uniform(0.0, 4.0))
            kmax = float(rng.uniform(kmin, 1.0))
            if kmax > 0:
                d = float(rng.uniform(0.05, 0.99 * math.pi / (2 * math.sqrt(kmax))))
            else:
                d = float(rng.uniform(0.05, 5.0))
            t = tau(bounds(kmin, kmax, d))
            assert t >= 1.0
            assert abs(t * xi(kmax, d) - zeta(min(kmin, 0.0), d)) < 1e-12 * max(1.0, t)


class TestRcegStepSize:
    def test_flat_value(self):
        assert rceg_step_size(1.0, 1.0, 1.0) == 0.5

    def test_takes_worse_side(self):
        assert rceg_step_size(2.0, 4.0, 1.0) == pytest.approx(0.125, abs=1e-15)
        assert rceg_step_size(2.0, 1.0, 4.0) == pytest.approx(0.125, abs=1e-15)

    def test_hadamard_value(self):
        eta = rceg_step_size(1.0, coth(1.0), 1.0)
        assert abs(eta - 1.0 / (2.0 * math.sqrt(coth(1.0)))) < 1e-14
        assert abs(eta - 0.43637) < 5e-5

    def test_monotone_in_all_arguments(self):
        base = rceg_step_size(1.0, 2.0, 3.0)
        assert rceg_step_size(2.0, 2.0, 3.0) < base
        assert rceg_step_size(1.0, 4.0, 3.0) < base
        assert rceg_step_size(1.0, 2.0, 4.0) < base

    def test_validation(self):
        with pytest.raises(ParameterError):
            rceg_step_size(0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            rceg_step_size(1.0, 0.5, 1.0)


class TestTriangleComparison:
    def test_euclidean_is_tight(self):
        line = _triangle_comparison_line(Euclidean(5, 4.0), "e", 300, np.random.default_rng(2), slack=1e-9)
        assert line.passed
        assert line.worst <= 1e-9

    def test_spd_no_violations(self):
        line = _triangle_comparison_line(Spd(3, 2.0), "p", 300, np.random.default_rng(3), slack=1e-7)
        assert line.passed

    def test_sphere_no_violations(self):
        line = _triangle_comparison_line(
            Sphere(3, math.pi / 4.0), "s", 300, np.random.default_rng(4), slack=1e-7
        )
        assert line.passed

    def test_understated_curvature_fails(self):
        # Declaring the sphere flat asks for the Euclidean upper inequality,
        # which spherical triangles violate.
        sphere = Sphere(3, math.pi / 4.0)
        sphere.kappa_max = 0.0
        line = _triangle_comparison_line(sphere, "s", 300, np.random.default_rng(4), slack=1e-7)
        assert not line.passed
        assert line.worst > 1e-7

    def test_line_fields(self):
        line = _triangle_comparison_line(Spd(3, 2.0), "triangles.spd3", 7, np.random.default_rng(3), slack=1e-7)
        assert (line.name, line.trials) == ("triangles.spd3", 7)

    def test_degenerate_sampling_raises(self):
        # Every opposite side longer than the diameter: no triangle is admissible.
        m = Euclidean(2, 1.0)
        m.distance = lambda x, y: 2.0
        with pytest.raises(DomainError, match="degenerate"):
            _triangle_comparison_line(m, "e", 3, np.random.default_rng(0), slack=1e-7)

    def test_trials_validated(self):
        with pytest.raises(ParameterError):
            _triangle_comparison_line(Euclidean(2, 1.0), "e", 0, np.random.default_rng(0), slack=1e-7)
