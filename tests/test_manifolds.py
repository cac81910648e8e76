import copy
import math
import pickle

import numpy as np
import pytest

from geominimax.errors import (
    ContractError,
    DomainError,
    NoUniqueGeodesicError,
    ParameterError,
    StepTooLongError,
)
from geominimax.manifolds import Euclidean, Point, Product, Spd, Sphere, Tangent


def make_all():
    return [Euclidean(5, 4.0), Sphere(4, math.pi / 4.0), Spd(3, 4.0)]


def sampling_radius(m):
    return 0.9 * min(m.exp_guard, m.diameter_bound)


class TestEuclidean:
    def setup_method(self):
        self.m = Euclidean(2, 10.0)

    def test_exp_is_addition(self):
        x = self.m.point([1.0, 2.0])
        v = self.m.tangent(x, [0.5, -1.0])
        np.testing.assert_allclose(self.m.exp(x, v).value, [1.5, 1.0])

    def test_log_is_difference(self):
        x = self.m.point([1.0, 2.0])
        y = self.m.point([4.0, 6.0])
        np.testing.assert_allclose(self.m.log(x, y).value, [3.0, 4.0])
        assert self.m.distance(x, y) == 5.0

    def test_transport_keeps_coordinates(self):
        x = self.m.point([0.0, 0.0])
        y = self.m.point([3.0, -1.0])
        v = self.m.tangent(x, [2.0, 7.0])
        moved = self.m.transport(v, y)
        np.testing.assert_allclose(moved.value, v.value)
        assert moved.base == y

    def test_inner_is_dot(self):
        x = self.m.point([0.0, 0.0])
        u = self.m.tangent(x, [1.0, 2.0])
        v = self.m.tangent(x, [3.0, -1.0])
        assert self.m.inner(u, v) == 1.0

    def test_bad_dimension(self):
        with pytest.raises(ParameterError):
            self.m.point([1.0, 2.0, 3.0])
        with pytest.raises(ParameterError):
            Euclidean(0)


class TestSphere:
    def setup_method(self):
        self.m = Sphere(3, math.pi / 4.0)

    def test_quarter_turn(self):
        e1 = self.m.point([1.0, 0.0, 0.0])
        v = self.m.tangent(e1, [0.0, math.pi / 2.0, 0.0])
        out = self.m.exp(e1, v)
        np.testing.assert_allclose(out.value, [0.0, 1.0, 0.0], atol=1e-12)

    def test_log_and_distance_quarter_turn(self):
        e1 = self.m.point([1.0, 0.0, 0.0])
        e2 = self.m.point([0.0, 1.0, 0.0])
        np.testing.assert_allclose(self.m.log(e1, e2).value, [0.0, math.pi / 2.0, 0.0], atol=1e-12)
        assert abs(self.m.distance(e1, e2) - math.pi / 2.0) < 1e-15

    def test_exp_stays_on_sphere(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = self.m.random_point(rng)
            v = self.m.random_tangent(x, rng, norm=float(rng.uniform(0.0, 3.0)))
            y = self.m.exp(x, v)
            assert abs(np.linalg.norm(y.value) - 1.0) <= 1e-10

    def test_transport_orthogonal_component_unchanged(self):
        e1 = self.m.point([1.0, 0.0, 0.0])
        e2 = self.m.point([0.0, 1.0, 0.0])
        v = self.m.tangent(e1, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(self.m.transport(v, e2).value, [0.0, 0.0, 1.0], atol=1e-12)

    def test_transport_rotates_in_plane_component(self):
        e1 = self.m.point([1.0, 0.0, 0.0])
        e2 = self.m.point([0.0, 1.0, 0.0])
        v = self.m.tangent(e1, [0.0, 1.0, 0.0])
        # the unit tangent pointing at e2 becomes -e1 after a quarter turn
        np.testing.assert_allclose(self.m.transport(v, e2).value, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_antipodal_log_rejected(self):
        x = self.m.point([1.0, 0.0, 0.0])
        y = self.m.point([-1.0, 0.0, 0.0])
        with pytest.raises(NoUniqueGeodesicError):
            self.m.log(x, y)

    def test_exp_guard(self):
        x = self.m.point([1.0, 0.0, 0.0])
        v = self.m.tangent(x, [0.0, math.pi, 0.0])
        with pytest.raises(StepTooLongError):
            self.m.exp(x, v)

    def test_membership_checked(self):
        with pytest.raises(ParameterError):
            self.m.point([1.0, 1.0, 0.0])
        # mild drift is projected away
        p = self.m.point([1.0 + 5e-9, 0.0, 0.0])
        assert abs(np.linalg.norm(p.value) - 1.0) < 1e-15

    def test_diameter_bound_range(self):
        with pytest.raises(ParameterError):
            Sphere(3, math.pi / 2.0)
        with pytest.raises(ParameterError):
            Sphere(1)


class TestSpd:
    def setup_method(self):
        self.m = Spd(2, 6.0)

    def test_exp_at_identity_is_matrix_exp(self):
        x = self.m.identity()
        v = self.m.tangent(x, np.diag([1.0, -1.0]))
        np.testing.assert_allclose(
            self.m.exp(x, v).value, np.diag([math.e, 1.0 / math.e]), atol=1e-12
        )

    def test_log_at_identity_is_matrix_log(self):
        x = self.m.identity()
        y = self.m.point(np.diag([math.e**2, 1.0]))
        np.testing.assert_allclose(self.m.log(x, y).value, np.diag([2.0, 0.0]), atol=1e-12)
        assert abs(self.m.distance(x, y) - 2.0) < 1e-12

    def test_inner_at_identity_is_frobenius(self):
        x = self.m.identity()
        u = self.m.tangent(x, np.diag([1.0, 2.0]))
        v = self.m.tangent(x, np.diag([3.0, 4.0]))
        assert abs(self.m.inner(u, v) - 11.0) < 1e-12

    def test_distance_is_affine_invariant_under_scaling(self):
        rng = np.random.default_rng(9)
        from geominimax.linalg import random_spd

        for _ in range(50):
            x = self.m.point(random_spd(2, 0.5, 2.0, rng))
            y = self.m.point(random_spd(2, 0.5, 2.0, rng))
            c = float(rng.uniform(0.1, 10.0))
            xc = self.m.point(c * x.value)
            yc = self.m.point(c * y.value)
            assert abs(self.m.distance(xc, yc) - self.m.distance(x, y)) < 1e-10

    def test_midpoint_is_equidistant(self):
        rng = np.random.default_rng(10)
        from geominimax.linalg import random_spd

        for _ in range(50):
            x = self.m.point(random_spd(2, 0.2, 4.0, rng))
            y = self.m.point(random_spd(2, 0.2, 4.0, rng))
            mid = self.m.exp(x, 0.5 * self.m.log(x, y))
            assert abs(self.m.distance(x, mid) - self.m.distance(mid, y)) < 1e-8

    def test_transport_hand_value(self):
        # With x = I and u = diag(2, 0): w = diag(e^2, 1), the transport
        # matrix is diag(e, 1), so u moves to diag(2 e^2, 0), and the
        # logarithm back to x is its negative.
        x = self.m.identity()
        u = self.m.tangent(x, np.diag([2.0, 0.0]))
        w = self.m.exp(x, u)
        moved = self.m.transport(u, w)
        np.testing.assert_allclose(moved.value, np.diag([2.0 * math.e**2, 0.0]), atol=1e-10)
        np.testing.assert_allclose(self.m.log(w, x).value, -moved.value, atol=1e-10)

    def test_rejects_bad_points(self):
        with pytest.raises(DomainError):
            self.m.point(np.diag([1.0, -1.0]))
        with pytest.raises(DomainError):
            self.m.point(np.diag([1.0, 0.0]))
        with pytest.raises(ParameterError):
            self.m.point(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(DomainError):
            self.m.point(np.full((2, 2), np.nan))

    def test_step_too_long_guard(self):
        x = self.m.identity()
        v = self.m.tangent(x, np.diag([400.0, 0.0]))
        with pytest.raises(StepTooLongError):
            self.m.exp(x, v)

    def test_exp_rejects_a_singular_result(self):
        """exp(-40) is below the positivity floor: the step leaves SPD."""
        m = Spd(2)
        x = m.identity()
        with pytest.raises(DomainError, match="not positive definite"):
            m.exp(x, m.tangent(x, np.diag([-40.0, 0.0])))


class TestSpdLogStack:
    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_members_equal_separate_logs(self, n):
        from geominimax.linalg import random_spd

        m = Spd(n)
        rng = np.random.default_rng(80 + n)
        x = m.point(random_spd(n, 0.2, 4.5, rng))
        targets = [m.point(random_spd(n, 0.2, 4.5, rng)) for _ in range(4)] + [x]
        logs, sqs = m.log_stack(x, np.stack([t.value for t in targets]))
        assert logs.shape == (5, n, n) and sqs.shape == (5,)
        for got, sq, t in zip(logs, sqs, targets):
            lg = m.log(x, t)
            assert np.array_equal(got, lg.value)
            assert sq == m.inner(lg, lg)
        one_log, one_sq = m.log_stack(x, x.value[None])
        lg = m.log(x, x)
        assert np.array_equal(one_log[0], lg.value) and one_sq[0] == m.inner(lg, lg)

    def test_non_positive_member_raises_the_log_message(self):
        # Both points are SPD, but x^-1/2 y x^-1/2 = diag(1, 1e-13, 1) is
        # below the relative positivity floor.
        m = Spd(3)
        x = m.point(np.diag([1.0, 100.0, 1.0]))
        good = m.point(np.diag([2.0, 1.0, 0.5]))
        bad = m.point(np.diag([1.0, 1e-11, 1.0]))
        with pytest.raises(DomainError) as single:
            m.log(x, bad)
        with pytest.raises(DomainError) as stacked:
            m.log_stack(x, np.stack([good.value, bad.value, good.value]))
        assert "not positive definite relative to the base" in str(single.value)
        assert str(stacked.value) == str(single.value)

    def test_first_of_two_non_positive_members_is_named(self):
        m = Spd(3)
        x = m.point(np.diag([1.0, 100.0, 1.0]))
        good = m.point(np.diag([2.0, 1.0, 0.5]))
        bad = [m.point(np.diag([1.0, 1e-11, 1.0])), m.point(np.diag([1.0, 3e-11, 1.0]))]
        messages = []
        for b in bad:
            with pytest.raises(DomainError) as single:
                m.log(x, b)
            messages.append(str(single.value))
        assert messages[0] != messages[1]
        for first, second, message in ((bad[0], bad[1], messages[0]), (bad[1], bad[0], messages[1])):
            with pytest.raises(DomainError) as stacked:
                m.log_stack(x, np.stack([good.value, first.value, good.value, second.value]))
            assert str(stacked.value) == message


class TestReverseVelocity:
    """``_reverse_velocity(exp(x, v))`` is ``Log_w(x)`` for ``w = exp(x, v)``,
    taken from the geodesic ``exp`` walked instead of a logarithm. Steps
    are at least 0.01 long: below that the logarithm, which cancels, is
    the less accurate side (relative error about 1e-16 over the length)."""

    @staticmethod
    def rel_err(m, w, x):
        got = m._reverse_velocity(w)
        want = m.log(w, x)
        assert isinstance(got, np.ndarray) and got.shape == want.value.shape
        return m.norm(Tangent(w, got) - want) / m.norm(want)

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_spd(self, n):
        from geominimax.linalg import random_spd

        m = Spd(n)
        rng = np.random.default_rng(120 + n)
        for _ in range(10):
            x = m.point(random_spd(n, 0.2, 4.5, rng))
            for length in (0.1, 0.5, 2.0, 5.0):
                v = m.random_tangent(x, rng, norm=length)
                assert self.rel_err(m, m.exp(x, v), x) < 1e-11

    @pytest.mark.parametrize("theta", [0.01, 0.1, 0.7, 1.5, 2.5, 3.0])
    def test_sphere(self, theta):
        m = Sphere(20)
        rng = np.random.default_rng(130)
        for _ in range(10):
            x = m.random_point(rng)
            v = m.random_tangent(x, rng, norm=theta)
            assert self.rel_err(m, m.exp(x, v), x) < 1e-12

    def test_euclidean(self):
        m = Euclidean(5)
        rng = np.random.default_rng(140)
        for _ in range(10):
            x = m.random_point(rng)
            v = m.random_tangent(x, rng, norm=3.0)
            assert np.array_equal(m._reverse_velocity(m.exp(x, v)), -v.value)
            assert self.rel_err(m, m.exp(x, v), x) < 1e-14

    def test_zero_step(self):
        for m in make_all():
            x = m.random_point(np.random.default_rng(150))
            w = m.exp(x, m.zero_tangent(x))
            assert m.norm(Tangent(w, m._reverse_velocity(w))) == 0.0

    def test_product_has_none(self):
        m = Product(Sphere(3), Euclidean(2))
        x = m.random_point(np.random.default_rng(160))
        with pytest.raises(NotImplementedError):
            m._reverse_velocity(m.exp(x, m.zero_tangent(x)))


@pytest.mark.parametrize("make", [lambda d: Euclidean(2, d), lambda d: Spd(2, d), lambda d: Sphere(3, d)])
@pytest.mark.parametrize("d", [0.0, -1.0, math.inf, math.nan])
def test_diameter_must_be_positive_and_finite(make, d):
    with pytest.raises(ParameterError):
        make(d)


def test_sphere_diameter_below_half_pi():
    with pytest.raises(ParameterError):
        Sphere(3, math.pi / 2.0)
    assert Sphere(3, math.pi / 2.0 - 1e-9).diameter_bound == math.pi / 2.0 - 1e-9


class TestSharedProperties:
    def test_exp_log_round_trip(self):
        for m in make_all():
            rng = np.random.default_rng(42)
            r = sampling_radius(m)
            for _ in range(200):
                x = m.random_point(rng)
                v = m.random_tangent(x, rng, norm=float(rng.uniform(0.0, r)))
                back = m.log(x, m.exp(x, v))
                err = np.linalg.norm((back.value - v.value).ravel())
                assert err <= 1e-8 * max(1.0, np.linalg.norm(v.value.ravel())), m.name

    def test_exp_preserves_tangent_norm_as_distance(self):
        for m in make_all():
            rng = np.random.default_rng(43)
            r = sampling_radius(m)
            for _ in range(100):
                x = m.random_point(rng)
                v = m.random_tangent(x, rng, norm=float(rng.uniform(0.0, r)))
                d = m.distance(x, m.exp(x, v))
                assert abs(d - m.norm(v)) <= 1e-8 * max(1.0, m.norm(v)), m.name

    def test_transport_is_isometric(self):
        for m in make_all():
            rng = np.random.default_rng(44)
            for _ in range(30):
                x = m.random_point(rng)
                y = m.exp(x, m.random_tangent(x, rng, norm=float(rng.uniform(0.0, sampling_radius(m)))))
                basis = m.tangent_basis(x)
                moved = [m.transport(e, y) for e in basis]
                gram = np.array([[m.inner(a, b) for b in moved] for a in moved])
                np.testing.assert_allclose(gram, np.eye(m.dim), atol=1e-8)

    def test_log_of_base_after_exp_is_minus_transport(self):
        # If w = Exp_x(u) then Log_w(x) = -transport(u, w).
        for m in make_all():
            rng = np.random.default_rng(45)
            for _ in range(100):
                x = m.random_point(rng)
                u = m.random_tangent(x, rng, norm=float(rng.uniform(0.0, sampling_radius(m))))
                w = m.exp(x, u)
                lhs = m.log(w, x).value
                rhs = -m.transport(u, w).value
                assert np.linalg.norm((lhs - rhs).ravel()) <= 1e-8 * max(
                    1.0, np.linalg.norm(u.value.ravel())
                ), m.name

    def test_tangent_basis_is_orthonormal(self):
        for m in make_all():
            rng = np.random.default_rng(46)
            x = m.random_point(rng)
            basis = m.tangent_basis(x)
            assert len(basis) == m.dim
            gram = np.array([[m.inner(a, b) for b in basis] for a in basis])
            np.testing.assert_allclose(gram, np.eye(m.dim), atol=1e-10)

    def test_zero_tangent_is_fixed_point(self):
        for m in make_all():
            rng = np.random.default_rng(47)
            x = m.random_point(rng)
            y = m.exp(x, m.zero_tangent(x))
            assert np.allclose(y.value, x.value, atol=1e-14)
            assert m.distance(x, y) <= 1e-12

    def test_tangent_constructor_rejects_non_tangent(self):
        s = Sphere(3, 1.0)
        x = s.point([1.0, 0.0, 0.0])
        with pytest.raises(ContractError):
            s.tangent(x, [1.0, 0.0, 0.0])  # purely radial

    def test_mixed_base_arithmetic_rejected(self):
        m = Euclidean(2, 5.0)
        x = m.point([0.0, 0.0])
        y = m.point([1.0, 0.0])
        u = m.tangent(x, [1.0, 1.0])
        v = m.tangent(y, [1.0, 1.0])
        with pytest.raises(ContractError):
            _ = u + v
        with pytest.raises(ContractError):
            m.inner(u, v)

    def test_point_arrays_are_read_only(self):
        m = Euclidean(2, 5.0)
        x = m.point([0.0, 1.0])
        with pytest.raises(ValueError):
            x.value[0] = 3.0


def manifolds_with_product():
    return make_all() + [Product(Sphere(3, math.pi / 4.0), Spd(2, 4.0))]


class TestWrapping:
    """Points and tangents keep what they wrap: the array a caller passed is
    copied, every array the package hands out is read-only, and the
    wrappers' attributes cannot be reassigned."""

    @pytest.mark.parametrize("m", manifolds_with_product(), ids=lambda m: m.name)
    def test_caller_arrays_are_copied(self, m):
        rng = np.random.default_rng(60)
        x = m.random_point(rng)
        v = m.random_tangent(x, rng)
        for wrap, arr, base in (
            (lambda a: Point(m, a), x.value.copy(), None),
            (lambda a: m.point(a), x.value.copy(), None),
            (lambda a: Tangent(x, a), v.value.copy(), x),
            (lambda a: m.tangent(x, a), v.value.copy(), x),
        ):
            wrapped = wrap(arr)
            before = wrapped.value.copy()
            arr += 1.0
            assert np.array_equal(wrapped.value, before)
            assert wrapped.value.flags.writeable is False
            assert base is None or wrapped.base is base

    @pytest.mark.parametrize("m", manifolds_with_product(), ids=lambda m: m.name)
    def test_operation_results_are_read_only(self, m):
        rng = np.random.default_rng(61)
        x = m.random_point(rng)
        v = m.random_tangent(x, rng, norm=0.3)
        y = m.exp(x, v)
        out = [
            y.value,
            m.log(x, y).value,
            m.transport(v, y).value,
            (v + v).value,
            (v - v).value,
            (2.0 * v).value,
            (-v).value,
            m.zero_tangent(x).value,
        ]
        out += [e.value for e in m.tangent_basis(x)]
        for arr in out:
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_attributes_cannot_be_reassigned(self):
        m = Euclidean(2, 5.0)
        x = m.point([0.0, 1.0])
        v = m.tangent(x, [1.0, 0.0])
        for obj, name in ((x, "value"), (x, "manifold"), (x, "cache"), (v, "value"), (v, "base")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            x.extra = 1

    def test_copies_keep_value_and_base(self):
        m = Spd(3, 4.0)
        x = m.identity()
        v = m.tangent(x, np.diag([1.0, 2.0, 3.0]))
        y = pickle.loads(pickle.dumps(x))
        assert np.array_equal(y.value, x.value) and y.manifold.n == 3
        w = copy.deepcopy(v)
        assert np.array_equal(w.value, v.value) and np.array_equal(w.base.value, x.value)
        assert not w.value.flags.writeable


def loop_random_tangent(m, x, rng, norm):
    """``random_tangent`` as a loop of ``out = out + c * e`` over the basis."""
    basis = m.tangent_basis(x)
    coeff = rng.standard_normal(len(basis))
    if norm is not None:
        coeff = coeff * (float(norm) / np.linalg.norm(coeff))
    out = np.zeros_like(x.value)
    for c, e in zip(coeff, basis):
        out = out + c * e.value
    return out


class TestStackedBasis:
    """``random_tangent`` sums its terms over the stacked basis with the bits
    of the loop, and the SPD basis is built in one broadcast with the bits of
    one outer product per pair."""

    @pytest.mark.parametrize(
        "m", [Euclidean(7), Sphere(5), Spd(1), Spd(3), Spd(10)] + manifolds_with_product()[-1:], ids=repr
    )
    def test_random_tangent_equals_the_loop(self, m):
        for seed in range(4):
            x = m.random_point(np.random.default_rng(70 + seed))
            for norm in (None, 0.4):
                v = m.random_tangent(x, np.random.default_rng(seed), norm=norm)
                assert np.array_equal(v.value, loop_random_tangent(m, x, np.random.default_rng(seed), norm))

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_spd_basis_is_one_outer_product_per_pair(self, n):
        m = Spd(n)
        x = m.random_point(np.random.default_rng(n))
        cols = [m._sqrt(x)[:, i] for i in range(n)]
        expected = []
        for i in range(n):
            for j in range(i, n):
                outer = np.outer(cols[i], cols[j])
                expected.append(outer if i == j else (outer + outer.T) * (1.0 / np.sqrt(2.0)))
        basis = m.tangent_basis(x)
        assert len(basis) == len(expected) == m.dim
        for e, ref in zip(basis, expected):
            assert np.array_equal(e.value, ref) and e.value.flags.c_contiguous


class TestProduct:
    def setup_method(self):
        self.m = Product(Sphere(3, math.pi / 4.0), Spd(2, 4.0))

    def test_metadata(self):
        assert self.m.dim == 2 + 3
        assert self.m.kappa_min == -0.5
        assert self.m.kappa_max == 1.0
        assert abs(self.m.diameter_bound - math.hypot(math.pi / 4.0, 4.0)) < 1e-15

    def test_componentwise_exp_matches_factors_exactly(self):
        rng = np.random.default_rng(50)
        x = self.m.random_point(rng)
        v = self.m.random_tangent(x, rng, norm=0.7)
        xa, xb = self.m.split(x)
        va, vb = self.m.split_tangent(v)
        out = self.m.exp(x, v)
        oa, ob = self.m.split(out)
        assert np.array_equal(oa.value, self.m.a.exp(xa, va).value)
        assert np.array_equal(ob.value, self.m.b.exp(xb, vb).value)

    def test_distance_is_hypot_of_components(self):
        rng = np.random.default_rng(51)
        x = self.m.random_point(rng)
        y = self.m.random_point(rng)
        xa, xb = self.m.split(x)
        ya, yb = self.m.split(y)
        expected = math.hypot(self.m.a.distance(xa, ya), self.m.b.distance(xb, yb))
        assert abs(self.m.distance(x, y) - expected) < 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            x = self.m.random_point(rng)
            v = self.m.random_tangent(x, rng, norm=float(rng.uniform(0.0, 0.6)))
            back = self.m.log(x, self.m.exp(x, v))
            assert np.linalg.norm(back.value - v.value) <= 1e-8

    def test_join_split_inverse(self):
        rng = np.random.default_rng(53)
        pa = self.m.a.random_point(rng)
        pb = self.m.b.random_point(rng)
        joined = self.m.join(pa, pb)
        qa, qb = self.m.split(joined)
        assert qa is pa and qb is pb

    def test_point_validation_propagates(self):
        bad = np.concatenate([np.array([1.0, 1.0, 0.0]), np.eye(2).ravel()])
        with pytest.raises(ParameterError):
            self.m.point(bad)
