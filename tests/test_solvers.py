"""Tests for the saddle solvers, geodesic averaging, and gap estimation."""

import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from geominimax import (
    ContractError,
    Euclidean,
    MinimaxProblem,
    NumericalError,
    ParameterError,
    Spd,
    Sphere,
    StepTooLongError,
    Tangent,
    certified_gap,
    estimate_duality_gap,
    euclidean_quadratic,
    geodesic_average_update,
    make_state,
    rceg_step,
    resolve_step_size,
    rgda_step,
    riemannian_bb,
    riemannian_gd,
    robust_pca,
    run,
    spd_bilinear,
)
from geominimax import solvers
from geominimax.harness import TRACE_HEADER, ExperimentConfig, build_problem
from geominimax.linalg import random_spd
from geominimax.manifolds import Product


def scalar_bilinear():
    """f(x, y) = x * y on R x R, saddle at the origin, L = 1."""
    return euclidean_quadratic(np.array([[1.0]]))


def decoupled_spd(n, rng, diameter_bound=8.0):
    """f(x, y) = d^2(x, a)/2 - d^2(y, b)/2 on SPD(n) x SPD(n).

    Geodesically strongly convex-concave with saddle (a, b) and
    closed-form gradients, which makes it a convenient oracle for
    averaging and duality-gap properties.
    """
    mx = Spd(n, diameter_bound=diameter_bound)
    my = Spd(n, diameter_bound=diameter_bound)
    a = mx.point(random_spd(n, 0.5, 2.0, rng))
    b = my.point(random_spd(n, 0.5, 2.0, rng))

    def value(x, y):
        return 0.5 * mx.distance(x, a) ** 2 - 0.5 * my.distance(y, b) ** 2

    return MinimaxProblem(
        name="decoupled_spd",
        manifold_x=mx,
        manifold_y=my,
        value=value,
        grad_x=lambda x, y: -1.0 * mx.log(x, a),
        grad_y=lambda x, y: my.log(y, b),
        smoothness_l=2.0,
        known_saddle=(a, b),
    )


def count_inner_solves(monkeypatch):
    """Patch ``solvers.riemannian_bb`` to record the manifold of every call."""
    calls = []
    bb = solvers.riemannian_bb

    def counted(manifold, *args):
        calls.append(manifold)
        return bb(manifold, *args)

    monkeypatch.setattr(solvers, "riemannian_bb", counted)
    return calls


def classical_eg_step(b, x, y, eta):
    """Textbook extragradient iteration for f(x, y) = x . (b y) on arrays."""
    w = x - eta * (b @ y)
    z = y + eta * (b.T @ x)
    x1 = x - eta * (b @ z)
    y1 = y + eta * (b.T @ w)
    return x1, y1, w, z


class TestRcegStep:
    def test_hand_executed_scalar_step(self):
        """f = xy from (1, 1) with eta = 0.5: w = 0.5, z = 1.5, then
        x+ = 0.5 - 0.5*1.5 + (1 - 0.5) = 0.25 and
        y+ = 1.5 + 0.5*0.5 + (1 - 1.5) = 1.25."""
        p = scalar_bilinear()
        s = make_state(p, p.manifold_x.point([1.0]), p.manifold_y.point([1.0]), 0.5)
        s1 = rceg_step(p, s)
        w, z = p.domain.split(s1.extrapolated)
        x1, y1 = p.domain.split(s1.current)
        assert w.value[0] == pytest.approx(0.5, abs=1e-15)
        assert z.value[0] == pytest.approx(1.5, abs=1e-15)
        assert x1.value[0] == pytest.approx(0.25, abs=1e-15)
        assert y1.value[0] == pytest.approx(1.25, abs=1e-15)
        assert s1.t == 1

    def test_matches_classical_extragradient_one_step(self):
        """On flat space the corrected update is exactly classical EG."""
        rng = np.random.default_rng(7)
        b = rng.standard_normal((4, 4))
        p = euclidean_quadratic(b)
        eta = 0.3 / np.linalg.norm(b, 2)
        for _ in range(10):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            s1 = rceg_step(p, make_state(p, p.manifold_x.point(x), p.manifold_y.point(y), eta))
            x1, y1 = p.domain.split(s1.current)
            w, z = p.domain.split(s1.extrapolated)
            ex1, ey1, ew, ez = classical_eg_step(b, x, y, eta)
            np.testing.assert_allclose(w.value, ew, atol=1e-12)
            np.testing.assert_allclose(z.value, ez, atol=1e-12)
            np.testing.assert_allclose(x1.value, ex1, atol=1e-12)
            np.testing.assert_allclose(y1.value, ey1, atol=1e-12)

    def test_matches_classical_extragradient_trajectory(self):
        rng = np.random.default_rng(21)
        b = rng.standard_normal((3, 3))
        p = euclidean_quadratic(b)
        eta = 0.25 / np.linalg.norm(b, 2)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        s = make_state(p, p.manifold_x.point(x), p.manifold_y.point(y), eta)
        for _ in range(200):
            s = rceg_step(p, s)
            x, y = classical_eg_step(b, x, y, eta)[:2]
        xs, ys = p.domain.split(s.current)
        np.testing.assert_allclose(xs.value, x, atol=1e-10)
        np.testing.assert_allclose(ys.value, y, atol=1e-10)

    def test_correction_identity_on_spd(self):
        """Log_w(x+) = Log_w(x) - eta grad_x f(w, z) after every step."""
        rng = np.random.default_rng(3)
        p = spd_bilinear(random_spd(3, 0.5, 2.0, rng), random_spd(3, 0.5, 2.0, rng))
        mx, my = p.manifold_x, p.manifold_y
        x = mx.point(random_spd(3, 0.6, 1.8, rng))
        y = my.point(random_spd(3, 0.6, 1.8, rng))
        s = make_state(p, x, y, 0.1)
        for _ in range(3):
            x_old, y_old = p.domain.split(s.current)
            s = rceg_step(p, s)
            w, z = p.domain.split(s.extrapolated)
            x_new, y_new = p.domain.split(s.current)
            lhs = mx.log(w, x_new)
            rhs = mx.log(w, x_old) + (-s.eta) * p.grad_x(w, z)
            assert mx.norm(lhs - rhs) < 1e-8
            lhs_y = my.log(z, y_new)
            rhs_y = my.log(z, y_old) + s.eta * p.grad_y(w, z)
            assert my.norm(lhs_y - rhs_y) < 1e-8

    def test_correction_identity_on_sphere_spd_product(self):
        rng = np.random.default_rng(11)
        data = [random_spd(4, 0.8, 1.6, rng) for _ in range(3)]
        p = robust_pca(data, alpha=1.0)
        mx, my = p.manifold_x, p.manifold_y
        x = mx.random_point(rng, near=mx.point(np.eye(4)[0]), radius=0.2)
        y = my.point(np.mean(data, axis=0))
        s = make_state(p, x, y, 0.05)
        for _ in range(3):
            x_old, y_old = p.domain.split(s.current)
            s = rceg_step(p, s)
            w, z = p.domain.split(s.extrapolated)
            x_new, y_new = p.domain.split(s.current)
            assert mx.norm(mx.log(w, x_new) - (mx.log(w, x_old) + (-s.eta) * p.grad_x(w, z))) < 1e-8
            assert my.norm(my.log(z, y_new) - (my.log(z, y_old) + s.eta * p.grad_y(w, z))) < 1e-8

    def test_fixed_point_at_saddle(self):
        """At the saddle both gradients vanish, so the state stays put."""
        rng = np.random.default_rng(5)
        p = decoupled_spd(3, rng)
        a, b = p.known_saddle
        s = rceg_step(p, make_state(p, a, b, 0.25))
        x1, y1 = p.domain.split(s.current)
        np.testing.assert_allclose(x1.value, a.value, atol=1e-12)
        np.testing.assert_allclose(y1.value, b.value, atol=1e-12)


def reference_step(problem, state, corrected):
    """One RCEG step (RGDA with ``corrected=False``) in ``Tangent``
    arithmetic: ``(current, extrapolated)`` as factor pairs, with the
    correction ``Log_w(x)`` read as the reversed end velocity of the
    extrapolation. The steppers form their tangents from the arrays and
    must equal this bit for bit."""
    mx, my = problem.manifold_x, problem.manifold_y
    eta = state.eta
    x, y = problem.domain.split(state.current)
    w = mx.exp(x, (-eta) * problem.grad_x(x, y))
    z = my.exp(y, eta * problem.grad_y(x, y))
    if not corrected:
        return (w, z), (w, z)
    gxw, gyz = problem.grad_x(w, z), problem.grad_y(w, z)
    x1 = mx.exp(w, (-eta) * gxw + Tangent(w, mx._reverse_velocity(w)))
    y1 = my.exp(z, eta * gyz + Tangent(z, my._reverse_velocity(z)))
    return (x1, y1), (w, z)


def three_geometries():
    """Euclidean x Euclidean, Sphere x SPD and SPD x SPD, each with a start and a step size."""
    rng = np.random.default_rng(31)
    flat = euclidean_quadratic(rng.standard_normal((5, 5)))
    flat_start = (flat.manifold_x.point(rng.standard_normal(5)), flat.manifold_y.point(rng.standard_normal(5)))
    data = [random_spd(4, 0.8, 1.6, rng) for _ in range(3)]
    rpca = robust_pca(data, alpha=1.0)
    rpca_start = (rpca.manifold_x.point(np.ones(4) / 2.0), rpca.manifold_y.point(np.mean(data, axis=0)))
    curved = spd_bilinear(random_spd(4, 0.8, 1.25, rng), random_spd(4, 0.8, 1.25, rng))
    curved_start = (curved.manifold_x.identity(), curved.manifold_y.identity())
    return [(flat, flat_start, 0.1), (rpca, rpca_start, 0.05), (curved, curved_start, 0.2)]


class TestStepsEqualTangentArithmetic:
    @pytest.mark.parametrize("problem, start, eta", three_geometries(), ids=lambda p: getattr(p, "name", ""))
    @pytest.mark.parametrize("algo", ["rceg", "rgda"])
    def test_bit_for_bit(self, problem, start, eta, algo):
        prod = problem.domain
        s = make_state(problem, *start, eta)
        for _ in range(8):
            (x1, y1), (w, z) = reference_step(problem, s, corrected=algo == "rceg")
            s = solvers._STEPPERS[algo](problem, s)
            assert np.array_equal(s.current.value, prod.join(x1, y1).value)
            assert np.array_equal(s.extrapolated.value, prod.join(w, z).value)

    def test_a_gradient_at_another_point_is_refused(self):
        """The corrected update adds ``Log_w(x)`` to the gradient at ``w``, so
        a gradient based elsewhere is a contract violation, as in ``+``."""
        p = scalar_bilinear()
        origin = p.manifold_x.point([0.0])
        wrong = MinimaxProblem(
            name="wrong_base",
            manifold_x=p.manifold_x,
            manifold_y=p.manifold_y,
            value=p.value,
            grad_x=lambda x, y: p.manifold_x.tangent(origin, [1.0]),
            grad_y=p.grad_y,
            smoothness_l=1.0,
        )
        s = make_state(wrong, origin, p.manifold_y.point([1.0]), 0.5)
        with pytest.raises(ContractError, match="tangent vectors have different base points"):
            rceg_step(wrong, s)
        with pytest.raises(ContractError, match="tangent is based at a different point"):
            rceg_step(wrong, make_state(wrong, p.manifold_x.point([1.0]), p.manifold_y.point([1.0]), 0.5))


@pytest.mark.parametrize("problem, start, eta", three_geometries(), ids=lambda p: getattr(p, "name", ""))
@pytest.mark.parametrize("algo, tangents", [("rceg", 6), ("rgda", 2)])
def test_tangents_built_per_step(monkeypatch, problem, start, eta, algo, tangents):
    """Given the gradients at the current pair, an RCEG step builds one
    tangent per exponential and per gradient at the extrapolated pair; its
    corrections are arrays. RGDA builds one per exponential."""
    s = make_state(problem, *start, eta)
    grads = (problem.grad_x(s.x, s.y), problem.grad_y(s.x, s.y))
    built = []
    wrap = Tangent._wrap

    def counted(base, value):
        built.append(1)
        return wrap(base, value)

    monkeypatch.setattr(Tangent, "_wrap", staticmethod(counted))
    solvers._STEPPERS[algo](problem, s, grads)
    assert len(built) == tangents


class TestPairState:
    """The state holds factor points; the product points are joined only
    when read, and :func:`run` never reads them on its per-step path."""

    def test_run_joins_no_more_for_more_iterations(self, monkeypatch):
        joins = []
        join = Product.join

        def counted(self, pa, pb):
            joins.append(1)
            return join(self, pa, pb)

        monkeypatch.setattr(Product, "join", counted)
        rng = np.random.default_rng(53)
        p = euclidean_quadratic(rng.standard_normal((4, 4)))
        start = (p.manifold_x.point(rng.standard_normal(4)), p.manifold_y.point(rng.standard_normal(4)))
        counts = []
        for iters in (10, 1000):
            joins.clear()
            res = run(p, "rceg", iters=iters, start=start, eta=0.05, keep_averages=False)
            assert res.status == "ok" and res.state.t == iters
            counts.append(len(joins))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("algo", ["rceg", "rgda"])
    def test_pairs_are_joined_on_read(self, algo):
        p = scalar_bilinear()
        s = make_state(p, p.manifold_x.point([1.0]), p.manifold_y.point([0.5]), 0.25)
        assert s.extrapolated is None
        s = solvers._STEPPERS[algo](p, solvers._STEPPERS[algo](p, s))
        current, extrapolated = s.current, s.extrapolated
        assert current == p.domain.join(s.x, s.y) and extrapolated == p.domain.join(s.w, s.z)
        assert all(a is b for a, b in zip(p.domain.split(current), (s.x, s.y)))
        assert all(a is b for a, b in zip(p.domain.split(extrapolated), (s.w, s.z)))

    def test_state_is_read_only_and_pickles(self):
        p = scalar_bilinear()
        s = rceg_step(p, make_state(p, p.manifold_x.point([1.0]), p.manifold_y.point([0.5]), 0.25))
        with pytest.raises(FrozenInstanceError):
            s.x = s.y
        for name in ("t", "current"):
            with pytest.raises(FrozenInstanceError):
                setattr(s, name, None)
        copy = pickle.loads(pickle.dumps(s))
        assert (copy.t, copy.eta) == (s.t, s.eta)
        for name in ("x", "y", "w", "z", "current", "extrapolated"):
            assert np.array_equal(getattr(copy, name).value, getattr(s, name).value)

    def test_state_validates_counter_and_step_size(self):
        p = scalar_bilinear()
        x, y = p.manifold_x.point([1.0]), p.manifold_y.point([0.5])
        with pytest.raises(ParameterError):
            solvers.SolverState(p.domain, -1, x, y, None, None, 0.1)
        for eta in (0.0, -0.1, float("inf"), float("nan")):
            with pytest.raises(ParameterError):
                make_state(p, x, y, eta)

    def test_replace_and_make_validate_too(self):
        p = scalar_bilinear()
        s = make_state(p, p.manifold_x.point([1.0]), p.manifold_y.point([0.5]), 0.25)
        for change in ({"t": -1}, {"eta": float("nan")}):
            with pytest.raises(ParameterError):
                s._replace(**change)
        with pytest.raises(ParameterError):
            solvers.SolverState._make([p.domain, -1, s.x, s.y, None, None, 0.25])
        moved = s._replace(t=3)
        assert type(moved) is solvers.SolverState and moved.t == 3 and moved.x is s.x

    def test_records_are_read_only_and_pickle(self):
        p = scalar_bilinear()
        res = run(p, "rceg", iters=2, start=(p.manifold_x.point([1.0]), p.manifold_y.point([0.5])), eta=0.25)
        r = res.records[-1]
        with pytest.raises(FrozenInstanceError):
            r.value = 0.0
        fields = solvers.IterationRecord._fields
        assert ",".join(fields) == TRACE_HEADER.replace("iter,", "t,", 1)
        copy = pickle.loads(pickle.dumps(r))
        assert [getattr(copy, f) for f in fields] == [getattr(r, f) for f in fields]


class TestRgdaStep:
    def test_hand_executed_scalar_step(self):
        """f = xy from (1, 1) with eta = 0.5 moves to (0.5, 1.5)."""
        p = scalar_bilinear()
        s1 = rgda_step(p, make_state(p, p.manifold_x.point([1.0]), p.manifold_y.point([1.0]), 0.5))
        x1, y1 = p.domain.split(s1.current)
        assert x1.value[0] == pytest.approx(0.5, abs=1e-15)
        assert y1.value[0] == pytest.approx(1.5, abs=1e-15)
        origin = p.domain.join(p.manifold_x.point([0.0]), p.manifold_y.point([0.0]))
        assert p.domain.distance(s1.current, origin) == pytest.approx(np.sqrt(2.5), abs=1e-14)

    def test_equals_rceg_extrapolation(self):
        """One RGDA step is exactly the extrapolation stage of RCEG."""
        rng = np.random.default_rng(13)
        p = decoupled_spd(3, rng)
        x = p.manifold_x.point(random_spd(3, 0.6, 1.8, rng))
        y = p.manifold_y.point(random_spd(3, 0.6, 1.8, rng))
        s0 = make_state(p, x, y, 0.2)
        gda = rgda_step(p, s0)
        ceg = rceg_step(p, s0)
        np.testing.assert_allclose(gda.current.value, ceg.extrapolated.value, atol=1e-15)

    def test_spirals_outward_on_bilinear(self):
        """Simultaneous steps on f = xy grow the distance to the saddle."""
        p = scalar_bilinear()
        s = make_state(p, p.manifold_x.point([1.0]), p.manifold_y.point([0.0]), 0.5)
        origin = p.domain.join(p.manifold_x.point([0.0]), p.manifold_y.point([0.0]))
        d0 = p.domain.distance(s.current, origin)
        for _ in range(20):
            s = rgda_step(p, s)
        assert p.domain.distance(s.current, origin) > 5.0 * d0


class TestGeodesicAveraging:
    def test_first_point_is_returned_as_is(self):
        m = Euclidean(3)
        pt = m.point([1.0, 2.0, 3.0])
        assert geodesic_average_update(m, None, pt, 0) is pt
        other = m.point([0.0, 0.0, 0.0])
        assert geodesic_average_update(m, other, pt, 0) is pt

    def test_euclidean_running_mean(self):
        rng = np.random.default_rng(2)
        m = Euclidean(4)
        pts = [rng.standard_normal(4) for _ in range(12)]
        avg = None
        for t, arr in enumerate(pts):
            avg = geodesic_average_update(m, avg, m.point(arr), t)
        np.testing.assert_allclose(avg.value, np.mean(pts, axis=0), atol=1e-12)

    def test_constant_sequence_is_fixed(self):
        rng = np.random.default_rng(4)
        m = Spd(3)
        pt = m.point(random_spd(3, 0.5, 2.0, rng))
        avg = None
        for t in range(6):
            avg = geodesic_average_update(m, avg, pt, t)
        np.testing.assert_allclose(avg.value, pt.value, atol=1e-12)

    def test_sphere_pairwise_average_is_slerp_midpoint(self):
        rng = np.random.default_rng(6)
        m = Sphere(4)
        p1 = m.random_point(rng)
        p2 = m.random_point(rng, near=p1, radius=0.5)
        avg = geodesic_average_update(m, p1, p2, 1)
        theta = np.arccos(np.clip(p1.value @ p2.value, -1.0, 1.0))
        mid = (np.sin(theta / 2) * p1.value + np.sin(theta / 2) * p2.value) / np.sin(theta)
        np.testing.assert_allclose(avg.value, mid, atol=1e-12)

    def test_negative_counter_rejected(self):
        m = Euclidean(2)
        pt = m.point([0.0, 1.0])
        with pytest.raises(ParameterError):
            geodesic_average_update(m, pt, pt, -1)

    def test_averaging_bound_exact_on_flat_bilinear(self):
        """For bilinear f the averaged gap equals the mean of the gaps."""
        rng = np.random.default_rng(17)
        b = rng.standard_normal((3, 3))
        p = euclidean_quadratic(b)
        eta = 0.2 / np.linalg.norm(b, 2)
        s = make_state(
            p, p.manifold_x.point(rng.standard_normal(3)), p.manifold_y.point(rng.standard_normal(3)), eta
        )
        probe_x = p.manifold_x.point(rng.standard_normal(3))
        probe_y = p.manifold_y.point(rng.standard_normal(3))
        gaps = []
        avg = None
        for t in range(20):
            s = rceg_step(p, s)
            avg = geodesic_average_update(p.domain, avg, s.extrapolated, t)
            w, z = p.domain.split(s.extrapolated)
            gaps.append(p.value(w, probe_y) - p.value(probe_x, z))
        w_bar, z_bar = p.domain.split(avg)
        lhs = p.value(w_bar, probe_y) - p.value(probe_x, z_bar)
        assert lhs == pytest.approx(np.mean(gaps), abs=1e-9)

    def test_averaging_bound_on_curved_problem(self):
        """Geodesic convex-concavity: the gap at the geodesic average is
        at most the running mean of the gaps, up to rounding."""
        rng = np.random.default_rng(19)
        p = decoupled_spd(3, rng)
        x = p.manifold_x.point(random_spd(3, 0.6, 1.8, rng))
        y = p.manifold_y.point(random_spd(3, 0.6, 1.8, rng))
        probe_x = p.manifold_x.point(random_spd(3, 0.6, 1.8, rng))
        probe_y = p.manifold_y.point(random_spd(3, 0.6, 1.8, rng))
        s = make_state(p, x, y, 0.25)
        gaps = []
        avg = None
        for t in range(15):
            s = rceg_step(p, s)
            avg = geodesic_average_update(p.domain, avg, s.extrapolated, t)
            w, z = p.domain.split(s.extrapolated)
            gaps.append(p.value(w, probe_y) - p.value(probe_x, z))
        w_bar, z_bar = p.domain.split(avg)
        lhs = p.value(w_bar, probe_y) - p.value(probe_x, z_bar)
        assert lhs <= np.mean(gaps) + 1e-7


class TestRiemannianGd:
    def test_euclidean_one_step_exact(self):
        m = Euclidean(3)
        x0 = m.point([1.0, -2.0, 3.0])
        x, iters = riemannian_gd(m, lambda p: 0.5 * p.value @ p.value, lambda p: m.tangent(p, p.value), x0, 1.0, 50, 1e-12)
        np.testing.assert_allclose(x.value, 0.0, atol=1e-12)
        assert iters == 1

    def test_spd_one_step_to_target(self):
        """Minimizing d^2(x, a)/2 with unit step lands exactly on a."""
        rng = np.random.default_rng(8)
        m = Spd(3)
        a = m.point(random_spd(3, 0.5, 2.0, rng))
        x0 = m.point(random_spd(3, 0.5, 2.0, rng))
        x, iters = riemannian_gd(
            m, lambda p: 0.5 * m.distance(p, a) ** 2, lambda p: -1.0 * m.log(p, a), x0, 1.0, 50, 1e-10
        )
        np.testing.assert_allclose(x.value, a.value, atol=1e-9)
        assert iters == 1

    def test_zero_iterations_at_optimum(self):
        m = Euclidean(2)
        x0 = m.point([0.0, 0.0])
        x, iters = riemannian_gd(m, lambda p: 0.5 * p.value @ p.value, lambda p: m.tangent(p, p.value), x0, 0.5, 50, 1e-10)
        assert iters == 0
        assert x is x0

    def test_monotone_descent(self):
        rng = np.random.default_rng(9)
        m = Euclidean(5)
        q = rng.standard_normal((5, 5))
        q = q.T @ q + np.eye(5)
        l = np.linalg.eigvalsh(q).max()
        values = []

        def phi(p):
            values.append(0.5 * p.value @ q @ p.value)
            return values[-1]

        riemannian_gd(m, phi, lambda p: m.tangent(p, q @ p.value), m.point(rng.standard_normal(5)), 1.0 / (2 * l), 200, 1e-10)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_divergence_raises_after_ten_increases(self):
        m = Euclidean(1)
        with pytest.raises(NumericalError, match="diverged"):
            riemannian_gd(m, lambda p: 0.5 * p.value[0] ** 2, lambda p: m.tangent(p, p.value), m.point([1.0]), 3.0, 100, 1e-12)

    def test_iteration_cap_on_flat_slope(self):
        m = Euclidean(1)
        x, iters = riemannian_gd(m, lambda p: p.value[0], lambda p: m.tangent(p, [1.0]), m.point([0.0]), 0.1, 25, 1e-12)
        assert iters == 25
        assert x.value[0] == pytest.approx(-2.5, abs=1e-12)

    def test_parameter_validation(self):
        m = Euclidean(1)
        with pytest.raises(ParameterError):
            riemannian_gd(m, lambda p: 0.0, lambda p: m.zero_tangent(p), m.point([0.0]), -1.0, 10, 1e-8)
        with pytest.raises(ParameterError):
            riemannian_gd(m, lambda p: 0.0, lambda p: m.zero_tangent(p), m.point([0.0]), 0.1, -1, 1e-8)


class TestRiemannianBb:
    @pytest.mark.parametrize("n", [3, 10])
    def test_matches_fixed_step_ascent_on_robust_pca_spd_slices(self, n):
        """The SPD slice of the duality-gap estimate on the shipped robust PCA
        instance (k = 8, both penalties), solved from the start pair and from
        random pairs with the estimate's first step ``1 / (2 L)``: the same
        maximum as the fixed-step reference, in fewer iterations. A monotone
        line search stalls on some of these slices near the tolerance."""
        rng = np.random.default_rng(60 + n)
        for alpha in (2.0, 0.5):
            cfg = ExperimentConfig(problem="robust_pca", n=n, k=8, mu=0.2, l=4.5, alpha=alpha, algo="rceg", iters=1)
            p, x0, y0 = build_problem(cfg)
            mx, my = p.manifold_x, p.manifold_y
            eta = 1.0 / (2.0 * p.smoothness())
            starts = [(x0, y0)] + [(mx.random_point(rng), my.point(random_spd(n, 0.3, 4.0, rng))) for _ in range(2)]
            for x, y in starts:
                phi = lambda m: -float(p.value(x, m))
                grad = lambda m: -1.0 * p.grad_y(x, m)
                y_bb, its_bb = riemannian_bb(my, phi, grad, y, eta, 10000, 1e-8)
                y_gd, its_gd = riemannian_gd(my, phi, grad, y, eta, 10000, 1e-8)
                assert its_gd < 10000
                assert my.norm(grad(y_bb)) <= 1e-8
                assert phi(y_bb) == pytest.approx(phi(y_gd), rel=1e-12)
                assert its_bb < its_gd

    def test_spd_one_step_to_target(self):
        """Minimizing d^2(x, a)/2 with a first step of 1 lands exactly on a."""
        rng = np.random.default_rng(8)
        m = Spd(3)
        a = m.point(random_spd(3, 0.5, 2.0, rng))
        x0 = m.point(random_spd(3, 0.5, 2.0, rng))
        x, iters = riemannian_bb(
            m, lambda p: 0.5 * m.distance(p, a) ** 2, lambda p: -1.0 * m.log(p, a), x0, 1.0, 50, 1e-10
        )
        np.testing.assert_allclose(x.value, a.value, atol=1e-9)
        assert iters == 1

    def test_bb_scalar_is_formed_at_the_new_point(self):
        """The second trial step is ``<s, s> / <s, y>`` under the metric of
        the accepted point, with ``s`` and the old gradient carried over as
        matrices; under the old point's metric the scalar differs."""
        rng = np.random.default_rng(12)
        m = Spd(3)
        a = m.point(random_spd(3, 0.3, 4.0, rng))
        x0 = m.point(random_spd(3, 0.3, 4.0, rng))
        trials = []

        def phi(p):
            trials.append(p)
            return 0.5 * m.distance(p, a) ** 2

        grad = lambda p: -1.0 * m.log(p, a)
        riemannian_bb(m, phi, grad, x0, 0.5, 2, 1e-12)
        x1 = trials[1]
        g0, g1 = grad(x0), grad(x1)
        np.testing.assert_allclose(x1.value, m.exp(x0, -0.5 * g0).value, rtol=0, atol=1e-14)
        s, y = -0.5 * g0.value, g1.value - g0.value
        t_new = m._inner_array(x1, s, s) / m._inner_array(x1, s, y)
        t_old = m._inner_array(x0, s, s) / m._inner_array(x0, s, y)
        assert abs(t_new - t_old) > 1e-3 * t_new
        np.testing.assert_allclose(trials[2].value, m.exp(x1, -t_new * g1).value, rtol=0, atol=1e-12)

    def test_zero_iterations_at_optimum(self):
        m = Euclidean(2)
        x0 = m.point([0.0, 0.0])
        x, iters = riemannian_bb(
            m, lambda p: 0.5 * p.value @ p.value, lambda p: m.tangent(p, p.value), x0, 0.5, 50, 1e-10
        )
        assert iters == 0
        assert x is x0

    def test_unbounded_linear_slice_returns_at_the_cap(self):
        """With a constant gradient ``<s, y> = 0``, so every later step is
        the largest one; the solver stops at its cap without raising."""
        m = Euclidean(1)
        x, iters = riemannian_bb(m, lambda p: p.value[0], lambda p: m.tangent(p, [1.0]), m.point([0.0]), 0.1, 25, 1e-12)
        assert iters == 25
        assert np.isfinite(x.value[0]) and x.value[0] < -1e10

    def test_sphere_step_past_the_exp_guard_is_halved(self):
        """A trial step longer than the sphere's exp guard is rejected and
        halved; the minimizer of ``-x_0`` is still found."""
        m = Sphere(3)
        e0 = np.array([1.0, 0.0, 0.0])
        refused = []
        exp = m.exp

        def guarded_exp(x, v):
            try:
                return exp(x, v)
            except StepTooLongError:
                refused.append(m.norm(v))
                raise

        m.exp = guarded_exp
        x, iters = riemannian_bb(
            m, lambda p: -float(p.value[0]), lambda p: m.tangent(p, -e0 + p.value[0] * p.value), m.point([0.0, 1.0, 0.0]), 10.0, 200, 1e-10
        )
        assert refused and refused[0] == pytest.approx(10.0)
        np.testing.assert_allclose(x.value, e0, atol=1e-9)
        assert iters < 200

    def test_no_acceptable_step_raises(self):
        """Trials whose value is not finite are rejected until the step
        falls below its lower bound."""
        m = Euclidean(1)
        x0 = m.point([1.0])
        with pytest.raises(NumericalError, match="line search"):
            riemannian_bb(
                m, lambda p: 0.5 if p is x0 else float("nan"), lambda p: m.tangent(p, p.value), x0, 1.0, 10, 1e-12
            )

    def test_parameter_validation(self):
        m = Euclidean(1)
        with pytest.raises(ParameterError):
            riemannian_bb(m, lambda p: 0.0, lambda p: m.zero_tangent(p), m.point([0.0]), -1.0, 10, 1e-8)
        with pytest.raises(ParameterError):
            riemannian_bb(m, lambda p: 0.0, lambda p: m.zero_tangent(p), m.point([0.0]), 0.1, -1, 1e-8)


class TestDualityGap:
    def test_negative_inner_budget_is_rejected(self):
        """A negative budget is a caller error, not an "inner solver failed"
        estimate."""
        p = scalar_bilinear()
        with pytest.raises(ParameterError):
            estimate_duality_gap(p, p.manifold_x.point([1.0]), p.manifold_y.point([1.0]), max_iters=-1)

    def test_zero_at_saddle_of_flat_bilinear(self):
        p = scalar_bilinear()
        at = (p.manifold_x.point([0.0]), p.manifold_y.point([0.0]))
        est = estimate_duality_gap(p, *at)
        assert est.estimate is not None
        assert est.estimate == pytest.approx(0.0, abs=1e-12)
        assert certified_gap(p, *at) == pytest.approx(0.0, abs=1e-12)

    def test_unbounded_slice_reports_not_available(self):
        """Away from the saddle the bilinear slices are unbounded, so the
        inner solvers cannot converge and the estimate is withheld."""
        p = scalar_bilinear()
        at = (p.manifold_x.point([1.0]), p.manifold_y.point([1.0]))
        est = estimate_duality_gap(p, *at, max_iters=200)
        assert est.estimate is None
        assert est.diagnostic != ""
        assert certified_gap(p, *at) is not None  # closed-form bound still exists

    def test_closed_form_on_decoupled_spd(self, monkeypatch):
        """Oracle: the gap of the decoupled problem at (x, y) is
        d^2(x, a)/2 + d^2(y, b)/2, achieved at (a, b). The problem has no
        best-response hook, so both slices are solved by descent."""
        rng = np.random.default_rng(23)
        p = decoupled_spd(3, rng)
        a, b = p.known_saddle
        x = p.manifold_x.point(random_spd(3, 0.6, 1.8, rng))
        y = p.manifold_y.point(random_spd(3, 0.6, 1.8, rng))
        expected = 0.5 * p.manifold_x.distance(x, a) ** 2 + 0.5 * p.manifold_y.distance(y, b) ** 2
        calls = count_inner_solves(monkeypatch)
        est = estimate_duality_gap(p, x, y)
        assert calls == [p.manifold_y, p.manifold_x]
        assert est.estimate is not None
        assert est.estimate == pytest.approx(expected, rel=1e-6, abs=1e-9)
        cert = certified_gap(p, x, y)
        assert cert == pytest.approx(expected, rel=1e-6, abs=1e-9)
        assert cert <= est.estimate + 1e-6

    def rpca_pair(self, seed=41, n=4):
        rng = np.random.default_rng(seed)
        data = [random_spd(n, 0.2, 4.5, rng) for _ in range(3)]
        p = robust_pca(data, alpha=1.0)
        at = (p.manifold_x.random_point(rng), p.manifold_y.point(random_spd(n, 0.3, 4.0, rng)))
        return p, at

    def test_best_response_replaces_the_sphere_descent(self, monkeypatch):
        """On robust PCA only the SPD ascent runs an inner solver, and the
        estimate agrees with the one that descends the sphere slice."""
        p, at = self.rpca_pair()
        calls = count_inner_solves(monkeypatch)
        est = estimate_duality_gap(p, *at)
        assert [type(m) for m in calls] == [Spd]
        calls.clear()
        ref = estimate_duality_gap(replace(p, best_response_x=None), *at)
        assert [type(m) for m in calls] == [Spd, Sphere]
        assert est.estimate is not None and ref.estimate is not None
        assert est.estimate == pytest.approx(ref.estimate, rel=1e-9)
        assert est.estimate >= ref.estimate - 1e-12  # the exact minimum is never above the descent's

    def test_hook_returning_another_eigenvector_is_rejected(self):
        """Every eigenvector of m is a critical point of the sphere slice, so
        the gradient check alone cannot reject the smallest one."""
        p, at = self.rpca_pair()
        mx, my = p.manifold_x, p.manifold_y
        wrong = replace(p, best_response_x=lambda m: mx.point(my._dec(m).q[:, -1]))
        y = at[1]
        assert mx.norm(p.grad_x(wrong.best_response_x(y), y)) <= 1e-8
        est = estimate_duality_gap(wrong, *at)
        assert est.estimate is None
        assert "best_response_x is not a minimizer" in est.diagnostic

    def test_estimate_is_floored_at_zero(self):
        rng = np.random.default_rng(29)
        p = decoupled_spd(2, rng)
        a, b = p.known_saddle
        est = estimate_duality_gap(p, a, b)
        assert est.estimate is not None
        assert est.estimate >= 0.0

    def test_certified_gap_requires_known_saddle(self):
        rng = np.random.default_rng(31)
        data = [random_spd(3, 0.8, 1.6, rng) for _ in range(2)]
        p = robust_pca(data, alpha=1.0)
        x = p.manifold_x.point(np.eye(3)[0])
        y = p.manifold_y.point(data[0])
        assert certified_gap(p, x, y) is None

    def test_tiny_inner_budget_reports_not_available(self):
        rng = np.random.default_rng(37)
        p = decoupled_spd(2, rng)
        x = p.manifold_x.point(random_spd(2, 0.6, 1.8, rng))
        y = p.manifold_y.point(random_spd(2, 0.6, 1.8, rng))
        est = estimate_duality_gap(p, x, y, max_iters=1)
        assert est.estimate is None


class TestRun:
    def test_single_iteration_average_is_first_extrapolation(self):
        rng = np.random.default_rng(41)
        p = decoupled_spd(2, rng)
        x = p.manifold_x.point(random_spd(2, 0.6, 1.8, rng))
        y = p.manifold_y.point(random_spd(2, 0.6, 1.8, rng))
        res = run(p, "rceg", iters=1, start=(x, y), eta=0.2, keep_averages=True)
        [(t, avg)] = res.averages
        assert t == 1 and avg == res.state.extrapolated
        assert res.status == "ok"

    def test_record_cadence_and_final_row(self):
        p = scalar_bilinear()
        res = run(
            p,
            "rceg",
            iters=10,
            start=(p.manifold_x.point([0.3]), p.manifold_y.point([0.2])),
            eta=0.4,
            record_every=3,
        )
        assert [r.t for r in res.records] == [0, 3, 6, 9, 10]
        assert all(np.isfinite(r.value) for r in res.records)
        assert all(r.grad_norm_x >= 0 and r.grad_norm_y >= 0 for r in res.records)
        wall = [r.wall_ms for r in res.records]
        assert all(b >= a for a, b in zip(wall, wall[1:]))

    def test_dist_to_ref_uses_known_saddle(self):
        p = scalar_bilinear()
        res = run(p, "rceg", iters=5, start=(p.manifold_x.point([1.0]), p.manifold_y.point([1.0])), eta=0.4)
        assert res.records[0].dist_to_ref == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert all(r.dist_to_ref is not None for r in res.records)

    @pytest.mark.parametrize("problem, start, eta", three_geometries()[::2], ids=lambda p: getattr(p, "name", ""))
    def test_dist_to_ref_is_the_product_distance(self, problem, start, eta):
        """The trace's distance equals ``Product.distance`` of the pair to
        the saddle pair, bit for bit, at every row."""
        prod = problem.domain
        ref = prod.join(*problem.known_saddle)
        res = run(problem, "rceg", iters=6, start=start, eta=eta)
        s = make_state(problem, *start, eta)
        for record in res.records:
            assert record.dist_to_ref == prod.distance(s.current, ref)
            s = rceg_step(problem, s)

    def test_rceg_contracts_on_flat_bilinear(self):
        """With an orthogonal coupling the extragradient contraction rate
        is uniform, so 300 steps shrink the distance by far more than 10x."""
        rng = np.random.default_rng(43)
        b = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        p = euclidean_quadratic(b)
        res = run(
            p,
            "rceg",
            iters=300,
            start=(p.manifold_x.point(rng.standard_normal(4)), p.manifold_y.point(rng.standard_normal(4))),
            eta="auto",
        )
        assert res.status == "ok"
        assert res.records[-1].dist_to_ref < 0.1 * res.records[0].dist_to_ref

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_iterate_ends_the_run(self, bad):
        """Each factor of the new pair is checked for non-finite entries."""
        p = euclidean_quadratic(np.eye(2))
        grad_y, calls = p.grad_y, []

        def poisoned_grad_y(x, y):
            calls.append(1)
            g = grad_y(x, y)
            return Tangent(y, [g.value[0], bad]) if len(calls) == 5 else g

        p.grad_y = poisoned_grad_y
        start = (p.manifold_x.point([0.3, 0.1]), p.manifold_y.point([0.2, 0.4]))
        res = run(p, "rceg", iters=10, start=start, eta=0.1)
        assert res.status == "diverged" and res.diagnostic == "iterate contains non-finite values"
        assert res.state.t == 3

    @staticmethod
    def poison_extrapolated_grad_x(p, call, bad):
        """Make ``grad_x`` return ``bad`` in every entry at its ``call``-th
        call; the even calls of an RCEG run are at the extrapolated pair,
        so an even ``call`` poisons only the corrected ``x``."""
        grad_x, calls = p.grad_x, []

        def poisoned(x, y):
            calls.append(1)
            g = grad_x(x, y)
            return Tangent(g.base, np.full_like(g.value, bad)) if len(calls) == call else g

        p.grad_x = poisoned

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("factor, bad", [("euclidean", np.nan), ("euclidean", np.inf), ("sphere", np.nan)])
    @pytest.mark.parametrize("keep_averages", [False, True])
    def test_non_finite_factor_iterate_ends_the_run(self, factor, bad, keep_averages):
        """A corrected ``x`` with a NaN or ``+inf`` entry, on a Euclidean or a
        sphere factor, ends the run at the step that made it, with a
        best-effort row there, and before the average folds it in."""
        if factor == "euclidean":
            p = euclidean_quadratic(np.eye(2))
            start = (p.manifold_x.point([0.3, 0.1]), p.manifold_y.point([0.2, 0.4]))
            eta = 0.1
        else:
            data = [random_spd(3, 0.8, 1.6, np.random.default_rng(47)) for _ in range(2)]
            p = robust_pca(data, alpha=1.0)
            start = (p.manifold_x.point(np.ones(3) / np.sqrt(3.0)), p.manifold_y.point(np.mean(data, axis=0)))
            eta = 0.05
        assert type(p.manifold_x).__name__.lower() == factor
        self.poison_extrapolated_grad_x(p, 6, bad)
        res = run(p, "rceg", iters=10, start=start, eta=eta, keep_averages=keep_averages)
        assert res.status == "diverged" and res.diagnostic == "iterate contains non-finite values"
        assert res.state.t == 3
        assert [t for t, _ in res.averages] == ([1, 2] if keep_averages else [])
        assert res.records[-1].t == 3
        assert not np.isfinite(res.state.x.value).all()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_iterate_whose_distance_overflows_ends_as_drift(self):
        """An iterate near 1e300 is finite, but its distance from the start
        overflows to ``inf``: the run ends on the drift check."""
        p = euclidean_quadratic(np.eye(2))
        self.poison_extrapolated_grad_x(p, 4, 1e301)
        start = (p.manifold_x.point([0.3, 0.1]), p.manifold_y.point([0.2, 0.4]))
        res = run(p, "rceg", iters=10, start=start, eta=0.1)
        assert res.status == "diverged" and "drifted" in res.diagnostic
        assert np.isfinite(res.state.x.value).all() and abs(res.state.x.value[0]) > 1e299
        assert res.state.t == 2 and res.records[-1].t == 2
        assert res.max_dist_from_start[0] == np.inf

    def test_rgda_divergence_detected(self):
        p = scalar_bilinear()
        res = run(p, "rgda", iters=2000, start=(p.manifold_x.point([1.0]), p.manifold_y.point([0.5])), eta=0.5)
        assert res.status == "diverged"
        assert res.diagnostic != ""
        assert res.state.t < 2000

    def test_auto_step_size_on_flat_problem(self):
        """With flat factors both distortion ratios are 1, so the rule
        reduces to 1 / (2 L)."""
        rng = np.random.default_rng(47)
        b = rng.standard_normal((3, 3))
        p = euclidean_quadratic(b)
        res = run(p, "rceg", iters=1, start=(p.manifold_x.point(np.zeros(3)), p.manifold_y.point(np.zeros(3))))
        assert res.state.eta == pytest.approx(1.0 / (2.0 * p.smoothness()), rel=1e-12)
        assert resolve_step_size(p, "auto") == pytest.approx(1.0 / (2.0 * p.smoothness()), rel=1e-12)

    def test_determinism_excluding_wall_time(self):
        rng = np.random.default_rng(53)
        p = decoupled_spd(2, rng)
        x = p.manifold_x.point(random_spd(2, 0.6, 1.8, rng))
        y = p.manifold_y.point(random_spd(2, 0.6, 1.8, rng))
        r1 = run(p, "rceg", iters=20, start=(x, y), eta=0.2, gap_every=10)
        r2 = run(p, "rceg", iters=20, start=(x, y), eta=0.2, gap_every=10)
        assert len(r1.records) == len(r2.records)
        for a, b in zip(r1.records, r2.records):
            assert a.t == b.t
            assert a.value == b.value
            assert a.grad_norm_x == b.grad_norm_x
            assert a.grad_norm_y == b.grad_norm_y
            assert a.dist_to_ref == b.dist_to_ref
            assert a.gap_estimate == b.gap_estimate

    def test_gap_cadence(self):
        rng = np.random.default_rng(59)
        p = decoupled_spd(2, rng)
        x = p.manifold_x.point(random_spd(2, 0.6, 1.8, rng))
        y = p.manifold_y.point(random_spd(2, 0.6, 1.8, rng))
        res = run(p, "rceg", iters=10, start=(x, y), eta=0.2, gap_every=5)
        by_t = {r.t: r for r in res.records}
        assert by_t[5].gap_estimate is not None and by_t[5].gap_estimate >= 0.0
        assert by_t[10].gap_estimate is not None
        assert by_t[0].gap_estimate is None
        assert by_t[3].gap_estimate is None
        assert res.gap_unavailable == 0 and res.gap_diagnostic == ""

    def test_unavailable_gap_estimates_are_counted(self):
        """Away from the saddle the flat bilinear slices are unbounded: every
        cadence point misses its estimate, and the first reason is kept."""
        p = scalar_bilinear()
        start = (p.manifold_x.point([1.0]), p.manifold_y.point([1.0]))
        res = run(p, "rceg", iters=20, start=start, eta=0.1, gap_every=5)
        assert all(r.gap_estimate is None for r in res.records)
        assert res.gap_unavailable == 4
        assert res.gap_diagnostic == "inner ascent did not reach tolerance (possibly unbounded slice)"

    def test_robust_pca_gap_runs_no_sphere_descent(self, monkeypatch):
        cfg = ExperimentConfig(problem="robust_pca", n=4, k=3, alpha=2.0, algo="rceg", iters=20, gap_every=10)
        p, x0, y0 = build_problem(cfg)
        calls = count_inner_solves(monkeypatch)
        res = run(p, "rceg", iters=20, start=(x0, y0), gap_every=10)
        assert [type(m) for m in calls] == [Spd, Spd]
        assert res.gap_unavailable == 0
        assert all(r.gap_estimate is not None for r in res.records if r.t in (10, 20))

    def test_keep_averages(self):
        rng = np.random.default_rng(61)
        p = decoupled_spd(2, rng)
        x = p.manifold_x.point(random_spd(2, 0.6, 1.8, rng))
        y = p.manifold_y.point(random_spd(2, 0.6, 1.8, rng))
        res = run(p, "rceg", iters=8, start=(x, y), eta=0.2, keep_averages=True)
        assert [t for t, _ in res.averages] == list(range(1, 9))
        # the same fold by hand over the same steps
        s, avg = make_state(p, x, y, 0.2), None
        for t in range(8):
            s = rceg_step(p, s)
            avg = geodesic_average_update(p.domain, avg, s.extrapolated, t)
        np.testing.assert_allclose(res.averages[-1][1].value, avg.value, atol=0)

    def test_averaged_pair_accessor(self):
        """The averaged pair of a run is its last kept average."""
        rng = np.random.default_rng(67)
        p = decoupled_spd(2, rng)
        x = p.manifold_x.point(random_spd(2, 0.6, 1.8, rng))
        y = p.manifold_y.point(random_spd(2, 0.6, 1.8, rng))
        res = run(p, "rceg", iters=4, start=(x, y), eta=0.2, keep_averages=True)
        xb, yb = p.domain.split(res.averages[-1][1])
        assert xb.manifold is p.manifold_x
        assert yb.manifold is p.manifold_y

    def test_no_averages_unless_kept(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("geodesic_average_update called with keep_averages=False")

        monkeypatch.setattr(solvers, "geodesic_average_update", refuse)
        rng = np.random.default_rng(71)
        p = decoupled_spd(2, rng)
        x = p.manifold_x.point(random_spd(2, 0.6, 1.8, rng))
        y = p.manifold_y.point(random_spd(2, 0.6, 1.8, rng))
        for algo in ("rceg", "rgda"):
            res = run(p, algo, iters=6, start=(x, y), eta=0.2)
            assert res.status == "ok"
            assert res.averages == []

    def test_spd_bilinear_rgda_divergence_is_a_status(self):
        """The spd_bilinear RGDA run of configs/bilinear_rgda.cfg steps to a
        singular matrix; the run must end as diverged, not raise."""
        cfg = ExperimentConfig(problem="spd_bilinear", n=10, mu=0.8, l=1.25, algo="rgda", iters=200, eta=0.2)
        p, x, y = build_problem(cfg)
        res = run(p, "rgda", iters=200, start=(x, y), eta=0.2)
        assert res.status == "diverged"
        assert "positive definite" in res.diagnostic
        assert res.state.t < 200

    def test_drift_divergence_ends_with_a_row_at_the_stopping_iterate(self):
        """RGDA on x * y drifts past the divergence threshold after its 62nd
        step; the trace ends with a best-effort row there, off the cadence."""
        p = scalar_bilinear()
        start = (p.manifold_x.point([1.0]), p.manifold_y.point([0.5]))
        for record_every, last_ts in ((1, [60, 61, 62]), (7, [49, 56, 62])):
            res = run(p, "rgda", iters=2000, start=start, eta=0.5, record_every=record_every)
            assert res.status == "diverged" and "drifted" in res.diagnostic
            assert res.state.t == 62
            assert [r.t for r in res.records[-3:]] == last_ts

    def test_step_failure_ends_with_a_row_at_the_stopping_iterate(self):
        """The spd_bilinear RGDA step fails at t = 88; the state stays at the
        last good iterate, and the trace ends with a row there."""
        cfg = ExperimentConfig(problem="spd_bilinear", n=10, mu=0.8, l=1.25, algo="rgda", iters=200, eta=0.2)
        p, x, y = build_problem(cfg)
        res = run(p, "rgda", iters=200, start=(x, y), eta=0.2, record_every=7)
        assert res.status == "diverged"
        assert res.state.t == 88
        assert [r.t for r in res.records[-3:]] == [77, 84, 88]

    def test_failed_final_row_is_a_status_without_a_retry(self):
        """When only the final row's gradient fails, the run is diverged with
        the reason prefixed, and no second attempt at that row is made."""
        p = scalar_bilinear()
        grad_x, calls = p.grad_x, []

        def flaky_grad_x(x, y):
            calls.append(1)
            if len(calls) == 7:
                raise NumericalError("boom")
            return grad_x(x, y)

        p.grad_x = flaky_grad_x
        res = run(p, "rceg", iters=3, start=(p.manifold_x.point([0.3]), p.manifold_y.point([0.2])), eta=0.4)
        assert res.status == "diverged"
        assert res.diagnostic == "final diagnostics failed: boom"
        assert res.state.t == 3
        assert [r.t for r in res.records] == [0, 1, 2]
        assert len(calls) == 7

    def test_max_dist_from_start_is_the_largest_factor_distance(self):
        """Hand-stepped RCEG: the run keeps each factor's largest distance
        of the current iterate from the start, bit for bit."""
        rng = np.random.default_rng(43)
        p = spd_bilinear(random_spd(3, 0.8, 1.25, rng), random_spd(3, 0.8, 1.25, rng))
        mx, my = p.manifold_x, p.manifold_y
        x0, y0 = mx.identity(), my.identity()
        res = run(p, "rceg", iters=25, start=(x0, y0), eta=0.2)
        state = make_state(p, x0, y0, 0.2)
        far = [0.0, 0.0]
        for _ in range(25):
            state = rceg_step(p, state)
            x, y = p.domain.split(state.current)
            far = [max(far[0], mx.distance(x, x0)), max(far[1], my.distance(y, y0))]
        assert res.max_dist_from_start == tuple(far)
        assert far[0] > 0.0 and far[1] > 0.0

    def test_parameter_validation(self):
        p = scalar_bilinear()
        start = (p.manifold_x.point([0.0]), p.manifold_y.point([0.0]))
        with pytest.raises(ParameterError, match="unknown algorithm"):
            run(p, "newton", iters=5, start=start, eta=0.1)
        with pytest.raises(ParameterError):
            run(p, "rceg", iters=0, start=start, eta=0.1)
        with pytest.raises(ParameterError):
            run(p, "rceg", iters=5, start=start, eta=-0.1)
        with pytest.raises(ParameterError):
            run(p, "rceg", iters=5, start=start, eta=0.1, record_every=0)
        with pytest.raises(ParameterError):
            run(p, "rceg", iters=5, start=start, eta=0.1, gap_every=0)
