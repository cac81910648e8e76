import math

import numpy as np
import pytest

from geominimax.errors import NumericalError, ParameterError
from geominimax.harness import ExperimentConfig, build_problem
from geominimax.linalg import random_spd, spectral, sym_eig, symmetrize
from geominimax.manifolds import Euclidean, Spd, Sphere
from geominimax.problems import (
    augmented_lagrangian,
    estimate_smoothness,
    euclidean_quadratic,
    numeric_riemannian_grad,
    robust_pca,
    spd_bilinear,
)
from geominimax.solvers import riemannian_gd, run


def problems_with_points():
    """Each factory, with a pair of points in its domain."""
    rng = np.random.default_rng(70)
    flat = euclidean_quadratic(rng.standard_normal((3, 3)))
    curved = spd_bilinear(random_spd(3, 0.8, 1.25, rng), random_spd(3, 0.8, 1.25, rng))
    rpca = robust_pca([random_spd(3, 0.2, 4.5, rng) for _ in range(2)], 1.0)
    m = Spd(3, 8.0)
    lagrangian = augmented_lagrangian(
        m,
        lambda x: 0.5 * float(np.trace(x.value)),
        lambda x: m.tangent(x, 0.5 * x.value @ x.value),
        [(lambda x: float(np.trace(x.value)) - 3.0, lambda x: m.tangent(x, x.value @ x.value))],
        0.5,
    )
    out = []
    for prob in (flat, curved, rpca, lagrangian):
        out.append((prob, prob.manifold_x.random_point(rng), prob.manifold_y.random_point(rng)))
    return out


@pytest.mark.parametrize("prob, x, y", problems_with_points(), ids=lambda p: getattr(p, "name", ""))
def test_gradients_are_read_only(prob, x, y):
    for g, base in ((prob.grad_x(x, y), x), (prob.grad_y(x, y), y)):
        assert g.base is base
        with pytest.raises(ValueError):
            g.value[...] = 0.0


def rel_err(got, want, scale=1.0):
    return np.linalg.norm((got - want).ravel()) / max(1.0, scale)


class TestNumericGradient:
    def test_euclidean_quadratic_form(self):
        m = Euclidean(4, 10.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = m.random_point(rng)
            g = numeric_riemannian_grad(m, lambda p: 0.5 * float(p.value @ p.value), x, 1e-5)
            assert rel_err(g.value, x.value, np.linalg.norm(x.value)) < 1e-8

    def test_sphere_rayleigh_quotient(self):
        # grad of x.(A x) on the sphere is 2 (A x - (x.(A x)) x)
        m = Sphere(5, 1.0)
        rng = np.random.default_rng(2)
        a = random_spd(5, 0.5, 3.0, rng)
        for _ in range(20):
            x = m.random_point(rng)
            g = numeric_riemannian_grad(m, lambda p: float(p.value @ (a @ p.value)), x, 1e-5)
            want = 2.0 * (a @ x.value - float(x.value @ (a @ x.value)) * x.value)
            assert rel_err(g.value, want, np.linalg.norm(want)) < 1e-6

    def test_spd_half_squared_distance(self):
        # grad of 0.5 d^2(., target) is -Log_x(target)
        m = Spd(3, 6.0)
        rng = np.random.default_rng(3)
        target = m.point(random_spd(3, 0.5, 2.0, rng))
        for _ in range(10):
            x = m.point(random_spd(3, 0.5, 2.0, rng))
            g = numeric_riemannian_grad(m, lambda p: 0.5 * m.distance(p, target) ** 2, x, 1e-5)
            want = -m.log(x, target).value
            assert rel_err(g.value, want, np.linalg.norm(want)) < 1e-5

    def test_rejects_bad_eps_and_nonfinite(self):
        m = Euclidean(2, 5.0)
        x = m.point([1.0, 0.0])
        with pytest.raises(ParameterError):
            numeric_riemannian_grad(m, lambda p: 0.0, x, 0.0)
        with pytest.raises(NumericalError):
            numeric_riemannian_grad(m, lambda p: float("nan"), x, 1e-5)


class TestEuclideanQuadratic:
    def test_value_and_gradients(self):
        b = np.array([[1.0, 2.0], [0.0, -1.0]])
        prob = euclidean_quadratic(b)
        x = prob.manifold_x.point([1.0, 1.0])
        y = prob.manifold_y.point([2.0, 3.0])
        assert prob.value(x, y) == pytest.approx(float(np.array([1, 1]) @ b @ np.array([2, 3])))
        np.testing.assert_allclose(prob.grad_x(x, y).value, b @ [2.0, 3.0])
        np.testing.assert_allclose(prob.grad_y(x, y).value, b.T @ [1.0, 1.0])

    def test_saddle_is_origin_with_zero_gradients(self):
        rng = np.random.default_rng(4)
        prob = euclidean_quadratic(rng.standard_normal((6, 6)))
        xs, ys = prob.known_saddle
        assert prob.value(xs, ys) == 0.0
        assert prob.manifold_x.norm(prob.grad_x(xs, ys)) <= 1e-6
        assert prob.manifold_y.norm(prob.grad_y(xs, ys)) <= 1e-6

    def test_smoothness_is_operator_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = rng.standard_normal((5, 5))
            prob = euclidean_quadratic(b)
            assert prob.smoothness_l == pytest.approx(np.linalg.norm(b, 2), rel=1e-6)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ParameterError):
            euclidean_quadratic(np.ones((2, 3)))
        with pytest.raises(ParameterError):
            euclidean_quadratic([[np.inf]])


def diag_spd_log(x_diag, y_diag):
    """Scalar-log oracle for Log_x(y) when both are diagonal: x_i log(y_i / x_i)."""
    x_diag = np.asarray(x_diag, dtype=float)
    y_diag = np.asarray(y_diag, dtype=float)
    return x_diag * np.log(y_diag / x_diag)


def daleckii_krein(dec, c, divided, derivative):
    """Frechet derivative ``q (gamma * (q.T c q)) q.T`` of a spectral matrix
    function, ``gamma`` its divided differences on the eigenvalues of ``dec``
    (``derivative`` at the mean of two that coincide to 1e-12 relative)."""
    lam = dec.eigenvalues
    u, v = np.meshgrid(lam, lam, indexing="ij")
    apart = np.abs(u - v) > 1e-12 * np.maximum(np.abs(u), np.abs(v))
    gamma = derivative((u + v) / 2.0)
    gamma[apart] = divided(u[apart], v[apart])
    return dec.q @ (gamma * (dec.q.T @ c @ dec.q)) @ dec.q.T


def chained_bilinear_grad(m, p, target, b):
    """Riemannian gradient at ``p`` of ``tr(Log_p(target) b)`` as the adjoint
    of its chain of matrix functions, ``Dlog(w)`` and then ``Dsqrt(x)``: the
    reference for the closed form of ``spd_bilinear``."""
    s, s_inv = m._sqrt(p), m._isqrt(p)
    wdec = sym_eig(s_inv @ target @ s_inv)
    adj = daleckii_krein(wdec, s @ b @ s, lambda u, v: np.log1p((u - v) / v) / (u - v), lambda u: 1.0 / u)
    half = spectral(wdec, np.log) @ s @ b - symmetrize(spectral(wdec)) @ adj @ s_inv
    g = daleckii_krein(
        m._dec(p), half + half.T, lambda u, v: 1.0 / (np.sqrt(u) + np.sqrt(v)), lambda u: 0.5 / np.sqrt(u)
    )
    return symmetrize(p.value @ g @ p.value)


class TestSpdBilinear:
    @staticmethod
    def assert_matches_chain(prob, x, y):
        """Both closed-form gradients equal the chained reference to 1e-12 relative."""
        (xs, ys), mx, my = prob.known_saddle, prob.manifold_x, prob.manifold_y
        for m, p, got, target, b in (
            (mx, x, prob.grad_x(x, y), xs, my.log(y, ys).value),
            (my, y, prob.grad_y(x, y), ys, mx.log(x, xs).value),
        ):
            want = chained_bilinear_grad(m, p, target.value, b)
            assert np.linalg.norm(got.value - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_gradient_matches_the_daleckii_krein_chain(self, n):
        rng = np.random.default_rng(80 + n)
        prob = spd_bilinear(random_spd(n, 0.5, 2.0, rng), random_spd(n, 0.5, 2.0, rng))
        for _ in range(5):
            self.assert_matches_chain(prob, prob.manifold_x.random_point(rng), prob.manifold_y.random_point(rng))

    def test_gradient_matches_the_chain_where_every_pair_coincides(self):
        # At x = 2 x0 the conjugated matrix w is I / 2, so every divided
        # difference takes its limit; the same holds for y.
        rng = np.random.default_rng(86)
        prob = spd_bilinear(random_spd(6, 0.5, 2.0, rng), random_spd(6, 0.5, 2.0, rng))
        (xs, ys), mx, my = prob.known_saddle, prob.manifold_x, prob.manifold_y
        x, y = mx.point(2.0 * xs.value), my.point(2.0 * ys.value)
        lam = mx._log_dec_to(x, xs).eigenvalues
        assert np.ptp(lam) <= 1e-12 * lam[0] and lam[0] == pytest.approx(0.5)
        self.assert_matches_chain(prob, x, y)

    def test_saddle_value_and_gradients(self):
        rng = np.random.default_rng(6)
        prob = spd_bilinear(random_spd(3, 0.5, 2.0, rng), random_spd(3, 0.5, 2.0, rng))
        xs, ys = prob.known_saddle
        assert abs(prob.value(xs, ys)) < 1e-12
        assert prob.manifold_x.norm(prob.grad_x(xs, ys)) <= 1e-6
        assert prob.manifold_y.norm(prob.grad_y(xs, ys)) <= 1e-6

    def test_hand_value_disjoint_diagonals(self):
        # Log_x(I) and Log_y(I) have disjoint diagonal support, so the
        # trace of their product vanishes.
        e = math.e
        prob = spd_bilinear(np.eye(2), np.eye(2), diameter_bound=8.0)
        x = prob.manifold_x.point(np.diag([e, 1.0]))
        y = prob.manifold_y.point(np.diag([1.0, e]))
        assert abs(prob.value(x, y)) < 1e-12

    def test_hand_value_matching_diagonals(self):
        # Scalar-log oracle: at x = y = diag(e, e) and x0 = y0 = I,
        # Log_x(I) = diag(-e, -e), so the value is 2 e^2.
        e = math.e
        prob = spd_bilinear(np.eye(2), np.eye(2), diameter_bound=8.0)
        x = prob.manifold_x.point(np.diag([e, e]))
        y = prob.manifold_y.point(np.diag([e, e]))
        lx = diag_spd_log([e, e], [1.0, 1.0])
        want = float(np.sum(lx * lx))
        assert want == pytest.approx(2.0 * e * e)
        assert prob.value(x, y) == pytest.approx(want, rel=1e-10)

    def test_value_on_random_diagonals_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        prob = spd_bilinear(np.diag([1.0, 2.0, 0.5]), np.diag([2.0, 1.0, 1.5]), diameter_bound=10.0)
        for _ in range(20):
            xd = rng.uniform(0.3, 3.0, 3)
            yd = rng.uniform(0.3, 3.0, 3)
            x = prob.manifold_x.point(np.diag(xd))
            y = prob.manifold_y.point(np.diag(yd))
            want = float(np.sum(diag_spd_log(xd, [1.0, 2.0, 0.5]) * diag_spd_log(yd, [2.0, 1.0, 1.5])))
            assert prob.value(x, y) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_gradient_is_antisymmetric_in_sign_structure(self):
        # moving x toward x0 must increase nothing when y is at y0:
        # grad_x vanishes there because Log_y(y0) = 0.
        rng = np.random.default_rng(8)
        prob = spd_bilinear(random_spd(2, 0.5, 2.0, rng), random_spd(2, 0.5, 2.0, rng))
        x = prob.manifold_x.point(random_spd(2, 0.5, 2.0, rng))
        assert prob.manifold_x.norm(prob.grad_x(x, prob.known_saddle[1])) <= 1e-8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            spd_bilinear(np.eye(2), np.eye(3))

    @staticmethod
    def worst_oracle_gap(prob, pairs):
        """Largest gap between closed-form and finite-difference gradients,
        relative to the gradient norm floored at 1 (as in ``check gradients``)."""
        worst = 0.0
        for x, y in pairs:
            for m, p, got, phi in (
                (prob.manifold_x, x, prob.grad_x(x, y), lambda q: prob.value(q, y)),
                (prob.manifold_y, y, prob.grad_y(x, y), lambda q: prob.value(x, q)),
            ):
                want = numeric_riemannian_grad(m, phi, p, 1e-5 * max(1.0, np.linalg.norm(p.value)))
                worst = max(worst, m.norm(got - want) / max(1.0, m.norm(want)))
        return worst

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_closed_form_gradient_matches_finite_differences(self, n):
        rng = np.random.default_rng(20 + n)
        prob = spd_bilinear(random_spd(n, 0.5, 2.0, rng), random_spd(n, 0.5, 2.0, rng))
        mx, my = prob.manifold_x, prob.manifold_y
        xs, ys = prob.known_saddle
        pairs = [(mx.random_point(rng), my.random_point(rng)) for _ in range(4)]
        pairs.append((mx.identity(), my.identity()))
        # At x = x0 the conjugated matrix w is the identity: every
        # eigenvalue coincides and the divided differences take their limit.
        pairs.append((xs, my.random_point(rng)))
        pairs.append((mx.random_point(rng), ys))
        assert self.worst_oracle_gap(prob, pairs) <= 1e-7

    def test_closed_form_gradient_near_coincident_eigenvalues(self):
        # Saddle components placed so that w = x^{-1/2} x0 x^{-1/2} (and
        # its y analogue) has eigenvalue gaps of 1e-12.
        rng = np.random.default_rng(30)
        n = 4
        m = Spd(n, 10.0)
        x = m.point(random_spd(n, 0.5, 2.0, rng))
        y = m.point(random_spd(n, 0.5, 2.0, rng))
        lam = np.array([1.5, 1.5 + 1e-12, 1.5 + 2e-12, 0.7])

        def place(p):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            s = m._sqrt(p)
            return s @ ((q * lam) @ q.T) @ s

        prob = spd_bilinear(place(x), place(y), diameter_bound=10.0)
        x = prob.manifold_x.point(x.value)
        y = prob.manifold_y.point(y.value)
        w = np.linalg.eigvalsh(prob.manifold_x._isqrt(x) @ prob.known_saddle[0].value @ prob.manifold_x._isqrt(x))
        assert np.min(np.diff(w)) < 1e-11
        assert self.worst_oracle_gap(prob, [(x, y)]) <= 1e-6
        self.assert_matches_chain(prob, x, y)

    def test_run_uses_no_finite_differences(self, monkeypatch):
        import geominimax.problems as problems

        def forbidden(*args, **kwargs):
            raise AssertionError("spd_bilinear called the finite-difference oracle")

        monkeypatch.setattr(problems, "numeric_riemannian_grad", forbidden)
        rng = np.random.default_rng(40)
        prob = spd_bilinear(random_spd(3, 0.8, 1.25, rng), random_spd(3, 0.8, 1.25, rng))
        start = (prob.manifold_x.identity(), prob.manifold_y.identity())
        res = run(prob, "rceg", iters=20, start=start, eta=0.2)
        assert res.status == "ok"

    def test_fourteen_eigendecompositions_per_rceg_step(self, monkeypatch):
        """A step makes four SPD points, each with two ``eigh``: the
        exponential's and the new point's own (8). Each then takes a
        logarithm toward the saddle, shared by the value, the gradient and
        ``dist_to_ref`` (4). The new pair's distances from the start (2)
        make 14; the correction's ``Log_w(x)`` comes from the
        extrapolation's own decomposition. The start costs two, one
        logarithm toward the saddle per factor."""
        rng = np.random.default_rng(42)
        prob = spd_bilinear(random_spd(6, 0.8, 1.25, rng), random_spd(6, 0.8, 1.25, rng))
        eigh = np.linalg.eigh
        calls = []

        def counted(a):
            calls.append(np.shape(a))
            return eigh(a)

        counts = []
        for iters in (1, 10, 25):
            start = (prob.manifold_x.identity(), prob.manifold_y.identity())
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", counted)
                assert run(prob, "rceg", iters=iters, start=start, eta=0.2).status == "ok"
            counts.append(len(calls))
        assert counts == [2 + 14 * iters for iters in (1, 10, 25)]

    def test_distance_to_the_saddle_reuses_the_gradient_decomposition(self, monkeypatch):
        """After a gradient at ``(x, y)``, the distance of each factor to the
        saddle needs no eigendecomposition, and it has the bits of one
        measured from fresh points."""
        rng = np.random.default_rng(41)
        prob = spd_bilinear(random_spd(4, 0.8, 1.25, rng), random_spd(4, 0.8, 1.25, rng))
        mx, my = prob.manifold_x, prob.manifold_y
        xs, ys = prob.known_saddle
        x = mx.point(random_spd(4, 0.6, 1.8, rng))
        y = my.point(random_spd(4, 0.6, 1.8, rng))
        want = (mx.distance(mx.point(x.value), xs), my.distance(my.point(y.value), ys))
        prob.grad_x(x, y)
        prob.grad_y(x, y)
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert (mx.distance(x, xs), my.distance(y, ys)) == want
        assert calls == []
        mx.distance(x, mx.point(xs.value))  # another target point is decomposed anew
        assert calls == [(4, 4), (4, 4)]


class TestRobustPca:
    def make(self, n=4, k=3, alpha=1.0, seed=9):
        rng = np.random.default_rng(seed)
        data = [random_spd(n, 0.2, 4.5, rng) for _ in range(k)]
        return robust_pca(data, alpha)

    def test_gradients_match_finite_differences(self):
        prob = self.make()
        mx, my = prob.manifold_x, prob.manifold_y
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = mx.random_point(rng)
            m = my.point(random_spd(4, 0.3, 4.0, rng))
            gx = prob.grad_x(x, m)
            fx = numeric_riemannian_grad(mx, lambda p: prob.value(p, m), x, 1e-5)
            assert rel_err(gx.value, fx.value, mx.norm(gx)) < 1e-5
            gy = prob.grad_y(x, m)
            fy = numeric_riemannian_grad(my, lambda p: prob.value(x, p), m, 1e-5 * max(1.0, np.linalg.norm(m.value)))
            assert rel_err(gy.value, fy.value, my.norm(gy)) < 1e-5

    def oracle(self, prob, data, alpha, x, m):
        """Value and grad_y of the docstring formula, one Spd.log at a time,
        summed in data order from zero."""
        my = prob.manifold_y
        logs = [my.log(m, my.point(a)) for a in data]
        sumsq = 0.0
        total = np.zeros_like(m.value)
        for lg in logs:
            sumsq += my.inner(lg, lg)
            total = total + lg.value
        k = len(data)
        mv = m.value @ x.value
        value = -float(x.value @ mv) - (alpha / k) * sumsq
        return value, symmetrize(-np.outer(mv, mv) + (2.0 * alpha / k) * total)

    @pytest.mark.parametrize("n, k", [(3, 1), (4, 3), (10, 8)])
    def test_value_and_grad_y_equal_per_matrix_formula(self, n, k):
        rng = np.random.default_rng(16 + n)
        data = [random_spd(n, 0.2, 4.5, rng) for _ in range(k)]
        alpha = 0.7
        prob = robust_pca(data, alpha)
        mx, my = prob.manifold_x, prob.manifold_y
        # random points, then a data point, where one logarithm is zero
        ms = [my.point(random_spd(n, 0.3, 4.0, rng)) for _ in range(5)] + [my.point(data[-1])]
        for m in ms:
            x = mx.random_point(rng)
            value, grad = self.oracle(prob, data, alpha, x, my.point(m.value))
            assert prob.value(x, m) == value
            assert np.array_equal(prob.grad_y(x, m).value, grad)

    def test_seven_eigendecompositions_per_rceg_step(self, monkeypatch):
        """With the gap off, a step makes two SPD points, each with two
        single ``eigh`` (the exponential's and the point's own) and one
        stacked ``eigh`` for its k data logarithms. The new point's
        distance from the start makes five single calls; the correction
        ``Log_z(y)`` takes none. The start's penalty is one stacked call."""
        rng = np.random.default_rng(43)
        data = [random_spd(5, 0.2, 4.5, rng) for _ in range(4)]
        prob = robust_pca(data, 1.0)
        eigh = np.linalg.eigh
        calls = []

        def counted(a):
            calls.append(np.ndim(a))
            return eigh(a)

        counts = []
        for iters in (1, 10, 25):
            start = (prob.manifold_x.point(np.ones(5) / np.sqrt(5.0)), prob.manifold_y.point(np.mean(data, axis=0)))
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", counted)
                assert run(prob, "rceg", iters=iters, start=start, eta=0.05).status == "ok"
            counts.append((calls.count(2), calls.count(3)))
        assert counts == [(5 * iters, 1 + 2 * iters) for iters in (1, 10, 25)]

    def test_one_eigendecomposition_per_new_matrix_point(self, monkeypatch):
        prob = self.make(n=5, k=6)
        mx, my = prob.manifold_x, prob.manifold_y
        rng = np.random.default_rng(17)
        x = mx.random_point(rng)
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        m = my.point(random_spd(5, 0.3, 4.0, rng))
        for _ in range(4):
            m = my.exp(m, 0.1 * prob.grad_y(x, m))  # a new point, validated by exp
            calls.clear()
            prob.value(x, m)
            prob.grad_y(x, m)
            prob.value(x, m)
            prob.best_response_x(m)  # reads the decomposition the point already has
            assert calls == [(6, 5, 5)]

    @pytest.mark.parametrize("n", [3, 10])
    def test_best_response_x_is_the_sphere_slice_minimum(self, n):
        """``f(best_response_x(m), m) = -lambda_max(m) - pen(m)``, and a
        Riemannian descent of the slice from a random start does no better."""
        rng = np.random.default_rng(40 + n)
        data = [random_spd(n, 0.2, 4.5, rng) for _ in range(4)]
        alpha = 0.7
        prob = robust_pca(data, alpha)
        mx, my = prob.manifold_x, prob.manifold_y
        for _ in range(4):
            m = my.point(random_spd(n, 0.3, 4.0, rng))
            pen = (alpha / len(data)) * sum(my.distance(m, my.point(a)) ** 2 for a in data)
            lam = np.linalg.eigvalsh(m.value)
            best = prob.value(prob.best_response_x(m), m)
            assert best == pytest.approx(-lam[-1] - pen, rel=1e-13, abs=1e-13)
            x_gd, its = riemannian_gd(
                mx,
                lambda p: prob.value(p, m),
                lambda p: prob.grad_x(p, m),
                mx.random_point(rng),
                0.25 / lam[-1],
                20000,
                1e-9,
            )
            assert its < 20000
            assert best <= prob.value(x_gd, m) + 1e-12

    def test_single_matrix_penalty(self):
        rng = np.random.default_rng(11)
        a = random_spd(3, 0.5, 2.0, rng)
        prob = robust_pca([a], alpha=2.0)
        x = prob.manifold_x.random_point(rng)
        m = prob.manifold_y.point(a)
        # at m equal to the single data matrix the penalty vanishes
        assert prob.value(x, m) == pytest.approx(-float(x.value @ (a @ x.value)), rel=1e-12)
        mx_vec = a @ x.value
        np.testing.assert_allclose(prob.grad_y(x, m).value, -np.outer(mx_vec, mx_vec), atol=1e-10)

    def test_concave_in_matrix_block_along_geodesics(self):
        prob = self.make(n=3, k=4, alpha=0.7, seed=12)
        my = prob.manifold_y
        rng = np.random.default_rng(13)
        for _ in range(200):
            x = prob.manifold_x.random_point(rng)
            m1 = my.point(random_spd(3, 0.2, 4.5, rng))
            m2 = my.point(random_spd(3, 0.2, 4.5, rng))
            mid = my.exp(m1, 0.5 * my.log(m1, m2))
            assert prob.value(x, mid) >= 0.5 * (prob.value(x, m1) + prob.value(x, m2)) - 1e-9

    def test_parameter_validation(self):
        rng = np.random.default_rng(14)
        a = random_spd(3, 0.5, 2.0, rng)
        with pytest.raises(ParameterError):
            robust_pca([a], alpha=0.0)
        with pytest.raises(ParameterError):
            robust_pca([], alpha=1.0)
        with pytest.raises(ParameterError):
            robust_pca([a, np.eye(4)], alpha=1.0)


class TestAugmentedLagrangian:
    def make(self, alpha=0.5, seed=15):
        rng = np.random.default_rng(seed)
        m = Spd(3, 8.0)
        a = m.point(random_spd(3, 0.5, 2.0, rng))

        def g(x):
            return 0.5 * m.distance(x, a) ** 2

        def grad_g(x):
            return -1.0 * m.log(x, a)

        def h(x):
            return float(np.trace(x.value)) - 3.0

        def grad_h(x):
            # Riemannian gradient of tr(x) is x @ I @ x = x^2
            return m.tangent(x, x.value @ x.value)

        return augmented_lagrangian(m, g, grad_g, [(h, grad_h)], alpha), m, a

    def test_zero_multiplier_reduces_to_objective(self):
        prob, m, a = self.make()
        rng = np.random.default_rng(16)
        lam0 = prob.manifold_y.point([0.0])
        for _ in range(10):
            x = m.point(random_spd(3, 0.5, 2.0, rng))
            assert prob.value(x, lam0) == pytest.approx(0.5 * m.distance(x, a) ** 2, rel=1e-12)
            np.testing.assert_allclose(
                prob.grad_y(x, lam0).value, [float(np.trace(x.value)) - 3.0], atol=1e-14
            )

    def test_gradients_match_finite_differences(self):
        prob, m, _ = self.make(alpha=0.3, seed=17)
        rng = np.random.default_rng(18)
        for _ in range(10):
            x = m.point(random_spd(3, 0.5, 2.0, rng))
            lam = prob.manifold_y.point(rng.standard_normal(1))
            gx = prob.grad_x(x, lam)
            fx = numeric_riemannian_grad(m, lambda p: prob.value(p, lam), x, 1e-5)
            assert rel_err(gx.value, fx.value, m.norm(gx)) < 1e-5
            gy = prob.grad_y(x, lam)
            fy = numeric_riemannian_grad(prob.manifold_y, lambda p: prob.value(x, p), lam, 1e-6)
            assert rel_err(gy.value, fy.value) < 1e-5

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            self.make(alpha=-1.0)


class TestSmoothnessEstimate:
    def test_euclidean_quadratic_scale(self):
        rng = np.random.default_rng(19)
        b = rng.standard_normal((5, 5))
        prob = euclidean_quadratic(b)
        est = estimate_smoothness(prob, np.random.default_rng(20))
        op = np.linalg.norm(b, 2)
        assert 0.5 * op <= est <= 2.5 * op

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_constant_bounds_the_operator_norm(self, seed):
        """``eta = auto`` is safe only if the sampled ``L`` is at least the
        true constant; on the flat bilinear instance that is the operator
        norm, which the problem knows by power iteration."""
        cfg = ExperimentConfig(problem="euclidean_quadratic", n=20, algo="rceg", iters=1, seed=seed)
        prob = build_problem(cfg)[0]
        assert prob.smoothness_source == "power_iteration"
        assert estimate_smoothness(prob) >= prob.smoothness_l

    def test_deterministic_default_stream(self):
        rng = np.random.default_rng(21)
        data = [random_spd(3, 0.5, 2.0, rng) for _ in range(3)]
        p1 = robust_pca(data, alpha=1.0)
        p2 = robust_pca(data, alpha=1.0)
        assert p1.smoothness() == p2.smoothness()
        assert p1.smoothness_l is not None and p1.smoothness_l > 0
