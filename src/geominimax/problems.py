"""Saddle-point benchmark problems on products of Riemannian manifolds.

A :class:`MinimaxProblem` packages a value oracle ``f(x, y)`` together
with its two Riemannian partial gradients; solvers treat the ``x`` block
as the minimizing side and the ``y`` block as the maximizing side. The
factory functions below construct the benchmark instances: a flat
bilinear quadratic, its curved analogue on SPD matrices, robust PCA on
sphere x SPD, and an augmented-Lagrangian wrapper for constrained
geodesically convex programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericalError, ParameterError
from .linalg import (
    daleckii_krein,
    log_derivative,
    log_divided,
    sqrt_derivative,
    sqrt_divided,
    sym_eig,
    symmetrize,
)
from .manifolds import Euclidean, Manifold, Point, Product, Spd, Sphere, Tangent

__all__ = [
    "MinimaxProblem",
    "numeric_riemannian_grad",
    "estimate_smoothness",
    "euclidean_quadratic",
    "spd_bilinear",
    "robust_pca",
    "augmented_lagrangian",
]

# Fixed stream for the empirical smoothness estimate so that problems
# built from the same data always report the same constant.
_SMOOTHNESS_SEED = 12345


@dataclass
class MinimaxProblem:
    """A smooth saddle problem ``min over x, max over y of f(x, y)``.

    Attributes
    ----------
    name : str
    manifold_x, manifold_y : Manifold
        Domains of the minimizing and maximizing blocks.
    value : callable (Point, Point) -> float
    grad_x, grad_y : callable (Point, Point) -> Tangent
        Riemannian partial gradients of ``f`` (not negated; ascent on
        ``y`` uses ``+grad_y``).
    smoothness_l : float or None
        Joint smoothness constant; ``None`` means "estimate on demand"
        via :meth:`smoothness`.
    known_saddle : (Point, Point) or None
        Reference saddle point when one is known in closed form.
    """

    name: str
    manifold_x: Manifold
    manifold_y: Manifold
    value: Callable[[Point, Point], float]
    grad_x: Callable[[Point, Point], Tangent]
    grad_y: Callable[[Point, Point], Tangent]
    smoothness_l: Optional[float] = None
    known_saddle: Optional[tuple[Point, Point]] = None
    _domain: Optional[Product] = field(default=None, repr=False)

    @property
    def domain(self) -> Product:
        """The product manifold the solver state lives on."""
        if self._domain is None:
            self._domain = Product(self.manifold_x, self.manifold_y)
        return self._domain

    def smoothness(self, rng: Optional[np.random.Generator] = None) -> float:
        """Smoothness constant, estimating it empirically if not known.

        The estimate is cached on the problem; with the default ``rng``
        (a fixed internal seed) repeated calls are deterministic.
        """
        if self.smoothness_l is None:
            self.smoothness_l = estimate_smoothness(self, rng)
        return self.smoothness_l


def numeric_riemannian_grad(manifold: Manifold, phi: Callable[[Point], float], x: Point, eps: float) -> Tangent:
    """Riemannian gradient of a scalar function by central differences.

    Builds an orthonormal tangent basis at ``x`` and differences ``phi``
    along each basis geodesic:

        grad = sum_j (phi(Exp_x(eps e_j)) - phi(Exp_x(-eps e_j))) / (2 eps) * e_j

    Parameters
    ----------
    manifold : Manifold
    phi : callable Point -> float
    x : Point
    eps : float
        Step length, positive. A common choice is
        ``1e-5 * max(1, ||x||)``.

    Raises
    ------
    NumericalError
        If an evaluation of ``phi`` returns a non-finite value.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ParameterError(f"eps must be positive and finite, got {eps!r}")
    basis = manifold.tangent_basis(x)
    out = np.zeros_like(x.value)
    for e in basis:
        f_plus = float(phi(manifold.exp(x, eps * e)))
        f_minus = float(phi(manifold.exp(x, (-eps) * e)))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericalError(
                f"objective returned a non-finite value during finite differencing on {manifold.name}"
            )
        out = out + ((f_plus - f_minus) / (2.0 * eps)) * e.value
    return Tangent(x, out)


def estimate_smoothness(problem: MinimaxProblem, rng: Optional[np.random.Generator] = None, samples: int = 100) -> float:
    """Empirical joint smoothness constant of a saddle objective.

    Draws ``samples`` random point pairs ``(x1, y1)``, ``(x2, y2)`` with
    the second pair near the first, transports gradients to a common
    tangent space, and returns twice the largest observed ratio

        ||grad(x1, y1) - transported grad(x2, y2)|| / (d(x1, x2) + d(y1, y2))

    over both blocks. The factor two is headroom for the fact that a
    finite sample can only underestimate the supremum.
    """
    if rng is None:
        rng = np.random.default_rng(_SMOOTHNESS_SEED)
    mx, my = problem.manifold_x, problem.manifold_y
    rx = min(mx.diameter_bound / 2.0, 1.5)
    ry = min(my.diameter_bound / 2.0, 1.5)
    worst = 0.0
    for _ in range(samples):
        x1 = mx.random_point(rng)
        y1 = my.random_point(rng)
        x2 = mx.random_point(rng, near=x1, radius=rx)
        y2 = my.random_point(rng, near=y1, radius=ry)
        dist = mx.distance(x1, x2) + my.distance(y1, y2)
        if dist < 1e-6:
            continue
        gx = problem.grad_x(x1, y1) - mx.transport(problem.grad_x(x2, y2), x1)
        gy = problem.grad_y(x1, y1) - my.transport(problem.grad_y(x2, y2), y1)
        worst = max(worst, mx.norm(gx) / dist, my.norm(gy) / dist)
    if worst <= 0.0:
        raise NumericalError(f"smoothness estimation degenerate for problem {problem.name}")
    return 2.0 * worst


def _operator_norm(b: np.ndarray) -> float:
    """Largest singular value of ``b`` by power iteration on ``b.T b``.

    Deterministic: starts from a fixed slightly-perturbed uniform vector
    and runs until the Rayleigh quotient stabilizes (at most 500
    sweeps). A small multiplicative headroom guards against the
    estimate lagging the true norm.
    """
    n = b.shape[1]
    v = np.ones(n) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(500):
        w = b.T @ (b @ v)
        nw = float(np.linalg.norm(w))
        if nw < 1e-300:
            return 0.0
        v = w / nw
        cur = float(v @ (b.T @ (b @ v)))
        if abs(cur - prev) <= 1e-14 * max(1.0, cur):
            break
        prev = cur
    return math.sqrt(max(cur, 0.0)) * (1.0 + 1e-9)


def euclidean_quadratic(b, diameter_bound: float = 10.0) -> MinimaxProblem:
    """Bilinear coupling ``f(x, y) = x . (b y)`` on R^n x R^n.

    The unique saddle point is the origin pair; the smoothness constant
    is the operator norm of ``b`` (power-iteration estimate).
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 1:
        raise ParameterError(f"coupling matrix must be square, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ParameterError("coupling matrix contains non-finite entries")
    n = b.shape[0]
    mx = Euclidean(n, diameter_bound)
    my = Euclidean(n, diameter_bound)

    def value(x: Point, y: Point) -> float:
        return float(x.value @ (b @ y.value))

    def grad_x(x: Point, y: Point) -> Tangent:
        return Tangent(x, b @ y.value)

    def grad_y(x: Point, y: Point) -> Tangent:
        return Tangent(y, b.T @ x.value)

    saddle = (mx.point(np.zeros(n)), my.point(np.zeros(n)))
    return MinimaxProblem(
        name="euclidean_quadratic",
        manifold_x=mx,
        manifold_y=my,
        value=value,
        grad_x=grad_x,
        grad_y=grad_y,
        smoothness_l=_operator_norm(b),
        known_saddle=saddle,
    )


def _spd_distance_to_identity(a: np.ndarray) -> float:
    lam = sym_eig(a).eigenvalues
    return float(np.linalg.norm(np.log(lam)))


def _bilinear_log(m: Spd, p: Point, target: Point, key: str):
    """``(Log_p(target), log(w), eig(w))`` with ``w = p^{-1/2} target p^{-1/2}``, cached on ``p``."""
    got = p.cache.get(key)
    if got is None:
        m._check_point(p)
        dec = m._log_dec(p, target)
        k = (dec.q * np.log(dec.eigenvalues)) @ dec.q.T
        s = m._sqrt(p)
        got = (symmetrize(s @ k @ s), k, dec)
        p.cache[key] = got
    return got


def _bilinear_grad(m: Spd, p: Point, log_parts, b: np.ndarray) -> Tangent:
    """Riemannian gradient at ``p`` of ``tr(Log_p(target) b)``; see :func:`spd_bilinear`."""
    _, k, wdec = log_parts
    s, s_inv = m._sqrt(p), m._isqrt(p)
    w = wdec.reconstruct()
    adj = daleckii_krein(wdec, s @ b @ s, log_divided, log_derivative)
    half = k @ s @ b - w @ adj @ s_inv
    g = daleckii_krein(m._dec(p), half + half.T, sqrt_divided, sqrt_derivative)
    return Tangent(p, symmetrize(p.value @ g @ p.value))


def spd_bilinear(x0, y0, diameter_bound: Optional[float] = None) -> MinimaxProblem:
    """Curved bilinear analogue ``f(x, y) = tr(Log_x(x0) Log_y(y0))`` on SPD x SPD.

    ``(x0, y0)`` is the saddle point, with value 0 there. Gradients are in
    closed form. Write ``Log_x(x0) = s K s`` with ``s = x^{1/2}``,
    ``w = s^{-1} x0 s^{-1}`` and ``K = log(w)``, and ``B = Log_y(y0)``.
    The Euclidean gradient of ``tr(Log_x(x0) B)`` in ``x`` is the adjoint
    of that chain of matrix functions:

        P = Dlog(w)[s B s]
        H = K s B + B s K - w P s^{-1} - s^{-1} P w
        G = Dsqrt(x)[H]

    where ``Dlog`` and ``Dsqrt`` are Daleckii-Krein derivatives
    (:func:`~geominimax.linalg.daleckii_krein`), and the Riemannian
    gradient is ``x G x``. ``grad_y`` swaps the roles of the two blocks.
    ``check gradients`` compares both against central differences
    (:func:`numeric_riemannian_grad`).

    Parameters
    ----------
    x0, y0 : array_like, SPD matrices (same dimension).
    diameter_bound : float, optional
        Declared per-factor diameter; defaults to twice the distance of
        the saddle component from the identity, plus one.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if x0.shape != y0.shape or x0.ndim != 2:
        raise ParameterError(f"saddle components must be square matrices of equal shape, got {x0.shape} and {y0.shape}")
    if diameter_bound is None:
        dx = 2.0 * _spd_distance_to_identity(x0) + 1.0
        dy = 2.0 * _spd_distance_to_identity(y0) + 1.0
    else:
        dx = dy = float(diameter_bound)
    n = x0.shape[0]
    mx = Spd(n, dx)
    my = Spd(n, dy)
    x0_pt = mx.point(x0)
    y0_pt = my.point(y0)

    def log_x(x: Point):
        return _bilinear_log(mx, x, x0_pt, "bilinear_log_x0")

    def log_y(y: Point):
        return _bilinear_log(my, y, y0_pt, "bilinear_log_y0")

    def value(x: Point, y: Point) -> float:
        return float(np.einsum("ij,ji->", log_x(x)[0], log_y(y)[0]))

    def grad_x(x: Point, y: Point) -> Tangent:
        return _bilinear_grad(mx, x, log_x(x), log_y(y)[0])

    def grad_y(x: Point, y: Point) -> Tangent:
        return _bilinear_grad(my, y, log_y(y), log_x(x)[0])

    return MinimaxProblem(
        name="spd_bilinear",
        manifold_x=mx,
        manifold_y=my,
        value=value,
        grad_x=grad_x,
        grad_y=grad_y,
        smoothness_l=None,
        known_saddle=(x0_pt, y0_pt),
    )


def robust_pca(data, alpha: float, sphere_diameter: float = math.pi / 4.0, spd_diameter: Optional[float] = None) -> MinimaxProblem:
    """Robust PCA as a saddle problem on Sphere(n) x SPD(n).

    The leading-direction player minimizes and the matrix player
    maximizes

        f(x, m) = -x.(m x) - (alpha / k) sum_i d^2(m, m_i)

    where ``d`` is the affine-invariant SPD distance and ``m_1..m_k``
    are the data matrices. The penalty pulls ``m`` toward the data while
    the first term pushes the quadratic form at ``x`` down, so ``x``
    approaches a robust leading eigendirection. Gradients are analytic:

        grad_x f = -2 (m x - (x.(m x)) x)
        grad_m f = -m x x^T m + (2 alpha / k) sum_i Log_m(m_i)

    Parameters
    ----------
    data : sequence of SPD arrays, all n x n, length k >= 1.
    alpha : float
        Penalty weight, must be positive.
    sphere_diameter : float
        Declared diameter of the sphere factor (below pi/2).
    spd_diameter : float, optional
        Declared diameter of the SPD factor; defaults to twice the data
        spread around its first element, plus one.
    """
    if alpha <= 0.0 or not math.isfinite(alpha):
        raise ParameterError(f"alpha must be positive and finite, got {alpha!r}")
    mats = [np.asarray(a, dtype=float) for a in data]
    k = len(mats)
    if k < 1:
        raise ParameterError("need at least one data matrix")
    n = mats[0].shape[0]
    if any(a.shape != (n, n) for a in mats):
        raise ParameterError("all data matrices must share the same square shape")
    probe = Spd(n, 1.0)
    pts = [probe.point(a) for a in mats]
    if spd_diameter is None:
        spread = max(probe.distance(pts[0], p) for p in pts) if k > 1 else 1.0
        spd_diameter = 2.0 * spread + 1.0
    mx = Sphere(n, sphere_diameter)
    my = Spd(n, float(spd_diameter))
    data_pts = [my.point(a) for a in mats]

    def _penalty_logs(m_pt: Point):
        got = m_pt.cache.get("rpca_logs")
        if got is None:
            logs = [my.log(m_pt, p).value for p in data_pts]
            sumsq = 0.0
            for lg in logs:
                t = Tangent(m_pt, lg)
                sumsq += my.inner(t, t)
            got = (logs, sumsq)
            m_pt.cache["rpca_logs"] = got
        return got

    def value(x: Point, m_pt: Point) -> float:
        _, sumsq = _penalty_logs(m_pt)
        quad = float(x.value @ (m_pt.value @ x.value))
        return -quad - (alpha / k) * sumsq

    def grad_x(x: Point, m_pt: Point) -> Tangent:
        mv = m_pt.value @ x.value
        quad = float(x.value @ mv)
        return Tangent(x, -2.0 * (mv - quad * x.value))

    def grad_y(x: Point, m_pt: Point) -> Tangent:
        logs, _ = _penalty_logs(m_pt)
        mx_vec = m_pt.value @ x.value
        out = -np.outer(mx_vec, mx_vec)
        acc = np.zeros_like(out)
        for lg in logs:
            acc = acc + lg
        return Tangent(m_pt, symmetrize(out + (2.0 * alpha / k) * acc))

    return MinimaxProblem(
        name="robust_pca",
        manifold_x=mx,
        manifold_y=my,
        value=value,
        grad_x=grad_x,
        grad_y=grad_y,
        smoothness_l=None,
        known_saddle=None,
    )


def augmented_lagrangian(
    manifold: Manifold,
    g: Callable[[Point], float],
    grad_g: Callable[[Point], Tangent],
    constraints: Sequence[tuple[Callable[[Point], float], Callable[[Point], Tangent]]],
    alpha: float,
    multiplier_diameter: float = 10.0,
) -> MinimaxProblem:
    """Saddle formulation of a constrained geodesically convex program.

    For ``min g(x) subject to h_i(x) = 0`` the augmented Lagrangian

        f(x, lam) = g(x) + sum_i lam_i h_i(x) - (alpha / 2) ||lam||^2

    is minimized over the manifold and maximized over the Euclidean
    multiplier block. ``alpha >= 0`` is the proximal damping; with
    ``alpha = 0`` the classical Lagrangian is recovered.

    Parameters
    ----------
    manifold : Manifold
        Domain of the primal block.
    g, grad_g : callables
        Objective value and Riemannian gradient.
    constraints : sequence of (h, grad_h) pairs
        Scalar constraint functions with their Riemannian gradients.
    alpha : float
        Damping weight, nonnegative.
    multiplier_diameter : float
        Declared diameter of the multiplier block.
    """
    if alpha < 0.0 or not math.isfinite(alpha):
        raise ParameterError(f"alpha must be nonnegative and finite, got {alpha!r}")
    if len(constraints) < 1:
        raise ParameterError("need at least one constraint")
    my = Euclidean(len(constraints), multiplier_diameter)

    def h_vec(x: Point) -> np.ndarray:
        return np.array([float(h(x)) for h, _ in constraints])

    def value(x: Point, lam: Point) -> float:
        return float(g(x) + lam.value @ h_vec(x) - 0.5 * alpha * (lam.value @ lam.value))

    def grad_x(x: Point, lam: Point) -> Tangent:
        out = grad_g(x)
        for w, (_, gh) in zip(lam.value, constraints):
            if w != 0.0:
                out = out + float(w) * gh(x)
        return out

    def grad_y(x: Point, lam: Point) -> Tangent:
        return Tangent(lam, h_vec(x) - alpha * lam.value)

    return MinimaxProblem(
        name="augmented_lagrangian",
        manifold_x=manifold,
        manifold_y=my,
        value=value,
        grad_x=grad_x,
        grad_y=grad_y,
        smoothness_l=None,
        known_saddle=None,
    )
