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
from .linalg import sym_eig
from .manifolds import Euclidean, Manifold, Point, Spd, Sphere, Tangent

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
    smoothness_l : float, callable () -> float, or None
        Joint smoothness constant. :meth:`smoothness` replaces a function
        by its value, and ``None`` by an estimate, on first use.
    smoothness_source : str
        How ``smoothness_l`` was obtained: ``"given"`` (the default) for a
        constant passed in, ``"operator_norm"`` where a factory computes
        it exactly, ``"sampled"`` once :meth:`smoothness` has estimated it.
    known_saddle : (Point, Point) or None
        Reference saddle point when one is known in closed form.
    best_response_x : callable Point -> Point, or None
        Exact minimizer of the slice ``f(., y)``, for problems where it has
        a closed form. :func:`~geominimax.solvers.estimate_duality_gap`
        uses it in place of an inner Riemannian descent; ``None`` keeps
        the descent.
    concavity_y : float or None
        Modulus ``mu > 0`` of strong geodesic concavity of every slice
        ``f(x, .)``, for problems that declare one. At any ``y`` it bounds
        the slice maximum: ``max f(x, .) <= f(x, y) + ||grad_y f(x, y)||^2
        / (2 mu)``. :func:`~geominimax.solvers.estimate_duality_gap` stops
        its ascent by it; ``None`` keeps the fixed gradient tolerance.
    """

    name: str
    manifold_x: Manifold
    manifold_y: Manifold
    value: Callable[[Point, Point], float]
    grad_x: Callable[[Point, Point], Tangent]
    grad_y: Callable[[Point, Point], Tangent]
    smoothness_l: Optional[float | Callable[[], float]] = None
    smoothness_source: str = "given"
    known_saddle: Optional[tuple[Point, Point]] = None
    best_response_x: Optional[Callable[[Point], Point]] = None
    concavity_y: Optional[float] = None
    _smoothness_used: bool = field(default=False, repr=False)

    def smoothness(self) -> float:
        """Smoothness constant, computed or estimated empirically on first use if not known.

        The estimate is cached on the problem and drawn from a fixed
        internal seed, so repeated calls are deterministic. A constant that
        is not positive and finite raises ``ParameterError`` naming its source.
        """
        if self.smoothness_l is None:
            self.smoothness_l = estimate_smoothness(self)
            self.smoothness_source = "sampled"
        elif callable(self.smoothness_l):
            self.smoothness_l = self.smoothness_l()
        l = self.smoothness_l
        if not (l > 0.0 and math.isfinite(l)):
            raise ParameterError(f"smoothness constant ({self.smoothness_source}) must be positive and finite, got {l!r}")
        self._smoothness_used = True
        return self.smoothness_l

    def used_smoothness(self) -> Optional[float]:
        """The constant :meth:`smoothness` has returned, or ``None`` if nothing asked for it."""
        return self.smoothness_l if self._smoothness_used else None


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
    return Tangent._wrap(x, out)


def estimate_smoothness(problem: MinimaxProblem, rng: Optional[np.random.Generator] = None) -> float:
    """Empirical joint smoothness constant of a saddle objective.

    Draws 100 random point pairs ``(x1, y1)``, ``(x2, y2)`` with
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
    for _ in range(100):
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


def euclidean_quadratic(b) -> MinimaxProblem:
    """Bilinear coupling ``f(x, y) = x . (b y)`` on R^n x R^n.

    The unique saddle point is the origin pair; the smoothness constant
    is exactly the operator norm ``||b||_2``, computed on first use. Both
    factors have the ``Euclidean`` default diameter 10.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 1:
        raise ParameterError(f"coupling matrix must be square, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ParameterError("coupling matrix contains non-finite entries")
    n = b.shape[0]
    mx = Euclidean(n)
    my = Euclidean(n)

    def value(x: Point, y: Point) -> float:
        return float(x.value @ (b @ y.value))

    def grad_x(x: Point, y: Point) -> Tangent:
        return Tangent._wrap(x, b @ y.value)

    def grad_y(x: Point, y: Point) -> Tangent:
        return Tangent._wrap(y, b.T @ x.value)

    saddle = (mx.point(np.zeros(n)), my.point(np.zeros(n)))
    return MinimaxProblem(
        name="euclidean_quadratic",
        manifold_x=mx,
        manifold_y=my,
        value=value,
        grad_x=grad_x,
        grad_y=grad_y,
        smoothness_l=lambda: float(np.linalg.norm(b, 2)),
        smoothness_source="operator_norm",
        known_saddle=saddle,
    )


def _spd_distance_to_identity(a: np.ndarray) -> float:
    lam = sym_eig(a).eigenvalues
    return float(np.linalg.norm(np.log(lam)))


def spd_bilinear(x0, y0, diameter_bound: Optional[float] = None) -> MinimaxProblem:
    """Curved bilinear analogue ``f(x, y) = tr(Log_x(x0) Log_y(y0))`` on SPD x SPD.

    ``(x0, y0)`` is the saddle point, with value 0 there. ``grad_x`` is the
    closed form :meth:`~geominimax.manifolds.Spd._log_pairing_grad` of ``tr(Log_x(x0) B)``,
    ``B = Log_y(y0)``, from the decomposition the value already needs, and
    ``grad_y`` swaps the blocks. ``check gradients`` compares both against
    central differences (:func:`numeric_riemannian_grad`).

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

    def value(x: Point, y: Point) -> float:
        return float(np.einsum("ij,ji->", mx._log_array(x, x0_pt), my._log_array(y, y0_pt)))

    def grad_x(x: Point, y: Point) -> Tangent:
        return mx._log_pairing_grad(x, x0_pt, my._log_array(y, y0_pt))

    def grad_y(x: Point, y: Point) -> Tangent:
        return my._log_pairing_grad(y, y0_pt, mx._log_array(x, x0_pt))

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


def robust_pca(data, alpha: float) -> MinimaxProblem:
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

    The data are kept as one ``(k, n, n)`` stack, so each new matrix point
    costs one stacked eigendecomposition for the sum of all k logarithms
    and, from its eigenvalues alone, of their squared distances
    (:meth:`~geominimax.manifolds.Spd.log_sum`), cached by ``Spd``.

    The sphere slice ``min_x f(x, m) = -lambda_max(m) - pen(m)`` is solved
    exactly by a leading eigenvector of ``m``. ``best_response_x`` returns
    the first column of ``m``'s eigendecomposition. A point ``Spd.point``
    validated already holds it; a point ``Spd.exp`` made carries a factor
    instead and is decomposed here, one ``eigh`` per duality-gap estimate.

    The matrix slice ``m -> f(x, m)`` is ``2 alpha``-strongly g-concave,
    which ``concavity_y`` declares: ``m -> x.(m x)`` is g-convex under
    the affine-invariant metric (along ``F e^{tS} F^T`` it is a sum of
    ``c_i^2 e^{t lam_i}``), and ``d^2(., m_i)`` is 2-strongly g-convex
    on a Hadamard manifold (Bacak, *Convex Analysis and Optimization in
    Hadamard Spaces*, 2014).

    The sphere factor's declared diameter is the ``Sphere`` default pi/4,
    and the SPD factor's is twice the data spread around its first
    element, plus one.

    Parameters
    ----------
    data : sequence of SPD arrays, all n x n, length k >= 1.
    alpha : float
        Penalty weight, must be positive.
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
    spread = max(probe.distance(pts[0], p) for p in pts) if k > 1 else 1.0
    mx = Sphere(n)
    my = Spd(n, 2.0 * spread + 1.0)
    stack = np.stack([p.value for p in pts])
    stack.setflags(write=False)  # read-only, so Spd.log_sum caches its sums by the stack

    def value(x: Point, m_pt: Point) -> float:
        _, sumsq = my.log_sum(m_pt, stack)
        quad = float(x.value @ (m_pt.value @ x.value))
        return -quad - (alpha / k) * sumsq

    def grad_x(x: Point, m_pt: Point) -> Tangent:
        mv = m_pt.value @ x.value
        quad = float(x.value @ mv)
        return Tangent._wrap(x, -2.0 * (mv - quad * x.value))

    def grad_y(x: Point, m_pt: Point) -> Tangent:
        log_sum, _ = my.log_sum(m_pt, stack)
        mx_vec = m_pt.value @ x.value
        # Both terms are exactly symmetric, so their sum needs no symmetrizing.
        return Tangent._wrap(m_pt, (2.0 * alpha / k) * log_sum - np.outer(mx_vec, mx_vec))

    def best_response_x(m_pt: Point) -> Point:
        return mx.point(my._dec(m_pt).q[:, 0])

    return MinimaxProblem(
        name="robust_pca",
        manifold_x=mx,
        manifold_y=my,
        value=value,
        grad_x=grad_x,
        grad_y=grad_y,
        smoothness_l=None,
        known_saddle=None,
        best_response_x=best_response_x,
        concavity_y=2.0 * alpha,
    )


def augmented_lagrangian(
    manifold: Manifold,
    g: Callable[[Point], float],
    grad_g: Callable[[Point], Tangent],
    constraints: Sequence[tuple[Callable[[Point], float], Callable[[Point], Tangent]]],
    alpha: float,
) -> MinimaxProblem:
    """Saddle formulation of a constrained geodesically convex program.

    For ``min g(x) subject to h_i(x) = 0`` the augmented Lagrangian

        f(x, lam) = g(x) + sum_i lam_i h_i(x) - (alpha / 2) ||lam||^2

    is minimized over the manifold and maximized over the Euclidean
    multiplier block. ``alpha >= 0`` is the proximal damping; with
    ``alpha = 0`` the classical Lagrangian is recovered. The multiplier
    block has the ``Euclidean`` default diameter 10.

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
    """
    if alpha < 0.0 or not math.isfinite(alpha):
        raise ParameterError(f"alpha must be nonnegative and finite, got {alpha!r}")
    if len(constraints) < 1:
        raise ParameterError("need at least one constraint")
    my = Euclidean(len(constraints))

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
        return Tangent._wrap(lam, h_vec(x) - alpha * lam.value)

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
