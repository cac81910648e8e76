"""Randomized invariant suites behind the ``check`` command.

Each suite returns a list of :class:`CheckLine` rows, one per invariant,
carrying the number of trials, the worst observed slack, and a pass
flag. The same functions back the acceptance tests, so the command line
and the test suite agree by construction.

Targets
-------
``manifolds``
    Geometric self-consistency on Euclidean(5), Sphere(4), SPD(3), and a
    Sphere(3) x SPD(2) product: exp/log round trips, distance-norm
    agreement, transport isometry, the log/transport identity
    ``Log_w(x) = -transport(u)`` for ``w = Exp_x(u)``, distance symmetry,
    and exact componentwise behavior of product operations.
``triangles``
    The curvature comparison inequalities behind :func:`~geominimax.curvature.tau`,
    on random geodesic triangles in Euclidean(5), Sphere(4) and SPD(3);
    ``worst`` is the largest violation of either inequality.
``gradients``
    Analytic problem gradients against an independent central-difference
    oracle on every benchmark problem.
``rate``
    The ergodic convergence guarantee: the certified duality gap of the
    averaged iterate on a flat bilinear instance stays below
    ``(d_x0^2 + d_y0^2) / (eta T)`` for every prefix length ``T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import xi, zeta
from .errors import DomainError, ParameterError
from .harness import demo_constrained_projection
from .manifolds import Euclidean, Manifold, Product, Spd, Sphere
from .linalg import random_spd
from .problems import (
    MinimaxProblem,
    euclidean_quadratic,
    numeric_riemannian_grad,
    robust_pca,
    spd_bilinear,
)
from .solvers import certified_gap, resolve_step_size, run

__all__ = [
    "CheckLine",
    "check_manifolds",
    "check_triangles",
    "check_gradients",
    "check_rate",
    "CHECK_TARGETS",
]


# Fixed bounds of the guarantee checks, so that no caller can loosen one.
MANIFOLD_TOL = 1e-8  # each manifold invariant's error, relative where it scales
TRIANGLE_SLACK = 1e-7  # violation of either curvature comparison inequality
GRADIENT_TOL, GRADIENT_EPS = 1e-5, 1e-5  # relative gradient error; central-difference step


@dataclass(frozen=True)
class CheckLine:
    """One invariant result: name, trials, worst slack, verdict."""

    name: str
    trials: int
    worst: float
    passed: bool

    def format(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name:<44s} trials={self.trials:<6d} worst={self.worst:.3e}  {verdict}"


def _check_manifold_suite(manifold: Manifold, label: str, trials: int, rng: np.random.Generator) -> list[CheckLine]:
    """Run the geometric invariants on one manifold."""
    # Both geodesic endpoints must lie in the declared domain ball, so the
    # tangent cap is half the diameter; this also keeps the conditioning of
    # the evaluated quantities within what float64 can certify at MANIFOLD_TOL.
    vmax = min(0.9 * manifold.exp_guard, 0.5 * manifold.diameter_bound)
    worst = {
        "log_exp_roundtrip": 0.0,
        "distance_matches_norm": 0.0,
        "exp_log_roundtrip": 0.0,
        "transport_isometry": 0.0,
        "log_transport_identity": 0.0,
        "distance_symmetry": 0.0,
        "self_distance": 0.0,
    }
    for _ in range(trials):
        x = manifold.random_point(rng)
        v = manifold.random_tangent(x, rng, norm=float(rng.uniform(1e-3, vmax)))
        y = manifold.exp(x, v)
        vn = manifold.norm(v)

        back = manifold.log(x, y)
        worst["log_exp_roundtrip"] = max(
            worst["log_exp_roundtrip"], manifold.norm(back - v) / max(1.0, vn)
        )
        worst["distance_matches_norm"] = max(
            worst["distance_matches_norm"], abs(manifold.distance(x, y) - vn) / max(1.0, vn)
        )
        again = manifold.exp(x, back)
        worst["exp_log_roundtrip"] = max(
            worst["exp_log_roundtrip"],
            float(np.linalg.norm((again.value - y.value).ravel())),
        )

        basis = manifold.tangent_basis(x)
        moved = [manifold.transport(e, y) for e in basis]
        gram = np.array([[manifold.inner(a, b) for b in moved] for a in moved])
        worst["transport_isometry"] = max(
            worst["transport_isometry"], float(np.max(np.abs(gram - np.eye(len(moved)))))
        )

        back_home = manifold.log(y, x)
        carried = manifold.transport(v, y)
        worst["log_transport_identity"] = max(
            worst["log_transport_identity"],
            manifold.norm(back_home + carried) / max(1.0, vn),
        )

        worst["distance_symmetry"] = max(
            worst["distance_symmetry"], abs(manifold.distance(x, y) - manifold.distance(y, x))
        )
        worst["self_distance"] = max(worst["self_distance"], manifold.distance(x, x))

    return [
        CheckLine(f"{label}.{name}", trials, value, value <= MANIFOLD_TOL)
        for name, value in worst.items()
    ]


def _check_product_componentwise(trials: int, rng: np.random.Generator) -> CheckLine:
    """Product operations must equal componentwise application exactly."""
    a = Sphere(3)
    b = Spd(2)
    prod = Product(a, b)
    worst = 0.0
    for _ in range(trials):
        xa = a.random_point(rng)
        xb = b.random_point(rng)
        x = prod.join(xa, xb)
        va = a.random_tangent(xa, rng, norm=0.3)
        vb = b.random_tangent(xb, rng, norm=0.3)
        v = prod.join_tangent(x, va, vb)
        moved = prod.exp(x, v)
        pa, pb = prod.split(moved)
        diff = max(
            float(np.max(np.abs(pa.value - a.exp(xa, va).value))),
            float(np.max(np.abs(pb.value - b.exp(xb, vb).value))),
        )
        dist = abs(prod.distance(x, moved) - math.hypot(a.distance(xa, pa), b.distance(xb, pb)))
        worst = max(worst, diff, dist)
    return CheckLine("product.componentwise_exact", trials, worst, worst == 0.0)


def check_manifolds(trials: int = 100, seed: int = 0) -> list[CheckLine]:
    """Geometric invariant suite over the concrete manifolds."""
    rng = np.random.default_rng(seed)
    lines: list[CheckLine] = []
    for manifold, label in (
        (Euclidean(5), "euclidean5"),
        (Sphere(4), "sphere4"),
        (Spd(3), "spd3"),
        (Product(Sphere(3), Spd(2)), "product_sphere3_spd2"),
    ):
        lines.extend(_check_manifold_suite(manifold, label, trials, rng))
    lines.append(_check_product_componentwise(max(1, trials // 10), rng))
    return lines


def _triangle_comparison_line(
    manifold: Manifold, label: str, trials: int, rng: np.random.Generator, slack: float
) -> CheckLine:
    """Sample geodesic triangles on one manifold and test both comparison inequalities.

    Triangles are built from a random vertex ``p`` and two random tangent
    directions with lengths in ``(0, diameter_bound]``; the opposite side
    is rejected (and the triangle resampled) whenever it exceeds the
    manifold's ``diameter_bound``. With ``A`` the angle at ``p`` between
    the sides of length ``b`` and ``c``, and ``a`` the opposite side, the
    checker evaluates

        lower_gap = zeta(kappa_min, c) b^2 + c^2 - 2 b c cos(A) - a^2
        upper_gap = a^2 - xi(kappa_max, max(a, c)) b^2 - c^2 + 2 b c cos(A)

    Note the argument of ``xi``: evaluating it at the side ``c`` alone is
    not valid on positively curved spaces (random spherical triangles
    with all sides below pi/4 violate that form by up to about 1e-3); the
    comparison argument bounds distances along the triangle by the larger
    of ``a`` and ``c``, and with that argument millions of sampled
    spherical triangles show no violation. ``worst`` is the magnitude of
    the largest violation (0 when all gaps are nonnegative), and the line
    passes when it is at most ``slack``.

    Raises
    ------
    DomainError
        If rejection sampling cannot produce ``trials`` admissible
        triangles within ``50 * trials`` attempts.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials!r}")
    d_max = manifold.diameter_bound
    kappa_min = min(manifold.kappa_min, 0.0)
    accepted = 0
    cap = 50 * trials
    worst = 0.0
    for _ in range(cap):
        p = manifold.random_point(rng)
        u = manifold.random_tangent(p, rng, norm=rng.uniform(0.01 * d_max, d_max))
        w = manifold.random_tangent(p, rng, norm=rng.uniform(0.01 * d_max, d_max))
        b = manifold.norm(u)
        c = manifold.norm(w)
        a = manifold.distance(manifold.exp(p, u), manifold.exp(p, w))
        if a > d_max or a < 1e-12:
            continue
        cos_a = min(1.0, max(-1.0, manifold.inner(u, w) / (b * c)))
        flat = c * c - 2.0 * b * c * cos_a
        lower_gap = zeta(kappa_min, c) * b * b + flat - a * a
        upper_gap = a * a - xi(manifold.kappa_max, max(a, c)) * b * b - flat
        worst = max(worst, -lower_gap, -upper_gap)
        accepted += 1
        if accepted == trials:
            return CheckLine(label, trials, worst, worst <= slack)
    raise DomainError(
        f"triangle sampling degenerate: only {accepted}/{trials} triangles "
        f"accepted after {cap} attempts on {manifold!r}"
    )


def check_triangles(trials: int = 100, seed: int = 0) -> list[CheckLine]:
    """Triangle comparison inequalities on flat, positive, and negative curvature."""
    rng = np.random.default_rng(seed)
    return [
        _triangle_comparison_line(manifold, label, trials, rng, TRIANGLE_SLACK)
        for manifold, label in (
            (Euclidean(5), "triangles.euclidean5"),
            (Sphere(4), "triangles.sphere4"),
            (Spd(3), "triangles.spd3"),
        )
    ]


def _gradient_check_problems(seed: int) -> list[tuple[str, MinimaxProblem]]:
    rng = np.random.default_rng(seed)
    return [
        ("gradients.euclidean_quadratic", euclidean_quadratic(rng.standard_normal((6, 6)))),
        (
            "gradients.spd_bilinear",
            spd_bilinear(random_spd(3, 0.5, 2.0, rng), random_spd(3, 0.5, 2.0, rng)),
        ),
        (
            "gradients.robust_pca",
            robust_pca([random_spd(4, 0.5, 2.0, rng) for _ in range(3)], alpha=1.0),
        ),
        ("gradients.augmented_lagrangian", demo_constrained_projection(3, 0.1, rng)[0]),
    ]


def check_gradients(trials: int = 50, seed: int = 0) -> list[CheckLine]:
    """Analytic gradients against the central-difference oracle.

    For each problem, ``trials`` random pairs are drawn and both partial
    gradients are compared in relative terms (denominator floored at 1).
    """
    rng = np.random.default_rng(seed)
    lines = []
    for name, problem in _gradient_check_problems(seed):
        mx, my = problem.manifold_x, problem.manifold_y
        worst = 0.0
        for _ in range(trials):
            x = mx.random_point(rng)
            y = my.random_point(rng)
            gx = problem.grad_x(x, y)
            nx = numeric_riemannian_grad(mx, lambda p: problem.value(p, y), x, GRADIENT_EPS)
            worst = max(worst, mx.norm(gx - nx) / max(1.0, mx.norm(gx)))
            gy = problem.grad_y(x, y)
            ny = numeric_riemannian_grad(my, lambda p: problem.value(x, p), y, GRADIENT_EPS)
            worst = max(worst, my.norm(gy - ny) / max(1.0, my.norm(gy)))
        lines.append(CheckLine(name, trials, worst, worst <= GRADIENT_TOL))
    return lines


def check_rate(iters: int = 200, seed: int = 0) -> list[CheckLine]:
    """Ergodic rate guarantee on a flat bilinear instance.

    Runs the corrected extragradient with the automatic step size and
    verifies that for every prefix length ``T`` the certified gap of the
    averaged iterate is at most ``(d_x0^2 + d_y0^2) / (eta T)``. The
    reported slack is the worst value of ``gap - bound`` (negative means
    the bound held with margin).
    """
    rng = np.random.default_rng(seed)
    problem = euclidean_quadratic(rng.standard_normal((10, 10)))
    x0 = problem.manifold_x.point(rng.standard_normal(10))
    y0 = problem.manifold_y.point(rng.standard_normal(10))
    eta = resolve_step_size(problem, "auto")
    xs, ys = problem.known_saddle
    d2 = problem.manifold_x.distance(x0, xs) ** 2 + problem.manifold_y.distance(y0, ys) ** 2
    res = run(
        problem,
        "rceg",
        iters=iters,
        start=(x0, y0),
        eta=eta,
        record_every=max(1, iters),
        keep_averages=True,
    )
    worst = -np.inf
    for t, xb, yb in res.averages:
        gap = certified_gap(problem, xb, yb)
        worst = max(worst, gap - d2 / (eta * t))
    return [CheckLine("rate.euclidean_quadratic", iters, float(worst), worst <= 1e-9 and res.status == "ok")]


CHECK_TARGETS = {
    "manifolds": check_manifolds,
    "triangles": check_triangles,
    "gradients": check_gradients,
    "rate": check_rate,
}

