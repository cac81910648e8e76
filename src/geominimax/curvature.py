"""Curvature distortion constants and the step-size rule built from them.

On a manifold whose sectional curvature lies in ``[kappa_min, kappa_max]``
and whose domain has diameter at most ``c``, squared distances in a
geodesic triangle obey the comparison inequalities

    a^2 <= zeta(kappa_min, c) * b^2 + c^2 - 2 b c cos(A)
    a^2 >= xi(kappa_max, c)  * b^2 + c^2 - 2 b c cos(A)

where ``A`` is the angle between the sides of length ``b`` and ``c``.
``zeta >= 1`` measures the maximal stretch caused by negative curvature
and ``xi <= zeta`` the maximal shrinkage caused by positive curvature;
both equal 1 on flat space. Their ratio ``tau`` controls how short the
corrected-extragradient step has to be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError

__all__ = [
    "CurvatureBounds",
    "zeta",
    "xi",
    "tau",
    "manifold_tau",
    "rceg_step_size",
    "TriangleComparisonReport",
    "check_triangle_comparison",
]

# Below this argument the closed forms x*coth(x) and x*cot(x) lose digits
# to cancellation, so their Taylor expansions are used instead.
_SERIES_CUTOFF = 1e-4


def _x_coth_x(x: float) -> float:
    if x < _SERIES_CUTOFF:
        x2 = x * x
        return 1.0 + x2 / 3.0 - x2 * x2 / 45.0
    return x / math.tanh(x)


def _x_cot_x(x: float) -> float:
    if x < _SERIES_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 3.0 - x2 * x2 / 45.0
    return x / math.tan(x)


def zeta(kappa: float, c: float) -> float:
    """Distance-distortion constant for curvature bounded below by ``kappa <= 0``.

    Equals ``sqrt(-kappa) * c / tanh(sqrt(-kappa) * c)``, continuously
    extended to 1 as either argument goes to 0. Always >= 1.

    Parameters
    ----------
    kappa : float
        Sectional curvature lower bound, must be <= 0.
    c : float
        Maximal side length (domain diameter), must be >= 0 and finite.
    """
    if not (kappa <= 0.0):
        raise ParameterError(f"zeta needs kappa <= 0, got {kappa!r}")
    if not (0.0 <= c < math.inf):
        raise ParameterError(f"zeta needs a finite c >= 0, got {c!r}")
    return _x_coth_x(math.sqrt(-kappa) * c)


def xi(kappa: float, c: float) -> float:
    """Distance-distortion constant for curvature bounded above by ``kappa``.

    For ``kappa <= 0`` this coincides with :func:`zeta`. For
    ``kappa > 0`` it equals ``sqrt(kappa) * c / tan(sqrt(kappa) * c)``,
    which requires ``sqrt(kappa) * c < pi / 2`` and lies in ``(0, 1]``.

    Raises
    ------
    DomainError
        If ``kappa > 0`` and ``sqrt(kappa) * c >= pi / 2``, where the
        constant degenerates to 0.
    """
    if not (0.0 <= c < math.inf):
        raise ParameterError(f"xi needs a finite c >= 0, got {c!r}")
    if kappa <= 0.0:
        return _x_coth_x(math.sqrt(-kappa) * c)
    x = math.sqrt(kappa) * c
    if x >= math.pi / 2.0:
        raise DomainError(
            f"xi undefined: sqrt(kappa) * c = {x:.6g} must be below pi/2 "
            f"(kappa={kappa!r}, c={c!r})"
        )
    return _x_cot_x(x)


@dataclass(frozen=True)
class CurvatureBounds:
    """Sectional curvature range and domain diameter of a manifold region.

    Invariants checked on construction: ``kappa_min <= kappa_max``,
    ``0 < diameter < inf`` and, when ``kappa_max > 0``, the diameter must
    stay below ``pi / (2 sqrt(kappa_max))`` so that :func:`xi` is
    positive.
    """

    kappa_min: float
    kappa_max: float
    diameter: float

    def __post_init__(self):
        if not (self.kappa_min <= self.kappa_max):
            raise ParameterError(
                f"kappa_min={self.kappa_min!r} exceeds kappa_max={self.kappa_max!r}"
            )
        if not (0.0 < self.diameter < math.inf):
            raise ParameterError(f"diameter must be positive and finite, got {self.diameter!r}")
        if self.kappa_max > 0.0 and self.diameter >= math.pi / (2.0 * math.sqrt(self.kappa_max)):
            raise ParameterError(
                f"diameter {self.diameter!r} must be below pi/(2 sqrt(kappa_max)) = "
                f"{math.pi / (2.0 * math.sqrt(self.kappa_max)):.6g}"
            )


def tau(bounds: CurvatureBounds) -> float:
    """Distortion ratio ``zeta(kappa_min, D) / xi(kappa_max, D)``.

    Always >= 1, with equality exactly on flat domains. The reciprocal
    square root of this ratio scales the corrected-extragradient step.
    """
    return zeta(min(bounds.kappa_min, 0.0), bounds.diameter) / xi(bounds.kappa_max, bounds.diameter)


def manifold_tau(manifold) -> float:
    """:func:`tau` of a manifold's declared curvature range and diameter."""
    return tau(CurvatureBounds(min(manifold.kappa_min, 0.0), manifold.kappa_max, manifold.diameter_bound))


def rceg_step_size(l: float, tau_m: float, tau_n: float) -> float:
    """Step size ``min(1/sqrt(tau_m), 1/sqrt(tau_n)) / (2 l)`` for RCEG.

    Parameters
    ----------
    l : float
        Smoothness constant of the saddle objective, must be positive.
    tau_m, tau_n : float
        Distortion ratios of the min- and max-side domains, each >= 1.
    """
    if not (l > 0.0 and math.isfinite(l)):
        raise ParameterError(f"smoothness constant must be positive and finite, got {l!r}")
    if not (tau_m >= 1.0 and tau_n >= 1.0):
        raise ParameterError(f"distortion ratios must be >= 1, got {tau_m!r}, {tau_n!r}")
    return min(1.0 / math.sqrt(tau_m), 1.0 / math.sqrt(tau_n)) / (2.0 * l)


@dataclass(frozen=True)
class TriangleComparisonReport:
    """Outcome of randomized triangle-inequality checks on one manifold."""

    trials: int
    violations_lower: int
    violations_upper: int
    max_slack: float

    @property
    def violations(self) -> int:
        return self.violations_lower + self.violations_upper

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_triangle_comparison(manifold, trials: int, rng, slack: float = 1e-7) -> TriangleComparisonReport:
    """Sample geodesic triangles and test both comparison inequalities.

    Triangles are built from a random vertex ``p`` and two random tangent
    directions with lengths in ``(0, diameter_bound]``; the opposite side
    is rejected (and the triangle resampled) whenever it exceeds the
    manifold's ``diameter_bound``. With ``A`` the angle at ``p`` between
    the sides of length ``b`` and ``c``, and ``a`` the opposite side, the
    checker evaluates

        lower_gap = zeta(kappa_min, c) b^2 + c^2 - 2 b c cos(A) - a^2
        upper_gap = a^2 - xi(kappa_max, max(a, c)) b^2 - c^2 + 2 b c cos(A)

    and counts a violation when a gap falls below ``-slack``. Note the
    argument of ``xi``: evaluating it at the side ``c`` alone is not
    valid on positively curved spaces (random spherical triangles with
    all sides below pi/4 violate that form by up to about 1e-3); the
    comparison argument bounds distances along the triangle by the larger
    of ``a`` and ``c``, and with that argument millions of sampled
    spherical triangles show no violation. ``max_slack`` reports the
    magnitude of the worst violation observed (0 when all gaps are
    nonnegative).

    Raises
    ------
    DomainError
        If rejection sampling cannot produce ``trials`` admissible
        triangles within ``50 * trials`` attempts.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials!r}")
    d_max = manifold.diameter_bound
    kappa_min = manifold.kappa_min
    kappa_max = manifold.kappa_max
    accepted = 0
    attempts = 0
    cap = 50 * trials
    violations_lower = 0
    violations_upper = 0
    worst = 0.0
    while accepted < trials:
        if attempts >= cap:
            raise DomainError(
                f"triangle sampling degenerate: only {accepted}/{trials} triangles "
                f"accepted after {cap} attempts on {manifold!r}"
            )
        attempts += 1
        p = manifold.random_point(rng)
        u = manifold.random_tangent(p, rng, norm=rng.uniform(0.01 * d_max, d_max))
        w = manifold.random_tangent(p, rng, norm=rng.uniform(0.01 * d_max, d_max))
        b = manifold.norm(u)
        c = manifold.norm(w)
        y = manifold.exp(p, u)
        z = manifold.exp(p, w)
        a = manifold.distance(y, z)
        if a > d_max or a < 1e-12:
            continue
        accepted += 1
        cos_a = manifold.inner(u, w) / (b * c)
        cos_a = min(1.0, max(-1.0, cos_a))
        flat = c * c - 2.0 * b * c * cos_a
        lower_gap = zeta(min(kappa_min, 0.0), c) * b * b + flat - a * a
        upper_gap = a * a - xi(kappa_max, max(a, c)) * b * b - flat
        if lower_gap < -slack:
            violations_lower += 1
        if upper_gap < -slack:
            violations_upper += 1
        worst = min(worst, lower_gap, upper_gap)
    return TriangleComparisonReport(
        trials=trials,
        violations_lower=violations_lower,
        violations_upper=violations_upper,
        max_slack=-worst,
    )
