"""The unit sphere S^{n-1} embedded in R^n."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NoUniqueGeodesicError, ParameterError, StepTooLongError
from .base import POINT_TOL, Manifold, Point, Tangent

__all__ = ["Sphere"]

# Geodesics of length pi reach the antipode, where the logarithm stops
# being unique; stay this far inside the injectivity radius.
_ANTIPODAL_GUARD = math.pi - 1e-6


class Sphere(Manifold):
    """Unit vectors in R^n with the round metric.

    Sectional curvature is identically +1; the declared lower bound is 0,
    which is the tightest value the comparison inequalities accept for
    positively curved spaces. The diameter bound must stay below pi/2 so
    the upper-curvature distortion constant remains positive.

    Parameters
    ----------
    n : int
        Ambient dimension, at least 2 (the manifold has dimension n - 1).
    diameter_bound : float
        Working-domain diameter, in (0, pi/2).
    """

    name = "sphere"

    def __init__(self, n: int, diameter_bound: float = math.pi / 4.0):
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ParameterError(f"n must be an integer >= 2, got {n!r}")
        if not (0.0 < diameter_bound < math.pi / 2.0):
            raise ParameterError(
                f"diameter_bound must lie in (0, pi/2) on the sphere, got {diameter_bound!r}"
            )
        self.n = int(n)
        self.ambient_shape = (self.n,)
        self.dim = int(n) - 1
        self.kappa_min = 0.0
        self.kappa_max = 1.0
        self.diameter_bound = float(diameter_bound)
        self.exp_guard = _ANTIPODAL_GUARD

    def _validate_point_array(self, value: np.ndarray) -> np.ndarray:
        if value.shape != (self.n,):
            raise ParameterError(f"expected shape ({self.n},), got {value.shape}")
        nrm = float(np.linalg.norm(value))
        if abs(nrm - 1.0) > POINT_TOL:
            raise ParameterError(f"point norm {nrm:.6g} is not 1 within {POINT_TOL}")
        return value / nrm

    def _project_array(self, x: Point, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float).reshape(self.n)
        return a - float(np.dot(x.value, a)) * x.value

    def _inner_array(self, x: Point, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(u, v))

    def exp(self, x: Point, v: Tangent) -> Point:
        self._check_tangent_at(v, x)
        theta = math.sqrt(v.value.dot(v.value))
        if theta > self.exp_guard:
            raise StepTooLongError(
                f"tangent norm {theta:.6g} exceeds the sphere exp guard {self.exp_guard:.6g}"
            )
        if theta < 1e-16:
            y = Point._wrap(self, x.value.copy())
        else:
            out = math.cos(theta) * x.value + (math.sin(theta) / theta) * v.value
            y = Point._wrap(self, out / math.sqrt(out.dot(out)))
        y.cache["geodesic"] = (x.value, v.value, theta)
        return y

    def _reverse_velocity(self, y: Point) -> np.ndarray:
        # Minus the velocity at t = 1 of cos(t theta) x + sin(t theta) u, u = v / theta.
        x, v, theta = y.cache["geodesic"]
        u = v / theta if theta else v  # theta = 0 only for v = 0
        return theta * (math.sin(theta) * x - math.cos(theta) * u)

    def log(self, x: Point, y: Point) -> Tangent:
        self._check_point(x)
        self._check_point(y)
        cos_t = min(1.0, max(-1.0, float(np.dot(x.value, y.value))))
        u = y.value - cos_t * x.value
        nu = math.sqrt(u.dot(u))
        # nu = sin(theta) up to rounding, so atan2 recovers the angle with
        # full precision at both ends of the range (acos loses half the
        # significant digits near theta = 0).
        theta = math.atan2(nu, cos_t)
        if theta > _ANTIPODAL_GUARD:
            raise NoUniqueGeodesicError(
                f"points are antipodal within tolerance (angle {theta:.9g}); "
                "the connecting geodesic is not unique"
            )
        if nu < 1e-16:
            return self.zero_tangent(x)
        return Tangent._wrap(x, (theta / nu) * u)

    def transport(self, v: Tangent, y: Point) -> Tangent:
        self._check_point(y)
        x = v.base
        u = self.log(x, y)
        theta = math.sqrt(u.value.dot(u.value))
        if theta < 1e-16:
            return Tangent._wrap(y, self._project_array(y, v.value))
        e = u.value / theta
        a = float(np.dot(v.value, e))
        out = v.value - a * e + a * (math.cos(theta) * e - math.sin(theta) * x.value)
        return Tangent._wrap(y, self._project_array(y, out))

    def distance(self, x: Point, y: Point) -> float:
        self._check_point(x)
        self._check_point(y)
        # Chord-based angle: ||x - y|| = 2 sin(theta/2) and
        # ||x + y|| = 2 cos(theta/2), so atan2 gives theta/2 with full
        # precision over the whole range, including theta = 0 exactly.
        diff, total = x.value - y.value, x.value + y.value
        half = math.atan2(math.sqrt(diff.dot(diff)), math.sqrt(total.dot(total)))
        return 2.0 * half

    def _random_point_array(self, rng: np.random.Generator) -> np.ndarray:
        while True:
            a = rng.standard_normal(self.n)
            nrm = np.linalg.norm(a)
            if nrm > 1e-8:
                return a / nrm
