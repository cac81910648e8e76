"""Flat Euclidean space R^n as a (trivial) Riemannian manifold."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from .base import Manifold, Point, Tangent

__all__ = ["Euclidean"]


class Euclidean(Manifold):
    """R^n with the standard inner product.

    Curvature is identically zero, the exponential map is vector
    addition, and parallel transport just rebases the vector. Serves both
    as the flat reference geometry and as the multiplier block in
    constrained problems.

    Parameters
    ----------
    n : int
        Dimension, at least 1.
    diameter_bound : float
        Declared working-domain diameter used by the step-size constants;
        positive and finite. The geometry itself is unbounded.
    """

    name = "euclidean"

    def __init__(self, n: int, diameter_bound: float = 10.0):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ParameterError(f"n must be a positive integer, got {n!r}")
        if not (0.0 < diameter_bound < np.inf):
            raise ParameterError(f"diameter_bound must be positive and finite, got {diameter_bound!r}")
        self.n = int(n)
        self.ambient_shape = (self.n,)
        self.dim = int(n)
        self.kappa_min = 0.0
        self.kappa_max = 0.0
        self.diameter_bound = float(diameter_bound)
        self.exp_guard = np.inf

    def _validate_point_array(self, value: np.ndarray) -> np.ndarray:
        if value.shape != (self.n,):
            raise ParameterError(f"expected shape ({self.n},), got {value.shape}")
        return value

    def _project_array(self, x: Point, a: np.ndarray) -> np.ndarray:
        return np.asarray(a, dtype=float).reshape(self.n)

    def _inner_array(self, x: Point, u: np.ndarray, v: np.ndarray) -> float:
        return float(u.dot(v))

    def exp(self, x: Point, v: Tangent) -> Point:
        self._check_tangent_at(v, x)
        return Point._wrap(self, x.value + v.value)

    def log(self, x: Point, y: Point) -> Tangent:
        self._check_point(x)
        self._check_point(y)
        return Tangent._wrap(x, y.value - x.value)

    def transport(self, v: Tangent, y: Point) -> Tangent:
        self._check_point(y)
        return Tangent._wrap(y, v.value)

    def distance(self, x: Point, y: Point) -> float:
        # np.linalg.norm of a 1-D float array is sqrt(d.dot(d)): same bits.
        d = x.value - y.value
        return math.sqrt(d.dot(d))

    def _random_point_array(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.n)

    def tangent_basis(self, x: Point):
        self._check_point(x)
        return [Tangent._wrap(x, e) for e in np.eye(self.n)]
