"""Product of two manifolds with the direct-sum metric."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from .base import Manifold, Point, Tangent

__all__ = ["Product"]


class Product(Manifold):
    """Cartesian product ``A x B`` with componentwise operations.

    Points and tangents are stored as flat concatenations of the raveled
    component arrays. Every operation applies the component operation to
    each block; the distance is ``sqrt(d_A^2 + d_B^2)``. Curvature
    metadata combines as ``kappa_min = min``, ``kappa_max = max`` and
    ``diameter_bound = sqrt(D_A^2 + D_B^2)``, which ``tau`` reads like any
    manifold's. The constructor does not check ``sqrt(kappa_max) *
    diameter_bound < pi/2``, so ``tau`` of a sphere times a wide flat or
    SPD factor raises ``DomainError``: such a product is no ``eta = auto``
    player, though each factor is valid alone.
    """

    name = "product"

    def __init__(self, a: Manifold, b: Manifold):
        if not isinstance(a, Manifold) or not isinstance(b, Manifold):
            raise ParameterError("both factors must be Manifold instances")
        self.a = a
        self.b = b
        self.ambient_shape_a = a.ambient_shape
        self.ambient_shape_b = b.ambient_shape
        self.size_a = int(np.prod(self.ambient_shape_a))
        self.size_b = int(np.prod(self.ambient_shape_b))
        self.ambient_shape = (self.size_a + self.size_b,)
        self.dim = a.dim + b.dim
        self.kappa_min = min(a.kappa_min, b.kappa_min)
        self.kappa_max = max(a.kappa_max, b.kappa_max)
        self.diameter_bound = float(np.hypot(a.diameter_bound, b.diameter_bound))
        self.exp_guard = min(a.exp_guard, b.exp_guard)
        self.name = f"{a.name}*{b.name}"

    def _key(self) -> tuple:
        return (type(self), self.a, self.b)

    # -- block plumbing -------------------------------------------------

    def join(self, pa: Point, pb: Point) -> Point:
        """Combine component points into a product point."""
        self.a._check_point(pa, "first component")
        self.b._check_point(pb, "second component")
        p = Point._wrap(self, np.concatenate((pa.value.ravel(), pb.value.ravel())))
        p.cache["parts"] = (pa, pb)
        return p

    def split(self, x: Point) -> tuple[Point, Point]:
        """Component points of a product point (cached on the point)."""
        self._check_point(x)
        parts = x.cache.get("parts")
        if parts is None:
            pa = Point._wrap(self.a, x.value[: self.size_a].reshape(self.ambient_shape_a))
            pb = Point._wrap(self.b, x.value[self.size_a :].reshape(self.ambient_shape_b))
            parts = (pa, pb)
            x.cache["parts"] = parts
        return parts

    def join_tangent(self, x: Point, va: Tangent, vb: Tangent) -> Tangent:
        return Tangent._wrap(x, np.concatenate((va.value.ravel(), vb.value.ravel())))

    def split_tangent(self, v: Tangent) -> tuple[Tangent, Tangent]:
        pa, pb = self.split(v.base)
        va = Tangent._wrap(pa, v.value[: self.size_a].reshape(self.ambient_shape_a))
        vb = Tangent._wrap(pb, v.value[self.size_a :].reshape(self.ambient_shape_b))
        return va, vb

    # -- manifold interface ---------------------------------------------

    def point(self, value) -> Point:
        arr = np.asarray(value, dtype=float).ravel()
        if arr.shape != self.ambient_shape:
            raise ParameterError(f"expected {self.ambient_shape[0]} entries, got shape {arr.shape}")
        pa = self.a.point(arr[: self.size_a].reshape(self.ambient_shape_a))
        pb = self.b.point(arr[self.size_a :].reshape(self.ambient_shape_b))
        return self.join(pa, pb)

    def _validate_point_array(self, value: np.ndarray) -> np.ndarray:
        return self.point(value).value

    def _project_array(self, x: Point, arr: np.ndarray) -> np.ndarray:
        pa, pb = self.split(x)
        arr = np.asarray(arr, dtype=float).ravel()
        ua = self.a._project_array(pa, arr[: self.size_a].reshape(self.ambient_shape_a))
        ub = self.b._project_array(pb, arr[self.size_a :].reshape(self.ambient_shape_b))
        return np.concatenate([ua.ravel(), ub.ravel()])

    def _inner_array(self, x: Point, u: np.ndarray, v: np.ndarray) -> float:
        pa, pb = self.split(x)
        ua, ub = u[: self.size_a].reshape(self.ambient_shape_a), u[self.size_a :].reshape(self.ambient_shape_b)
        va, vb = v[: self.size_a].reshape(self.ambient_shape_a), v[self.size_a :].reshape(self.ambient_shape_b)
        return self.a._inner_array(pa, ua, va) + self.b._inner_array(pb, ub, vb)

    def exp(self, x: Point, v: Tangent) -> Point:
        self._check_tangent_at(v, x)
        va, vb = self.split_tangent(v)
        pa, pb = self.split(x)
        return self.join(self.a.exp(pa, va), self.b.exp(pb, vb))

    def log(self, x: Point, y: Point) -> Tangent:
        xa, xb = self.split(x)
        ya, yb = self.split(y)
        return self.join_tangent(x, self.a.log(xa, ya), self.b.log(xb, yb))

    def transport(self, v: Tangent, y: Point) -> Tangent:
        self._check_point(y)
        va, vb = self.split_tangent(v)
        ya, yb = self.split(y)
        return self.join_tangent(y, self.a.transport(va, ya), self.b.transport(vb, yb))

    def distance(self, x: Point, y: Point) -> float:
        xa, xb = self.split(x)
        ya, yb = self.split(y)
        return math.hypot(self.a.distance(xa, ya), self.b.distance(xb, yb))

    def _basis_array(self, x: Point) -> np.ndarray:
        pa, pb = self.split(x)
        ba, bb = self.a._basis_array(pa), self.b._basis_array(pb)
        out = np.zeros((len(ba) + len(bb), self.size_a + self.size_b))
        out[: len(ba), : self.size_a] = ba.reshape(len(ba), -1)
        out[len(ba) :, self.size_a :] = bb.reshape(len(bb), -1)
        return out

    def _random_point_array(self, rng: np.random.Generator) -> np.ndarray:
        pa = self.a.random_point(rng)
        pb = self.b.random_point(rng)
        return np.concatenate([pa.value.ravel(), pb.value.ravel()])
