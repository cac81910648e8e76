"""Core manifold abstraction: points, tangent vectors, and the operation set.

A :class:`Manifold` bundles the five primitives every solver in this
package needs (exponential map, logarithm, parallel transport, distance,
Riemannian inner product) together with curvature metadata. Points and
tangents are thin immutable wrappers around ``numpy`` arrays; tangent
vectors remember their base point so that mixing tangents from different
tangent spaces is caught as a contract violation instead of silently
producing nonsense.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import FrozenInstanceError
from typing import Optional, Sequence

import numpy as np

from ..errors import ContractError, NumericalError

__all__ = ["Point", "Tangent", "Manifold"]

#: Absolute-plus-relative tolerance for tangent-space membership checks.
TANGENT_TOL = 1e-9

#: Tolerance for point membership checks (e.g. unit norm, symmetry).
POINT_TOL = 1e-8


def _read_only(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


class Point:
    """A point on a manifold. The wrapped array is read-only.

    ``Point(manifold, value)`` copies ``value``, so a caller that changes
    its array afterwards does not change the point. ``cache`` holds what
    operations derive from the point (an eigendecomposition, the
    component points of a product point). Attributes cannot be reassigned.
    """

    __slots__ = ("manifold", "value", "cache")

    def __new__(cls, manifold: "Manifold", value):
        return Point._wrap(manifold, np.array(value, dtype=float))

    @staticmethod
    def _wrap(manifold: "Manifold", value: np.ndarray) -> "Point":
        """The point of an array the package has just computed: made
        read-only in place instead of copied. ``value`` must be a float
        array that nothing else holds writable, in the layout a copy
        would give (contiguous)."""
        p = _new(Point)
        # setflags(write=False), without the keyword: it takes half the time.
        value.setflags(False)
        _point_manifold(p, manifold)
        _point_value(p, value)
        _point_cache(p, {})
        return p

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return Point, (self.manifold, self.value)

    def __eq__(self, other):
        return (
            isinstance(other, Point)
            and self.manifold is other.manifold
            and np.array_equal(self.value, other.value)
        )

    def __repr__(self):
        return f"Point({self.manifold.name}, shape={self.value.shape})"


class Tangent:
    """A tangent vector attached to a base point.

    ``Tangent(base, value)`` copies ``value`` and makes it read-only, as
    :class:`Point` does. Supports the linear operations needed by the
    solvers: addition and subtraction of tangents with the same base,
    scalar multiplication, and negation.
    """

    __slots__ = ("base", "value")

    def __new__(cls, base: Point, value):
        return Tangent._wrap(base, np.array(value, dtype=float))

    @staticmethod
    def _wrap(base: Point, value: np.ndarray) -> "Tangent":
        """The tangent of an array the package has just computed, under the
        conditions of :meth:`Point._wrap`."""
        v = _new(Tangent)
        value.setflags(False)
        _tangent_base(v, base)
        _tangent_value(v, value)
        return v

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return Tangent, (self.base, self.value)

    @property
    def manifold(self) -> "Manifold":
        return self.base.manifold

    def _check_same_base(self, other: "Tangent"):
        if not isinstance(other, Tangent):
            raise ContractError(f"expected a Tangent, got {type(other).__name__}")
        _check_same_point(self.base, other.base)

    def __add__(self, other: "Tangent") -> "Tangent":
        self._check_same_base(other)
        return Tangent._wrap(self.base, self.value + other.value)

    def __sub__(self, other: "Tangent") -> "Tangent":
        self._check_same_base(other)
        return Tangent._wrap(self.base, self.value - other.value)

    def __mul__(self, scalar) -> "Tangent":
        return Tangent._wrap(self.base, self.value * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Tangent":
        return Tangent._wrap(self.base, -self.value)

    def norm(self) -> float:
        return self.manifold.norm(self)

    def __repr__(self):
        return f"Tangent({self.manifold.name}, shape={self.value.shape})"


def _check_same_point(a: Point, b: Point):
    """Refuse to combine tangents at ``a`` and at ``b`` unless the points are equal."""
    if a is b or a == b:
        return
    raise ContractError("tangent vectors have different base points; transport one of them first")


# The slots are set through their descriptors, past the read-only __setattr__.
_new = object.__new__
_point_manifold, _point_value, _point_cache = (Point.manifold.__set__, Point.value.__set__, Point.cache.__set__)
_tangent_base, _tangent_value = Tangent.base.__set__, Tangent.value.__set__


class Manifold(ABC):
    """Abstract Riemannian manifold with curvature metadata.

    Concrete subclasses implement the array-level primitives; this base
    class provides the Point/Tangent plumbing, contract checks, and
    generic helpers (orthonormal tangent bases by Gram-Schmidt, random
    points and tangents).

    Attributes
    ----------
    name : str
    dim : int
        Intrinsic dimension.
    kappa_min, kappa_max : float
        Declared sectional curvature bounds, ``kappa_min <= kappa_max``.
    diameter_bound : float
        Declared diameter of the working domain, positive and finite.
    exp_guard : float
        Largest tangent norm accepted by :meth:`exp`; ``inf`` on
        geodesically complete manifolds without conjugate points.
    """

    name: str = "manifold"
    dim: int
    kappa_min: float
    kappa_max: float
    diameter_bound: float
    exp_guard: float = np.inf

    # -- array-level primitives provided by subclasses ------------------

    @abstractmethod
    def _validate_point_array(self, value: np.ndarray) -> np.ndarray:
        """Project ``value`` onto the manifold, raising if it is too far off."""

    @abstractmethod
    def _project_array(self, x: Point, a: np.ndarray) -> np.ndarray:
        """Orthogonal projection of an ambient array onto the tangent space at ``x``."""

    @abstractmethod
    def _inner_array(self, x: Point, u: np.ndarray, v: np.ndarray) -> float:
        """Riemannian inner product of two tangent arrays at ``x``."""

    @abstractmethod
    def exp(self, x: Point, v: Tangent) -> Point:
        """Exponential map: follow the geodesic from ``x`` with velocity ``v`` for unit time."""

    @abstractmethod
    def log(self, x: Point, y: Point) -> Tangent:
        """Inverse of :meth:`exp`: the tangent at ``x`` whose geodesic reaches ``y``."""

    def _reverse_velocity(self, y: Point) -> np.ndarray:
        """The array of ``Log_y(x)`` for ``y = exp(x, v)``: minus the end
        velocity of the geodesic ``exp`` walked, from what it left in
        ``y.cache["geodesic"]``. A tangent at ``y``; the caller wraps it
        or adds it to another tangent's array at ``y``."""
        raise NotImplementedError(f"{self.name} has no reverse geodesic velocity")

    @abstractmethod
    def transport(self, v: Tangent, y: Point) -> Tangent:
        """Parallel transport of ``v`` along the geodesic from its base to ``y``."""

    @abstractmethod
    def distance(self, x: Point, y: Point) -> float:
        """Geodesic distance."""

    @abstractmethod
    def _random_point_array(self, rng: np.random.Generator) -> np.ndarray:
        """Draw the array of a random point (distribution documented per manifold)."""

    # -- wrappers and generic helpers -----------------------------------

    def point(self, value) -> Point:
        """Wrap an array as a point, projecting and validating membership."""
        arr = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"point array for {self.name} contains non-finite entries")
        return Point(self, self._validate_point_array(arr))

    def tangent(self, x: Point, value) -> Tangent:
        """Wrap an array as a tangent at ``x``, projecting and checking membership.

        The input is projected onto the tangent space; if the projection
        moved it by more than ``1e-9 * max(1, ||value||)`` the caller
        passed something that was not a tangent vector and a
        ContractError is raised.
        """
        self._check_point(x)
        arr = np.asarray(value, dtype=float)
        proj = self._project_array(x, arr)
        drift = np.linalg.norm((arr - proj).ravel())
        if drift > TANGENT_TOL * max(1.0, np.linalg.norm(arr.ravel())):
            raise ContractError(
                f"array is not in the tangent space at the given point of {self.name}: "
                f"projection moved it by {drift:.3g}"
            )
        return Tangent(x, proj)

    def zero_tangent(self, x: Point) -> Tangent:
        return Tangent._wrap(x, np.zeros_like(x.value))

    def _check_point(self, x: Point, arg: str = "point"):
        if not isinstance(x, Point) or x.manifold is not self:
            raise ContractError(f"{arg} does not belong to {self.name}")

    def _check_tangent_at(self, v: Tangent, x: Point):
        if not isinstance(v, Tangent):
            raise ContractError(f"expected a Tangent, got {type(v).__name__}")
        if v.base is x or v.base == x:
            return
        raise ContractError(f"tangent is based at a different point of {self.name}")

    def inner(self, u: Tangent, v: Tangent) -> float:
        """Riemannian inner product; both tangents must share a base point."""
        u._check_same_base(v)
        return float(self._inner_array(u.base, u.value, v.value))

    def norm(self, v: Tangent) -> float:
        return math.sqrt(max(0.0, self._inner_array(v.base, v.value, v.value)))

    def tangent_basis(self, x: Point) -> Sequence[Tangent]:
        """Orthonormal basis of the tangent space at ``x``."""
        self._check_point(x)
        return [Tangent._wrap(x, b) for b in self._basis_array(x)]

    def _basis_array(self, x: Point) -> np.ndarray:
        """The vectors of :meth:`tangent_basis` stacked along a new first axis.

        Default implementation: modified Gram-Schmidt (under the
        manifold's inner product) applied to the projections of the
        canonical ambient directions. Subclasses with cheap closed-form
        bases override this.
        """
        basis: list[np.ndarray] = []
        shape = x.value.shape
        size = x.value.size
        for k in range(size):
            e = np.zeros(size)
            e[k] = 1.0
            cand = self._project_array(x, e.reshape(shape))
            for b in basis:
                cand = cand - self._inner_array(x, b, cand) * b
            nrm = np.sqrt(max(0.0, self._inner_array(x, cand, cand)))
            if nrm > 1e-8:
                basis.append(cand / nrm)
            if len(basis) == self.dim:
                break
        if len(basis) != self.dim:
            raise NumericalError(
                f"Gram-Schmidt produced {len(basis)} of {self.dim} basis vectors on {self.name}"
            )
        return np.stack(basis)

    def random_point(
        self,
        rng: np.random.Generator,
        near: Optional[Point] = None,
        radius: float = 1.0,
    ) -> Point:
        """Random point, either globally or within ``radius`` of ``near``."""
        if near is None:
            return Point._wrap(self, self._random_point_array(rng))
        v = self.random_tangent(near, rng, norm=float(rng.uniform(0.0, radius)))
        return self.exp(near, v)

    def random_tangent(self, x: Point, rng: np.random.Generator, norm: Optional[float] = None) -> Tangent:
        """Random tangent with Gaussian coefficients in an orthonormal basis.

        With ``norm`` given, the vector is rescaled to that exact norm.
        """
        self._check_point(x)
        basis = self._basis_array(x)
        coeff = rng.standard_normal(len(basis))
        if norm is not None:
            scale = np.linalg.norm(coeff)
            if scale < 1e-300:
                coeff = np.ones(len(basis))
                scale = np.sqrt(float(len(basis)))
            coeff = coeff * (float(norm) / scale)
        # A sum over the leading axis adds the terms one by one, from zero,
        # in basis order: the bits of a loop of ``out = out + c * e``.
        terms = coeff.reshape((-1,) + (1,) * x.value.ndim) * basis
        return Tangent._wrap(x, terms.sum(axis=0, initial=0.0))

    def __repr__(self):
        return (
            f"{type(self).__name__}(dim={self.dim}, kappa=[{self.kappa_min}, "
            f"{self.kappa_max}], diameter_bound={self.diameter_bound})"
        )
