"""Symmetric positive definite matrices with the affine-invariant metric."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import DomainError, ParameterError, StepTooLongError
from ..linalg import POSITIVITY_FLOOR, SpectralDecomposition, spectral, sym_eig, symmetrize
from .base import POINT_TOL, Manifold, Point, Tangent

__all__ = ["Spd"]

# exp of eigenvalues beyond this magnitude overflows double precision
# headroom; treat such steps as divergence rather than producing inf.
_EXP_EIG_GUARD = 300.0


class Spd(Manifold):
    """SPD(n) under the affine-invariant metric ``<u, v>_x = tr(x^-1 u x^-1 v)``.

    A Hadamard manifold: sectional curvature lies in [-1/2, 0], geodesics
    are globally length-minimizing, and exp/log are inverse bijections.
    Tangent vectors are symmetric matrices. The closed forms used here
    conjugate by ``x^{1/2}``:

    - ``Exp_x(v) = x^{1/2} expm(x^{-1/2} v x^{-1/2}) x^{1/2}``
    - ``Log_x(y) = x^{1/2} logm(x^{-1/2} y x^{-1/2}) x^{1/2}``
    - ``d(x, y) = || logm(x^{-1/2} y x^{-1/2}) ||_F``
    - transport of ``v`` from ``x`` to ``y`` is ``e v e^T`` with
      ``e = x^{1/2} (x^{-1/2} y x^{-1/2})^{1/2} x^{-1/2}``.

    Each point caches its eigendecomposition (and the square roots
    derived from it) the first time an operation needs it. Points made by
    :meth:`exp` are validated as :meth:`point` validates its input, so a
    step that underflows to a singular matrix raises ``DomainError``.

    Parameters
    ----------
    n : int
        Matrix dimension, at least 1.
    diameter_bound : float
        Declared working-domain diameter, positive and finite.
    """

    name = "spd"

    def __init__(self, n: int, diameter_bound: float = 10.0):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ParameterError(f"n must be a positive integer, got {n!r}")
        if not (0.0 < diameter_bound < np.inf):
            raise ParameterError(f"diameter_bound must be positive and finite, got {diameter_bound!r}")
        self.n = int(n)
        self.ambient_shape = (self.n, self.n)
        self.dim = int(n) * (int(n) + 1) // 2
        self.kappa_min = -0.5
        self.kappa_max = 0.0
        self.diameter_bound = float(diameter_bound)
        self.exp_guard = np.inf

    # -- cached spectral helpers ----------------------------------------

    def _dec(self, x: Point) -> SpectralDecomposition:
        dec = x.cache.get("eig")
        if dec is None:
            dec = sym_eig(x.value)
            lam = dec.eigenvalues
            floor = POSITIVITY_FLOOR * max(1.0, float(lam[0]))
            if lam[-1] <= floor:
                raise DomainError(
                    f"matrix is not positive definite: smallest eigenvalue "
                    f"{lam[-1]:.6g} is below the floor {floor:.6g}"
                )
            x.cache["eig"] = dec
        return dec

    def _cached_spectral(self, x: Point, key: str, f=None, inverse: bool = False) -> np.ndarray:
        s = x.cache.get(key)
        if s is None:
            s = x.cache[key] = spectral(self._dec(x), f, inverse)
        return s

    def _sqrt(self, x: Point) -> np.ndarray:
        return self._cached_spectral(x, "sqrt", np.sqrt)

    def _isqrt(self, x: Point) -> np.ndarray:
        return self._cached_spectral(x, "isqrt", np.sqrt, inverse=True)

    def _inv(self, x: Point) -> np.ndarray:
        return self._cached_spectral(x, "inv", inverse=True)

    # -- manifold interface ---------------------------------------------

    def point(self, value) -> Point:
        arr = np.asarray(value, dtype=float)
        if arr.shape != (self.n, self.n):
            raise ParameterError(f"expected shape ({self.n}, {self.n}), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("matrix contains non-finite entries")
        skew = np.linalg.norm(arr - arr.T)
        if skew > POINT_TOL * max(1.0, np.linalg.norm(arr)):
            raise ParameterError(f"matrix is not symmetric: ||a - a.T|| = {skew:.3g}")
        p = Point._wrap(self, symmetrize(arr))
        self._dec(p)  # validates positive definiteness and primes the cache
        return p

    def _validate_point_array(self, value: np.ndarray) -> np.ndarray:
        return self.point(value).value

    def _project_array(self, x: Point, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float).reshape(self.n, self.n)
        return (a + a.T) / 2.0

    def _inner_array(self, x: Point, u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
        """``tr(x^-1 u x^-1 v)``; for stacks ``(..., n, n)``, one value per member.
        ``x^-1 u`` is formed once when ``v`` is ``u``, as for a norm."""
        inv = self._inv(x)
        a = inv @ u
        return np.einsum("...ij,...ji->...", a, a if v is u else inv @ v)

    def _conj_dec(self, x: Point, a: np.ndarray) -> SpectralDecomposition:
        """Eigendecomposition of ``x^{-1/2} a x^{-1/2}``."""
        isq = self._isqrt(x)
        return sym_eig(isq @ a @ isq)

    def exp(self, x: Point, v: Tangent) -> Point:
        self._check_tangent_at(v, x)
        dec = self._conj_dec(x, v.value)
        lam = dec.eigenvalues  # descending, so its largest magnitude is at one end
        top = max(float(lam[0]), -float(lam[-1]))
        if top > _EXP_EIG_GUARD:
            raise StepTooLongError(
                f"tangent is too long for the SPD exponential: leading conjugated "
                f"eigenvalue {top:.6g} exceeds the overflow guard {_EXP_EIG_GUARD:.0f}"
            )
        sq = self._sqrt(x)
        y = Point._wrap(self, symmetrize(sq @ spectral(dec, np.exp) @ sq))
        self._dec(y)  # a step can underflow to a singular matrix; reject it here
        y.cache["geodesic"] = (sq, dec)
        return y

    def _reverse_velocity(self, y: Point) -> np.ndarray:
        # Minus the velocity at t = 1 of x^{1/2} expm(t A) x^{1/2}, A = x^{-1/2} v x^{-1/2}.
        sq, dec = y.cache["geodesic"]
        return symmetrize(sq @ spectral(dec, lambda lam: -lam * np.exp(lam)) @ sq)

    def _log_dec(self, x: Point, a: np.ndarray) -> SpectralDecomposition:
        """Eigendecomposition of ``w = x^{-1/2} a x^{-1/2}``, for one target or a stack.

        Raises ``DomainError`` naming the first member whose ``w`` is not
        positive definite to the relative floor. A stack is checked in one
        comparison, and searched member by member only when it fails.
        """
        dec = self._conj_dec(x, a)
        lam = dec.eigenvalues
        if lam.ndim > 1 and (lam[..., -1] > POSITIVITY_FLOOR * np.maximum(1.0, lam[..., 0])).all():
            return dec
        # Scalar checks: numpy ufuncs on one eigenvalue cost more than the check.
        for member in [lam] if lam.ndim == 1 else lam.reshape(-1, self.n):
            floor = POSITIVITY_FLOOR * max(1.0, float(member[0]))
            if member[-1] <= floor:
                raise DomainError(
                    f"logarithm target is not positive definite relative to the base: "
                    f"smallest conjugated eigenvalue {member[-1]:.6g} is below {floor:.6g}"
                )
        return dec

    def _log_dec_to(self, x: Point, y: Point) -> SpectralDecomposition:
        """:meth:`_log_dec` of the point ``y``, cached on ``x`` per target array.

        Callers that go from one point to the same target, such as a
        gradient toward a fixed point and the distance to it, share one
        eigendecomposition. An entry keeps the target's read-only array
        alive, so its ``id`` is not reused, and not the target point, so
        points measured each from the one before stay collectable.
        """
        self._check_point(x)
        self._check_point(y)
        a = y.value
        cache = x.cache.setdefault("log_dec", {})
        got = cache.get(id(a))
        if got is None:
            got = cache[id(a)] = (a, self._log_dec(x, a))
        return got[1]

    def _log_array(self, x: Point, a: np.ndarray, dec: Optional[SpectralDecomposition] = None) -> np.ndarray:
        """``Log_x(a)`` for one target or a stack; ``dec`` is :meth:`_log_dec` of ``a`` when the caller has it."""
        self._check_point(x)
        if dec is None:
            dec = self._log_dec(x, a)
        sq = self._sqrt(x)
        return symmetrize(sq @ spectral(dec, np.log) @ sq)

    def log(self, x: Point, y: Point) -> Tangent:
        self._check_point(y)
        return Tangent._wrap(x, self._log_array(x, y.value))

    def log_stack(self, x: Point, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``Log_x(a_i)`` and ``||Log_x(a_i)||_x^2`` for a stack of SPD targets.

        ``targets`` has shape ``(k, n, n)``; the result is the ``(k, n, n)``
        logarithms and their ``(k,)`` squared norms. The conjugations
        ``x^{-1/2} a_i x^{-1/2}`` are one matmul over the stack and their
        eigendecompositions one ``eigh`` call. Member ``i`` is bitwise
        equal to ``log(x, point(a_i)).value`` and to ``inner`` of that
        tangent with itself, and a target that :meth:`log` would reject
        raises the same ``DomainError``. The targets must be symmetric, as
        :meth:`point` makes them; they are not validated here.
        """
        logs = self._log_array(x, targets)
        return logs, self._inner_array(x, logs, logs)

    def transport(self, v: Tangent, y: Point) -> Tangent:
        self._check_point(y)
        x = v.base
        half = spectral(self._log_dec(x, y.value), np.sqrt)
        e = self._sqrt(x) @ half @ self._isqrt(x)
        return Tangent._wrap(y, symmetrize(e @ v.value @ e.T))

    def distance(self, x: Point, y: Point) -> float:
        # np.linalg.norm of a 1-D float array is sqrt(l.dot(l)): same bits.
        l = np.log(self._log_dec_to(x, y).eigenvalues)
        return math.sqrt(l.dot(l))

    def _basis_array(self, x: Point) -> np.ndarray:
        """Closed-form orthonormal basis ``x^{1/2} S x^{1/2}``.

        ``S`` runs over the Frobenius-orthonormal symmetric basis (unit
        diagonal matrices and normalized symmetric pairs, ``i <= j`` in
        row-major order); conjugation by ``x^{1/2}`` turns it into an
        orthonormal family for the affine-invariant inner product at ``x``.
        Element ``(i, j)`` is ``outer(c_i, c_j)`` of the columns of
        ``x^{1/2}``, symmetrized as ``(o + o.T) / sqrt(2)`` when ``i < j``.
        """
        cols = self._sqrt(x).T
        i, j = np.triu_indices(self.n)
        basis = cols[i][:, :, None] * cols[j][:, None, :]
        pair = i != j
        outer = basis[pair]
        basis[pair] = (outer + outer.transpose(0, 2, 1)) * (1.0 / np.sqrt(2.0))
        return basis

    def _random_point_array(self, rng: np.random.Generator) -> np.ndarray:
        radius = float(rng.uniform(0.0, min(self.diameter_bound / 2.0, 3.0)))
        s = symmetrize(rng.standard_normal((self.n, self.n)))
        nrm = float(np.linalg.norm(s))
        if nrm < 1e-12:
            s = np.eye(self.n)
            nrm = float(np.linalg.norm(s))
        s = s * (radius / nrm)
        return symmetrize(spectral(sym_eig(s), np.exp))

    def identity(self) -> Point:
        """The identity matrix as a point."""
        return self.point(np.eye(self.n))
