"""Symmetric positive definite matrices with the affine-invariant metric."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, ParameterError, StepTooLongError
from ..linalg import POSITIVITY_FLOOR, SpectralDecomposition, log_divided_differences, spectral, sym_eig, symmetrize
from .base import POINT_TOL, Manifold, Point, Tangent

__all__ = ["Spd"]

# exp of eigenvalues beyond this magnitude overflows double precision
# headroom; treat such steps as divergence rather than producing inf.
_EXP_EIG_GUARD = 300.0


def _require_floor(lam: np.ndarray, message: str):
    """``DomainError(message.format(lam_min, floor))`` for the first member of ``lam`` (descending
    eigenvalues, one row per member) with ``lam_min <= floor = 1e-12 max(1, lam_max)``.
    Scalar checks: numpy ufuncs on one eigenvalue cost more than the check."""
    for member in [lam] if lam.ndim == 1 else lam.reshape(-1, lam.shape[-1]):
        floor = POSITIVITY_FLOOR * max(1.0, float(member[0]))
        if member[-1] <= floor:
            raise DomainError(message.format(member[-1], floor))


class Spd(Manifold):
    """SPD(n) under the affine-invariant metric ``<u, v>_x = tr(x^-1 u x^-1 v)``.

    A Hadamard manifold: sectional curvature lies in [-1/2, 0], geodesics
    are globally length-minimizing, and exp/log are inverse bijections.
    Tangent vectors are symmetric matrices. The closed forms used here
    conjugate by a factor ``F`` of the base point, ``x = F F^T``; every one
    of them is affine-invariant, so any such factor gives the same result
    (Pennec, Fillard & Ayache, IJCV 2006):

    - ``Exp_x(v) = F expm(F^-1 v F^-T) F^T``
    - ``Log_x(y) = F logm(F^-1 y F^-T) F^T``
    - ``d(x, y) = || logm(F^-1 y F^-T) ||_F``
    - ``x^-1 = F^-T F^-1``
    - transport of ``v`` from ``x`` to ``y`` is ``e v e^T`` with
      ``e = F (F^-1 y F^-T)^{1/2} F^-1``.

    Every point holds one factor pair ``(F, F^-1)``: ``F = P diag(s)^{1/2}``
    and ``F^-1 = (P / sqrt(s))^T`` from the decomposition ``x = P diag(s)
    P^T`` that validates it or, for a point :meth:`exp` made from ``x`` with
    ``F^-1 v F^-T = Q diag(lam) Q^T``, ``F_y = F Q e^{lam/2}`` and ``F_y^-1
    = e^{-lam/2} Q^T F^-1`` after one Newton-Schulz step ``X <- 2 X - X F_y
    X``, which keeps rounding in ``F^-1 F`` from accumulating along a run.
    Such a point is ``y = F_y F_y^T``, symmetrized, and keeps the geodesic
    ``(F_y, lam)`` for RCEG's correction ``Log_y(x) = -F_y diag(lam) F_y^T``.

    The point :meth:`exp` makes must be positive definite to the floor that
    :meth:`point` applies: ``lam_min(y) > 1e-12 max(1, lam_max(y))``. As
    ``||F_y||_F^2 = tr(y) >= lam_max`` and ``||F_y^-1||_F^2 = tr(y^-1) >=
    1 / lam_min``, ``y`` is accepted without a decomposition when
    ``1 > 2e-12 ||F_y^-1||_F^2 max(1, ||F_y||_F^2)``. Otherwise ``y`` is
    decomposed and held to the exact rule, so a step that underflows to a
    singular matrix raises the ``DomainError`` of :meth:`point`. Its own
    eigendecomposition is still computed, lazily, where an operation
    needs it: the closed-form tangent basis and ``robust_pca``'s best
    response.

    Only this class writes an SPD point's ``cache``. Besides those, ``x``
    keeps one entry per target array ``a``, keyed by ``id(a)``: the decomposition
    of ``F^-1 a F^-T`` and, once asked for, the read-only ``Log_x(a)`` of a
    point or :meth:`log_sum`'s sums of a read-only stack. Problems whose
    manifolds compare equal may share points, never each other's entries.

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
            _require_floor(dec.eigenvalues, "matrix is not positive definite: "
                           "smallest eigenvalue {:.6g} is below the floor {:.6g}")
            x.cache["eig"] = dec
        return dec

    def _factor(self, x: Point) -> tuple[np.ndarray, np.ndarray]:
        """``(F, F^-1)`` with ``x = F F^T``: the pair :meth:`exp` left on a point
        it made, else ``(Q diag(lam)^{1/2}, (Q / sqrt(lam))^T)`` from the
        decomposition ``x = Q diag(lam) Q^T`` that validated the point, with
        no product. Callers take ``F^T`` and ``F^-T`` as ``.T`` views."""
        f = x.cache.get("factor")
        if f is None:
            q, lam = self._dec(x)
            root = np.sqrt(lam)
            f = x.cache["factor"] = (q * root, (q / root).T)
        return f

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

    def _inner_array(self, x: Point, u: np.ndarray, v: np.ndarray) -> float:
        """``tr(x^-1 u x^-1 v) = <F^-1 u F^-T, F^-1 v F^-T>``; one conjugation when ``v`` is ``u``, as for a norm."""
        fi = self._factor(x)[1]
        a = fi @ u @ fi.T
        return np.einsum("ij,ji->", a, a if v is u else fi @ v @ fi.T)

    def exp(self, x: Point, v: Tangent) -> Point:
        self._check_tangent_at(v, x)
        f, fi = self._factor(x)
        dec = sym_eig(fi @ v.value @ fi.T)
        lam = dec.eigenvalues  # descending, so its largest magnitude is at one end
        top = max(float(lam[0]), -float(lam[-1]))
        if top > _EXP_EIG_GUARD:
            raise StepTooLongError(
                f"tangent is too long for the SPD exponential: leading conjugated "
                f"eigenvalue {top:.6g} exceeds the overflow guard {_EXP_EIG_GUARD:.0f}"
            )
        half = np.exp(0.5 * lam)
        fy = (f @ dec.q) * half
        y = Point._wrap(self, symmetrize(fy @ fy.T))
        fyi = (dec.q.T @ fi) / half[:, None]
        fyi = 2.0 * fyi - fyi @ (fy @ fyi)
        # tr(y^-1) max(1, tr(y)) bounds 1 / lam_min max(1, lam_max) from above.
        if not 1.0 > 2.0 * POSITIVITY_FLOOR * np.vdot(fyi, fyi) * max(1.0, np.vdot(fy, fy)):
            self._dec(y)  # a step can underflow to a singular matrix; the exact rule rejects it
        y.cache["factor"] = (fy, fyi)
        y.cache["geodesic"] = (fy, lam)
        return y

    def _reverse_velocity(self, y: Point) -> np.ndarray:
        # Minus the velocity F A e^A F^T = F_y diag(lam) F_y^T at t = 1 of F expm(t A) F^T.
        fy, lam = y.cache["geodesic"]
        return symmetrize((fy * -lam) @ fy.T)

    def _walked(self, y: Point) -> float:
        lam = y.cache["geodesic"][1]  # ||lam|| = ||F^-1 v F^-T||_F = ||v||_x = d(x, y)
        return math.sqrt(lam.dot(lam))

    def _log_dec(self, x: Point, a: np.ndarray) -> SpectralDecomposition:
        """Eigendecomposition of ``w = F^-1 a F^-T``, for one target or a stack.

        Raises ``DomainError`` naming the first member whose ``w`` is not
        positive definite to the relative floor. A stack is checked in one
        comparison, and searched member by member only when it fails.
        """
        fi = self._factor(x)[1]
        dec = sym_eig(fi @ a @ fi.T)
        lam = dec.eigenvalues
        if lam.ndim > 1 and (lam[..., -1] > POSITIVITY_FLOOR * np.maximum(1.0, lam[..., 0])).all():
            return dec
        _require_floor(lam, "logarithm target is not positive definite relative to the base: "
                       "smallest conjugated eigenvalue {:.6g} is below {:.6g}")
        return dec

    def _log_to(self, x: Point, y: Point) -> list:
        """``x``'s cache entry ``[a, dec, log]`` for the point ``y``, keyed by ``id(a)``, ``a = y.value``.

        ``dec`` is :meth:`_log_dec` of ``a``, which log, distance, transport
        and :meth:`_log_pairing_grad` share; ``log`` is the read-only
        array of ``Log_x(y)`` once :meth:`_log_array` has made it. An entry
        keeps the target's read-only array alive, so its ``id`` is not
        reused, and not the target point, so points measured each from the
        one before stay collectable.
        """
        self._check_point(x)
        self._check_point(y)
        a = y.value
        cache = x.cache.setdefault("log", {})
        got = cache.get(id(a))
        if got is None:
            got = cache[id(a)] = [a, self._log_dec(x, a), None]
        return got

    def _log_array(self, x: Point, y: Point) -> np.ndarray:
        """The read-only array of ``Log_x(y)``, kept in :meth:`_log_to`'s entry."""
        got = self._log_to(x, y)
        if got[2] is None:
            f = self._factor(x)[0]
            got[2] = symmetrize(f @ spectral(got[1], np.log) @ f.T)
            got[2].setflags(False)
        return got[2]

    def log(self, x: Point, y: Point) -> Tangent:
        return Tangent._wrap(x, self._log_array(x, y))

    def _log_pairing_grad(self, x: Point, y: Point, b: np.ndarray) -> Tangent:
        """Riemannian gradient at ``x`` of ``tr(Log_x(y) b)`` for a fixed symmetric ``b``.

        With ``F`` the factor of ``x = F F^T``, ``w = F^-1 y F^-T = Q diag(lam) Q^T``
        from :meth:`_log_to`'s entry and ``K = log(w)`` (so ``Log_x(y) = F K F^T``), it is

            G = P (M * (P^T b P)) P^T,    P = F Q,
            M_ij = (log lam_i + log lam_j) / 2 - L_ij (lam_i + lam_j) / 2,

        with ``*`` the entrywise product and ``L`` the divided differences of
        ``log`` on ``lam`` (:func:`~geominimax.linalg.log_divided_differences`).
        Derivation: moving ``x`` along ``F e^{t Xi} F^T`` with the factor
        ``g(t) = F e^{t Xi / 2}``, affine invariance gives
        ``D Log_x(y)[F Xi F^T] = F ((Xi K + K Xi) / 2 - Dlog(w)[(Xi w + w Xi) / 2]) F^T``,
        which in ``w``'s eigenbasis is ``M`` times ``Q^T Xi Q`` entrywise;
        pairing it with ``b`` and reading off the affine-invariant metric
        gives ``G``. ``P`` takes the ``F`` that conjugated ``y`` into ``w``.
        """
        q, lam = self._log_to(x, y)[1]
        log_lam = np.log(lam)
        mean_log = (log_lam[:, None] + log_lam) / 2.0
        weights = mean_log - log_divided_differences(lam) * ((lam[:, None] + lam) / 2.0)
        pq = self._factor(x)[0] @ q
        return Tangent._wrap(x, symmetrize(pq @ (weights * (pq.T @ b @ pq)) @ pq.T))

    def log_sum(self, x: Point, targets: np.ndarray) -> tuple[np.ndarray, float]:
        """``(sum_i Log_x(a_i), sum_i d(x, a_i)^2)`` for a ``(k, n, n)`` stack of SPD targets.

        The conjugations ``F^-1 a_i F^-T = Q_i diag(lam_i) Q_i^T`` are one
        matmul and one ``eigh`` call. With ``l`` all ``log lam_i`` in member
        order and ``Qc = [Q_1 ... Q_k]``, the sum is ``F Qc diag(l) Qc^T
        F^T``, and as ``d(x, a_i)^2 = sum log^2 lam_i`` the squared sum is
        ``l . l``. A target that :meth:`log` would reject raises the same
        ``DomainError``. The targets must be symmetric, as :meth:`point`
        makes them; they are not validated here.

        The sum is read-only. A read-only stack, which must not change,
        gets the entry ``[targets, None, (sum, sumsq)]`` keyed as
        :meth:`_log_to` keys a point's array, without the decomposition;
        a writable stack is never cached.
        """
        self._check_point(x)
        cache = {} if targets.flags.writeable else x.cache.setdefault("log", {})
        got = cache.get(id(targets))
        if got is None:
            dec = self._log_dec(x, targets)
            l = np.log(dec.eigenvalues).reshape(-1)
            qc = dec.q.transpose(1, 0, 2).reshape(self.n, -1)
            f = self._factor(x)[0]
            total = symmetrize(f @ ((qc * l) @ qc.T) @ f.T)
            total.setflags(False)
            got = cache[id(targets)] = [targets, None, (total, float(l @ l))]
        return got[2]

    def transport(self, v: Tangent, y: Point) -> Tangent:
        x = v.base
        f, fi = self._factor(x)
        e = f @ spectral(self._log_to(x, y)[1], np.sqrt) @ fi
        return Tangent._wrap(y, symmetrize(e @ v.value @ e.T))

    def distance(self, x: Point, y: Point) -> float:
        # np.linalg.norm of a 1-D float array is sqrt(l.dot(l)): same bits.
        l = np.log(self._log_to(x, y)[1].eigenvalues)
        return math.sqrt(l.dot(l))

    def _basis_array(self, x: Point) -> np.ndarray:
        """Closed-form orthonormal basis ``x^{1/2} S x^{1/2}``.

        ``S`` runs over the Frobenius-orthonormal symmetric basis (unit
        diagonal matrices and normalized symmetric pairs, ``i <= j`` in
        row-major order); conjugation by ``x^{1/2}`` turns it into an
        orthonormal family for the affine-invariant inner product at ``x``.
        Element ``(i, j)`` is ``outer(c_i, c_j)`` of the columns of
        ``x^{1/2}``, symmetrized as ``(o + o.T) / sqrt(2)`` when ``i < j``.
        (The point's factor ``F`` would give other :meth:`random_tangent` draws.)
        """
        cols = spectral(self._dec(x), np.sqrt).T
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
