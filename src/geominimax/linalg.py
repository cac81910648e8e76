"""Dense symmetric-matrix primitives used by the manifold layer.

All routines operate on real symmetric matrices represented as plain
``numpy`` arrays and are deterministic: given bitwise-equal inputs they
return bitwise-equal outputs, with eigenvector sign and ordering
ambiguities resolved by a fixed convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, NumericalError, ParameterError

__all__ = [
    "SpectralDecomposition",
    "symmetrize",
    "sym_eig",
    "sym_apply",
    "sym_exp",
    "sym_log",
    "sym_sqrt",
    "sym_inv_sqrt",
    "daleckii_krein",
    "log_divided",
    "log_derivative",
    "sqrt_divided",
    "sqrt_derivative",
    "qr_orthonormal",
    "random_spd",
]

#: Relative floor below which an eigenvalue is treated as non-positive by
#: the spectral functions that require positive definiteness.
POSITIVITY_FLOOR = 1e-12

# Classic QR-iteration sweep cap used by the underlying LAPACK driver
# (dsteqr limits itself to 30 iterations per eigenvalue).
_LAPACK_SWEEP_CAP = 30


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition ``a = q @ diag(eigenvalues) @ q.T`` of a symmetric matrix.

    Attributes
    ----------
    q : ndarray, shape (n, n)
        Orthogonal matrix of eigenvectors, one per column.
    eigenvalues : ndarray, shape (n,)
        Eigenvalues sorted in descending order.
    """

    q: np.ndarray
    eigenvalues: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Return ``q @ diag(eigenvalues) @ q.T`` symmetrized."""
        return symmetrize((self.q * self.eigenvalues) @ self.q.T)


def _as_square(a, name: str = "a") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ParameterError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def symmetrize(a) -> np.ndarray:
    """Return the symmetric part ``(a + a.T) / 2`` of a square matrix."""
    a = _as_square(a)
    return (a + a.T) / 2.0


def sym_eig(a) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix with deterministic conventions.

    Eigenvalues are returned in descending order and each eigenvector is
    sign-normalized so that its first component of magnitude above 1e-12
    is positive. Ties between equal eigenvalues are therefore resolved
    identically on every call with the same input.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Symmetric matrix. The symmetric part is used.

    Returns
    -------
    SpectralDecomposition

    Raises
    ------
    NumericalError
        If the underlying eigensolver fails to converge.
    """
    a = symmetrize(a)
    try:
        lam, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "symmetric eigensolver failed to converge within the "
            f"{_LAPACK_SWEEP_CAP}n-sweep cap for a matrix with Frobenius norm "
            f"{np.linalg.norm(a):.6g}"
        ) from exc
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    q = q[:, order]
    # Flip each column so its first sufficiently-nonzero entry is positive.
    first = np.argmax(np.abs(q) > 1e-12, axis=0)
    signs = np.sign(q[first, np.arange(q.shape[1])])
    signs[signs == 0] = 1.0
    return SpectralDecomposition(q=q * signs, eigenvalues=lam)


_SPECTRAL_KINDS = ("exp", "log", "sqrt", "inv_sqrt")


def sym_apply(a, kind: str) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Symmetric matrix; must be positive definite for every kind except
        ``"exp"``.
    kind : {"exp", "log", "sqrt", "inv_sqrt"}

    Returns
    -------
    ndarray, shape (n, n)
        Symmetric result ``q @ diag(f(lam)) @ q.T``.

    Raises
    ------
    DomainError
        If ``kind`` needs positive eigenvalues and some eigenvalue falls
        below ``1e-12 * max(1, lam_max)``; the message names the offender.
    """
    if kind not in _SPECTRAL_KINDS:
        raise ParameterError(f"unknown spectral function {kind!r}, expected one of {_SPECTRAL_KINDS}")
    dec = sym_eig(a)
    lam = dec.eigenvalues
    if kind != "exp":
        floor = POSITIVITY_FLOOR * max(1.0, float(lam[0]))
        if lam[-1] <= floor:
            raise DomainError(
                f"matrix is not positive definite for {kind!r}: smallest eigenvalue "
                f"{lam[-1]:.6g} is below the floor {floor:.6g}"
            )
    if kind == "exp":
        f = np.exp(lam)
    elif kind == "log":
        f = np.log(lam)
    elif kind == "sqrt":
        f = np.sqrt(lam)
    else:
        f = 1.0 / np.sqrt(lam)
    return symmetrize((dec.q * f) @ dec.q.T)


def sym_exp(a) -> np.ndarray:
    """Matrix exponential of a symmetric matrix."""
    return sym_apply(a, "exp")


def sym_log(a) -> np.ndarray:
    """Matrix logarithm of a symmetric positive definite matrix."""
    return sym_apply(a, "log")


def sym_sqrt(a) -> np.ndarray:
    """Symmetric square root of a symmetric positive definite matrix."""
    return sym_apply(a, "sqrt")


def sym_inv_sqrt(a) -> np.ndarray:
    """Inverse symmetric square root of a symmetric positive definite matrix."""
    return sym_apply(a, "inv_sqrt")


#: Relative eigenvalue gap at or below which two eigenvalues are treated as
#: coincident by :func:`daleckii_krein`, which then uses ``f'`` at their mean.
COINCIDENT_GAP = 1e-12


def daleckii_krein(dec: SpectralDecomposition, c: np.ndarray, divided, derivative) -> np.ndarray:
    """Derivative of a spectral matrix function, ``q (gamma * (q.T c q)) q.T``.

    For ``a = q diag(lam) q.T`` and a scalar function ``f``, this is the
    Frechet derivative of ``f(a)`` in the direction ``c`` (the
    Daleckii-Krein formula; Higham, *Functions of Matrices*, 2008, ch. 3).
    ``gamma[i, j]`` is the first divided difference of ``f`` on
    ``(lam_i, lam_j)``. The map is self-adjoint under the trace inner
    product, so it also pulls a gradient with respect to ``f(a)`` back to
    a gradient with respect to ``a``.

    Parameters
    ----------
    dec : SpectralDecomposition
        Eigendecomposition of ``a``.
    c : ndarray, shape (n, n)
        Symmetric direction (or gradient).
    divided : callable (ndarray, ndarray) -> ndarray
        Elementwise ``(f(u) - f(v)) / (u - v)`` for distinct ``u``, ``v``,
        written in a form free of cancellation when ``u`` is close to ``v``.
    derivative : callable ndarray -> ndarray
        Elementwise ``f'``, used where two eigenvalues coincide to
        :data:`COINCIDENT_GAP` relative.
    """
    lam = dec.eigenvalues
    u, v = np.meshgrid(lam, lam, indexing="ij")
    apart = np.abs(u - v) > COINCIDENT_GAP * np.maximum(np.abs(u), np.abs(v))
    gamma = derivative((u + v) / 2.0)
    gamma[apart] = divided(u[apart], v[apart])
    q = dec.q
    return q @ (gamma * (q.T @ c @ q)) @ q.T


def log_divided(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(log u - log v) / (u - v)`` for distinct positive ``u``, ``v``."""
    return np.log1p((u - v) / v) / (u - v)


def log_derivative(u: np.ndarray) -> np.ndarray:
    return 1.0 / u


def sqrt_divided(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(sqrt u - sqrt v) / (u - v)`` for positive ``u``, ``v``."""
    return 1.0 / (np.sqrt(u) + np.sqrt(v))


def sqrt_derivative(u: np.ndarray) -> np.ndarray:
    return 0.5 / np.sqrt(u)


def qr_orthonormal(b) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with a deterministic sign convention.

    Returns ``(q, r)`` with orthonormal columns in ``q`` and the diagonal
    of ``r`` nonnegative, which makes the factorization unique for full
    column rank input.

    Raises
    ------
    DegenerateInputError
        If ``b`` is (numerically) rank deficient, detected by a diagonal
        entry of ``r`` at or below ``1e-12 * max(1, ||b||_F)``.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] < b.shape[1] or b.shape[1] < 1:
        raise ParameterError(f"expected a tall or square matrix, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise DomainError("matrix contains non-finite entries")
    q, r = np.linalg.qr(b)
    diag = np.diagonal(r)
    floor = POSITIVITY_FLOOR * max(1.0, float(np.linalg.norm(b)))
    if np.min(np.abs(diag)) <= floor:
        raise DegenerateInputError(
            f"matrix is rank deficient: |r[{int(np.argmin(np.abs(diag)))},"
            f"{int(np.argmin(np.abs(diag)))}]| = {np.min(np.abs(diag)):.6g} "
            f"is below the floor {floor:.6g}"
        )
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs, signs[:, None] * r


def random_spd(n: int, mu: float, l: float, rng: np.random.Generator) -> np.ndarray:
    """Draw a random symmetric positive definite matrix with spectrum in [mu, l].

    The matrix is ``q @ diag(sigma) @ q.T`` where ``q`` comes from the QR
    factorization of a standard Gaussian matrix (the entry scale is
    irrelevant to ``q``) and ``sigma`` is drawn uniformly from
    ``[mu, l]``. Draws are bitwise reproducible for a given generator
    state; pass ``numpy.random.default_rng(seed)`` (PCG64) for a portable
    documented stream.

    Parameters
    ----------
    n : int
        Dimension, at least 1.
    mu, l : float
        Eigenvalue range bounds with ``0 < mu <= l``.
    rng : numpy.random.Generator

    Returns
    -------
    ndarray, shape (n, n)
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    if not (0.0 < mu <= l) or not np.isfinite(l):
        raise ParameterError(f"need 0 < mu <= l < inf, got mu={mu!r}, l={l!r}")
    q, _ = qr_orthonormal(rng.standard_normal((n, n)))
    sigma = rng.uniform(mu, l, size=n)
    return symmetrize((q * sigma) @ q.T)
