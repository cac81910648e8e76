"""Dense symmetric-matrix primitives used by the manifold layer.

All routines operate on real symmetric matrices represented as plain
``numpy`` arrays and are deterministic: given bitwise-equal inputs they
return bitwise-equal outputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, DomainError, NumericalError, ParameterError

__all__ = [
    "SpectralDecomposition",
    "all_finite",
    "symmetrize",
    "sym_eig",
    "spectral",
    "log_divided_differences",
    "qr_orthonormal",
    "random_spd",
]

#: Relative floor below which an eigenvalue is treated as non-positive by
#: the spectral functions that require positive definiteness.
POSITIVITY_FLOOR = 1e-12


class SpectralDecomposition(NamedTuple):
    """Eigendecomposition ``a = q @ diag(eigenvalues) @ q.T`` of a symmetric matrix.

    For a stack of matrices both arrays carry the same leading axes.

    Attributes
    ----------
    q : ndarray, shape (..., n, n)
        Orthogonal matrix of eigenvectors, one per column.
    eigenvalues : ndarray, shape (..., n)
        Eigenvalues sorted in descending order.
    """

    q: np.ndarray
    eigenvalues: np.ndarray


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()``, in half the time on short arrays."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(a + a.T) / 2`` of a square array or of each in a stack."""
    return (a + a.swapaxes(-1, -2)) / 2.0


def sym_eig(a) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues in descending order.

    ``numpy.linalg.eigh`` (looked up at call time) returns the eigenvalues
    in ascending order, so the descending order is its order reversed; no
    sort runs. The eigenvalues are returned contiguous, so a reduction
    over them sums in descending order. A single matrix's ``q`` is
    column-major and a stack's ``q`` row-major: the rounding of matrix
    products built on ``q`` depends on its layout, so both are kept fixed.

    Each eigenvector keeps the sign LAPACK gives it. Everything the
    package builds on ``q`` uses each column an even number of times, as
    :func:`spectral` does, and so has the same bits under either sign; a
    caller that uses a column on its own fixes its sign itself, as the
    robust PCA start in ``harness.build_problem`` does.

    A stack ``(..., n, n)`` is decomposed by one ``numpy.linalg.eigh``
    call, and each member's result is bitwise equal to the result of a
    separate call on that member.

    Parameters
    ----------
    a : array_like, shape (n, n) or (..., n, n)
        Symmetric matrix, or a stack of them. The symmetric part is used.

    Returns
    -------
    SpectralDecomposition
        With ``q`` of shape ``(..., n, n)`` and ``eigenvalues`` of shape
        ``(..., n)``.

    Raises
    ------
    ParameterError
        If ``a`` is not a square matrix or a stack of them.
    DomainError
        If ``a`` has non-finite entries.
    NumericalError
        If the underlying eigensolver fails to converge.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ParameterError(f"a must be a square matrix or a stack of them, got shape {a.shape}")
    if not all_finite(a):
        raise DomainError("a contains non-finite entries")
    a = symmetrize(a)
    try:
        lam, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "symmetric eigensolver failed to converge for a matrix with Frobenius norm "
            f"{np.linalg.norm(a):.6g}"
        ) from exc
    return SpectralDecomposition(q[..., ::-1].copy(order="F" if a.ndim == 2 else "C"), lam[..., ::-1].copy())


def spectral(dec: SpectralDecomposition, f=None, inverse: bool = False) -> np.ndarray:
    """``q diag(f(lam)) q.T`` for ``dec = (q, lam)``; ``f`` defaults to the identity.

    With ``inverse`` the columns of ``q`` are divided by ``f(lam)``
    instead, giving ``q diag(f(lam))^-1 q.T`` without forming reciprocals.
    The result is not symmetrized. A stacked ``dec`` gives the stack of
    reconstructions, each bitwise equal to the one of its member.
    """
    vals = dec.eigenvalues if f is None else f(dec.eigenvalues)
    vals = vals[..., None, :]
    q = dec.q
    return ((q / vals) if inverse else (q * vals)) @ q.swapaxes(-1, -2)


#: Relative eigenvalue gap at or below which two eigenvalues are treated as
#: coincident by :func:`log_divided_differences`, which then uses ``log'``
#: at their mean.
COINCIDENT_GAP = 1e-12


def log_divided_differences(lam: np.ndarray) -> np.ndarray:
    """First divided differences of ``log`` on a positive spectrum.

    Entry ``(i, j)`` is ``(log lam_i - log lam_j) / (lam_i - lam_j)``,
    written as ``log1p((lam_i - lam_j) / lam_j) / (lam_i - lam_j)`` so
    that it keeps its accuracy for close eigenvalues, and
    ``1 / ((lam_i + lam_j) / 2)`` where the two coincide to
    :data:`COINCIDENT_GAP` relative. For ``a = q diag(lam) q.T`` the
    Frechet derivative of ``logm`` at ``a`` in the direction ``c`` is
    ``q (L * (q.T c q)) q.T`` with this matrix ``L`` (the Daleckii-Krein
    formula; Higham, *Functions of Matrices*, 2008, ch. 3).
    """
    u, v = lam[:, None], lam[None, :]
    diff = u - v
    apart = np.abs(diff) > COINCIDENT_GAP * np.maximum(u, v)
    out = 2.0 / (u + v)
    return np.divide(np.log1p(diff / v), diff, out=out, where=apart)


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
