"""Curvature distortion constants and the step-size rule built from them.

On a manifold whose sectional curvature lies in ``[kappa_min, kappa_max]``
and whose domain has diameter at most ``c``, squared distances in a
geodesic triangle obey the comparison inequalities

    a^2 <= zeta(kappa_min, c) * b^2 + c^2 - 2 b c cos(A)
    a^2 >= xi(kappa_max, c)  * b^2 + c^2 - 2 b c cos(A)

where ``A`` is the angle between the sides of length ``b`` and ``c``.
``zeta >= 1`` measures the maximal stretch caused by negative curvature
and ``xi <= zeta`` the maximal shrinkage caused by positive curvature;
both equal 1 on flat space. Their ratio :func:`tau`, read from a
manifold's declared curvature range and diameter, controls how short the
corrected-extragradient step has to be (:func:`rceg_step_size`). The
``triangles`` target of :mod:`geominimax.checks` samples both
inequalities.
"""

from __future__ import annotations

import math

from .errors import DomainError, ParameterError

__all__ = ["zeta", "xi", "tau", "rceg_step_size"]

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
    return xi(kappa, c)


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


def tau(manifold) -> float:
    """Distortion ratio ``zeta(kappa_min, D) / xi(kappa_max, D)`` of a manifold.

    Reads the manifold's declared ``kappa_min``, ``kappa_max`` and
    ``diameter_bound`` (a positive ``kappa_min`` counts as 0). Always
    >= 1, with equality exactly on flat domains. The reciprocal square
    root of this ratio scales the corrected-extragradient step.
    """
    d = manifold.diameter_bound
    return zeta(min(manifold.kappa_min, 0.0), d) / xi(manifold.kappa_max, d)


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
