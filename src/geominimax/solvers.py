"""Saddle-point solvers: corrected extragradient, descent-ascent, gap estimation.

The central iteration is the Riemannian corrected extragradient (RCEG):
an extrapolation step followed by a corrected update whose second stage
adds ``Log_w(x)`` so that, in the tangent space of the extrapolated
point, the update behaves exactly like its Euclidean counterpart:

    w = Exp_x(-eta grad_x f(x, y))        z = Exp_y(+eta grad_y f(x, y))
    x+ = Exp_w(-eta grad_x f(w, z) + Log_w(x))
    y+ = Exp_z(+eta grad_y f(w, z) + Log_z(y))

which satisfies ``Log_w(x+) = Log_w(x) - eta grad_x f(w, z)``.
``Log_w(x)`` is minus the end velocity of the extrapolation's geodesic,
which the manifold reads from what ``exp`` left on ``w``, so no
logarithm is taken. The first stage alone is the descent-ascent
baseline (RGDA), which is divergent on bilinear-type couplings. The
steppers only step: the geodesic running mean of the extrapolated
pairs, which the ergodic rate statement is about, is folded by
:func:`run` under ``run(..., keep_averages=True)``.

Each player moves on its own manifold, so a :class:`SolverState` holds
the factor points, and the steppers, the trace rows, the drift check and
the gap estimate work on them. A :class:`~geominimax.manifolds.Product`
point is built only where a product metric is needed (the geodesic
average) or when a caller reads ``state.current``.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .curvature import rceg_step_size, tau
from .errors import (
    DomainError,
    GeominimaxError,
    NumericalError,
    ParameterError,
    StepTooLongError,
)
from .linalg import all_finite
from .manifolds import Manifold, Point, Product, Tangent
from .manifolds.base import _check_same_point, _read_only
from .problems import MinimaxProblem

__all__ = [
    "SolverState",
    "IterationRecord",
    "RunResult",
    "GapEstimate",
    "make_state",
    "resolve_step_size",
    "rceg_step",
    "rgda_step",
    "geodesic_average_update",
    "riemannian_gd",
    "riemannian_bb",
    "certified_gap",
    "estimate_duality_gap",
    "run",
]


# SolverState's fields; the body of a NamedTuple may not define __new__.
class _StateFields(NamedTuple):
    domain: Product
    t: int
    x: Point
    y: Point
    w: Optional[Point]
    z: Optional[Point]
    eta: float


class SolverState(_StateFields):
    """State of a saddle solver after ``t`` completed steps.

    The state holds factor points: ``x, y`` is the current pair
    ``(x_t, y_t)`` and ``w, z`` the last extrapolated pair ``(w_t, z_t)``
    (the current pair itself for RGDA, ``None`` before the first step).
    ``current`` and ``extrapolated`` join those pairs into points of the
    product manifold ``domain`` on each read; nothing on :func:`run`'s
    per-step path reads them. Attributes cannot be reassigned, and
    construction, unpickling, ``_make`` and ``_replace`` included, checks
    ``t`` and ``eta``.
    """

    __slots__ = ()

    def __new__(cls, domain, t, x, y, w, z, eta):
        if t < 0:
            raise ParameterError(f"iteration counter must be >= 0, got {t}")
        if not (eta > 0.0 and math.isfinite(eta)):
            raise ParameterError(f"step size must be positive and finite, got {eta!r}")
        return tuple.__new__(cls, (domain, t, x, y, w, z, eta))

    # The inherited _make, which _replace calls, skips __new__.
    _make = classmethod(lambda cls, it: cls(*it))

    __setattr__ = __delattr__ = _read_only

    @property
    def current(self) -> Point:
        """``(x, y)`` as a point of ``domain``."""
        return self.domain.join(self.x, self.y)

    @property
    def extrapolated(self) -> Optional[Point]:
        """``(w, z)`` as a point of ``domain``, ``None`` before the first step."""
        return None if self.w is None else self.domain.join(self.w, self.z)


class IterationRecord(NamedTuple):
    """Diagnostics for one recorded iteration: the trace's columns, in
    order. Attributes cannot be reassigned."""

    t: int
    value: float
    grad_norm_x: float
    grad_norm_y: float
    dist_to_ref: Optional[float]
    gap_estimate: Optional[float]
    wall_ms: float

    __setattr__ = __delattr__ = _read_only


def make_state(problem: MinimaxProblem, x0: Point, y0: Point, eta: float) -> SolverState:
    """Initial solver state at ``(x0, y0)``."""
    problem.manifold_x._check_point(x0, "x0")
    problem.manifold_y._check_point(y0, "y0")
    return SolverState(problem.domain, 0, x0, y0, None, None, float(eta))


def resolve_step_size(problem: MinimaxProblem, eta) -> float:
    """Resolve an explicit or ``"auto"`` step size for a problem.

    Auto mode applies the curvature-safe constant-step rule
    ``min(1/sqrt(tau_m), 1/sqrt(tau_n)) / (2 L)`` with the distortion
    ratios computed from each factor's declared curvature bounds and
    diameter, and ``L`` from the problem (estimated empirically when the
    problem does not know its constant).
    """
    if eta == "auto":
        tau_m, tau_n = tau(problem.manifold_x), tau(problem.manifold_y)
        return rceg_step_size(problem.smoothness(), tau_m, tau_n)
    eta = float(eta)
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ParameterError(f"step size must be positive and finite, got {eta!r}")
    return eta


def geodesic_average_update(manifold: Manifold, average: Optional[Point], new: Point, t: int) -> Point:
    """Running geodesic mean after seeing ``t`` previous points.

    Moves the old average a fraction ``1/(t+1)`` of the way along the
    geodesic toward ``new``; with ``t = 0`` (or no previous average) the
    average is ``new`` itself. On Euclidean space this reproduces the
    arithmetic running mean.
    """
    if t < 0:
        raise ParameterError(f"counter must be >= 0, got {t}")
    if average is None or t == 0:
        return new
    step = (1.0 / (t + 1.0)) * manifold.log(average, new)
    return manifold.exp(average, step)


def _pair_grads(problem: MinimaxProblem, x: Point, y: Point) -> tuple[Tangent, Tangent]:
    return problem.grad_x(x, y), problem.grad_y(x, y)


def _step_along(m: Manifold, p: Point, g: Tangent, scale: float, back: Optional[np.ndarray] = None) -> Point:
    """``Exp_p(scale g)``, or ``Exp_p(scale g + back)`` for the array
    ``back`` of a tangent at ``p`` (RCEG's correction).

    The tangent is formed once, as ``g.value * scale + back``: the
    operations of ``scale * g + Tangent(p, back)`` in their order, so with
    the same bits, and with the same checks: a ``g`` based elsewhere than
    ``p`` raises as ``+`` does, and ``exp`` checks the base of ``g`` alone.
    """
    v = g.value * scale
    if back is not None:
        _check_same_point(g.base, p)
        v = v + back
    return m.exp(p, Tangent._wrap(g.base, v))


def _extrapolate(problem: MinimaxProblem, state: SolverState, grads) -> tuple[Point, Point]:
    """``(w, z)``: the simultaneous gradient step ``w = Exp_x(-eta grad_x)``,
    ``z = Exp_y(+eta grad_y)`` from the current pair, with ``grads`` if given."""
    x, y = state.x, state.y
    gx, gy = grads if grads is not None else _pair_grads(problem, x, y)
    eta = state.eta
    return _step_along(problem.manifold_x, x, gx, -eta), _step_along(problem.manifold_y, y, gy, eta)


def rceg_step(
    problem: MinimaxProblem,
    state: SolverState,
    grads: Optional[tuple[Tangent, Tangent]] = None,
) -> SolverState:
    """One corrected extragradient step, its correction ``Log_w(x)`` taken
    from the extrapolation's geodesic (``_reverse_velocity``), not a log.

    ``grads`` may carry precomputed gradients at the current pair (they
    are recomputed otherwise); the harness uses this to share one
    gradient evaluation between diagnostics and the step.
    """
    eta = state.eta
    mx, my = problem.manifold_x, problem.manifold_y
    w, z = _extrapolate(problem, state, grads)
    gxw = problem.grad_x(w, z)
    gyz = problem.grad_y(w, z)
    x1 = _step_along(mx, w, gxw, -eta, mx._reverse_velocity(w))
    y1 = _step_along(my, z, gyz, eta, my._reverse_velocity(z))
    return SolverState(state.domain, state.t + 1, x1, y1, w, z, eta)


def rgda_step(
    problem: MinimaxProblem,
    state: SolverState,
    grads: Optional[tuple[Tangent, Tangent]] = None,
) -> SolverState:
    """One simultaneous gradient descent-ascent step: RCEG's extrapolation alone."""
    w, z = _extrapolate(problem, state, grads)
    return SolverState(state.domain, state.t + 1, w, z, w, z, state.eta)


_STEPPERS: dict[str, Callable] = {"rceg": rceg_step, "rgda": rgda_step}


def riemannian_gd(
    manifold: Manifold,
    phi: Callable[[Point], float],
    grad: Callable[[Point], Tangent],
    x0: Point,
    eta: float,
    max_iters: int,
    tol: float,
) -> tuple[Point, int]:
    """Plain Riemannian gradient descent ``x+ = Exp_x(-eta grad(x))``.

    Stops when the gradient norm falls to ``tol`` or the iteration cap
    is reached; returns the final iterate and the number of steps taken.

    Raises
    ------
    NumericalError
        If the objective value increases for 10 consecutive steps
        (divergence) or becomes non-finite.
    """
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ParameterError(f"step size must be positive and finite, got {eta!r}")
    if max_iters < 0:
        raise ParameterError(f"max_iters must be >= 0, got {max_iters}")
    x = x0
    prev = float(phi(x))
    increases = 0
    for it in range(max_iters):
        g = grad(x)
        if manifold.norm(g) <= tol:
            return x, it
        x = manifold.exp(x, (-eta) * g)
        val = float(phi(x))
        if not math.isfinite(val):
            raise NumericalError("inner gradient descent produced a non-finite value")
        if val > prev:
            increases += 1
            if increases >= 10:
                raise NumericalError(
                    "inner gradient descent diverged: objective increased for 10 consecutive steps"
                )
        else:
            increases = 0
        prev = val
    return x, max_iters


# Riemannian Barzilai-Borwein: the range of a step, and the non-monotone
# Armijo test. A monotone test (memory 1) stalls near a 1e-8 gradient
# tolerance, where the decrease it asks for is below the rounding of phi.
_BB_STEP_MIN = 1e-10
_BB_STEP_MAX = 1e10
_BB_MEMORY = 10
_BB_DECREASE = 1e-4


def riemannian_bb(
    manifold: Manifold,
    phi: Callable[[Point], float],
    grad: Callable[[Point], Tangent],
    x0: Point,
    eta: float,
    max_iters: int,
    tol: float,
) -> tuple[Point, int]:
    """Riemannian Barzilai-Borwein descent with a non-monotone line search.

    Takes the arguments of :func:`riemannian_gd` and returns the same
    ``(point, steps)``. The first trial step is ``eta``; each later one is
    the scalar ``<s, s> / <s, y>`` formed at the new point, where ``s`` is
    the accepted step and ``y`` the change of gradient, with the old
    vectors moved there by tangent-space projection (Iannazzo & Porcelli,
    IMA J. Numer. Anal. 2018). The scalar is clipped to
    ``[1e-10, 1e10]``, and ``1e10`` is used when ``<s, y> <= 0``. A trial
    ``Exp_x(-t g)`` is accepted when ``phi`` falls to
    ``1e-4 t ||g||^2`` below the largest of the last 10 accepted values;
    otherwise ``t`` is halved. A trial whose exponential or value raises
    ``StepTooLongError`` or ``DomainError``, or whose value is not finite,
    is rejected the same way. Stops when the gradient norm falls to
    ``tol`` or the iteration cap is reached.

    Raises
    ------
    NumericalError
        If no step of at least ``1e-10`` is accepted.
    """
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ParameterError(f"step size must be positive and finite, got {eta!r}")
    if max_iters < 0:
        raise ParameterError(f"max_iters must be >= 0, got {max_iters}")
    x = x0
    recent = deque([float(phi(x))], maxlen=_BB_MEMORY)
    g = grad(x)
    t = eta
    for it in range(max_iters):
        gnorm = manifold.norm(g)
        if gnorm <= tol:
            return x, it
        ref = max(recent)
        while True:
            step = (-t) * g
            try:
                trial = manifold.exp(x, step)
                val = float(phi(trial))
            except (StepTooLongError, DomainError):
                val = math.nan
            if math.isfinite(val) and val <= ref - _BB_DECREASE * t * gnorm**2:
                break
            t *= 0.5
            if t < _BB_STEP_MIN:
                raise NumericalError(
                    f"inner Barzilai-Borwein line search found no decrease with a step of at least {_BB_STEP_MIN:g}"
                )
        g_new = grad(trial)
        s = manifold._project_array(trial, step.value)
        y = g_new.value - manifold._project_array(trial, g.value)
        sy = manifold._inner_array(trial, s, y)
        t = manifold._inner_array(trial, s, s) / sy if sy > 0.0 else _BB_STEP_MAX
        t = min(_BB_STEP_MAX, max(_BB_STEP_MIN, t))
        x, g = trial, g_new
        recent.append(val)
    return x, max_iters


@dataclass(frozen=True)
class GapEstimate:
    """Result of a duality-gap estimation.

    ``estimate`` is ``max_y f(x^, y) - min_x f(x, y^)`` as achieved by
    the slice solutions (floored at 0), or ``None`` when one of them
    failed its check, with the reason in ``diagnostic``. The
    reference-based lower bound is :func:`certified_gap`.
    """

    estimate: Optional[float]
    diagnostic: str = ""


def certified_gap(problem: MinimaxProblem, x_hat: Point, y_hat: Point) -> Optional[float]:
    """Lower bound ``f(x^, y*) - f(x*, y^)`` on the duality gap, or None.

    Valid because ``f(x^, y*) <= max_y f(x^, y)`` and
    ``f(x*, y^) >= min_x f(x, y^)``. Floored at 0.
    """
    if problem.known_saddle is None:
        return None
    xs, ys = problem.known_saddle
    return max(0.0, float(problem.value(x_hat, ys)) - float(problem.value(xs, y_hat)))


# Gradient norm both slice solutions must reach for the estimate to count.
_GAP_TOL = 1e-8
# Relative rounding allowance when a best response is compared with x^.
_BEST_RESPONSE_SLACK = 1e-12


def estimate_duality_gap(problem: MinimaxProblem, x_hat: Point, y_hat: Point, max_iters: int = 10000) -> GapEstimate:
    """Estimate ``max_y f(x^, y) - min_x f(x, y^)`` at the pair ``(x^, y^)``.

    Solves the ``y`` slice by :func:`riemannian_bb` ascent, started from
    ``y^`` with a first trial step ``1 / (2 L)``. The ``x`` slice is
    solved by the problem's ``best_response_x`` hook when it has one, and
    otherwise by :func:`riemannian_bb` descent from ``x^``.
    Each inner solver takes at most ``max_iters`` steps. The estimate is
    only trusted when both slice solutions drive their gradient norm to
    ``1e-8``, and a hook's answer must also be no worse than ``x^``
    itself; otherwise the gap is reported as not available, with the
    reason in ``diagnostic``. That is what happens on problems with
    unbounded slices, such as bilinear couplings on all of R^n, and only
    after the inner solver has spent its whole budget: under :func:`run`,
    up to ``max(10000, 10 * iters)`` steps at every cadence point.
    """
    if max_iters < 0:
        raise ParameterError(f"max_iters must be >= 0, got {max_iters}")
    mx, my = problem.manifold_x, problem.manifold_y
    mx._check_point(x_hat, "x_hat")
    my._check_point(y_hat, "y_hat")
    eta = 1.0 / (2.0 * problem.smoothness())
    try:
        y_best, _ = riemannian_bb(
            my,
            lambda p: -float(problem.value(x_hat, p)),
            lambda p: -1.0 * problem.grad_y(x_hat, p),
            y_hat,
            eta,
            max_iters,
            _GAP_TOL,
        )
        if my.norm(problem.grad_y(x_hat, y_best)) > _GAP_TOL:
            return GapEstimate(None, "inner ascent did not reach tolerance (possibly unbounded slice)")
        if problem.best_response_x is not None:
            x_best = problem.best_response_x(y_hat)
        else:
            x_best, _ = riemannian_bb(
                mx,
                lambda p: float(problem.value(p, y_hat)),
                lambda p: problem.grad_x(p, y_hat),
                x_hat,
                eta,
                max_iters,
                _GAP_TOL,
            )
        if mx.norm(problem.grad_x(x_best, y_hat)) > _GAP_TOL:
            return GapEstimate(None, "inner descent did not reach tolerance (possibly unbounded slice)")
        low = float(problem.value(x_best, y_hat))
        if problem.best_response_x is not None:
            # A critical point that is not the minimizer (on robust PCA,
            # any other eigenvector) passes the gradient check; it cannot
            # beat the point it should improve on.
            here = float(problem.value(x_hat, y_hat))
            if low > here + _BEST_RESPONSE_SLACK * max(1.0, abs(here)):
                return GapEstimate(
                    None,
                    f"best_response_x is not a minimizer: its value {low:.17g} exceeds {here:.17g} at x^",
                )
    except GeominimaxError as exc:
        return GapEstimate(None, f"inner solver failed: {exc}")
    est = max(0.0, float(problem.value(x_hat, y_best)) - low)
    return GapEstimate(est)


@dataclass
class RunResult:
    """Trace and final state of a solver run.

    ``state.eta`` is the step size the run used. ``max_dist_from_start``
    is the largest distance of the current iterate from its start seen in
    the run, per factor ``(x, y)``.
    ``gap_unavailable`` counts the cadence points whose duality-gap
    estimate was not available, and ``gap_diagnostic`` is the reason
    :func:`estimate_duality_gap` gave at the first of them.
    """

    records: list[IterationRecord]
    state: SolverState
    status: str  # "ok" or "diverged"
    diagnostic: str
    averages: list[tuple[int, Point]] = field(default_factory=list)
    max_dist_from_start: tuple[float, float] = (0.0, 0.0)
    gap_unavailable: int = 0
    gap_diagnostic: str = ""


# Distance from the initial pair beyond which a run is declared divergent,
# as a multiple of the initial distance scale.
_DIVERGENCE_FACTOR = 1e3


def run(
    problem: MinimaxProblem,
    algo: str,
    iters: int,
    start: tuple[Point, Point],
    eta="auto",
    record_every: int = 1,
    gap_every: Optional[int] = None,
    keep_averages: bool = False,
) -> RunResult:
    """Run a saddle solver for ``iters`` steps with diagnostics.

    Records a row for the initial point, every ``record_every`` steps and
    the final iterate. A row's gradient evaluation is shared with the
    following step, and its distance is to the problem's known saddle.
    Every ``gap_every`` steps (never when ``None``) the row carries
    :func:`estimate_duality_gap`, whose inner solvers get up to
    ``max(10000, 10 * iters)`` steps, all spent on an unbounded slice.
    ``keep_averages`` folds the geodesic running mean of the extrapolated
    pairs into ``RunResult.averages`` after each step.

    Divergence (non-finite values, exp-guard violations, an iterate that
    leaves the domain, a failure of the average, or the current pair
    drifting more than 1000 times the initial distance scale from the
    start) ends the run as ``"diverged"``, with a best-effort row at the
    iterate where it stopped, or, when the final row fails, with the
    diagnostic ``"final diagnostics failed: ..."``. A new pair is scanned
    for non-finite entries when its distance from the start is not
    finite, which every non-finite iterate of the shipped manifolds has,
    and before ``keep_averages`` folds it in.
    """
    if algo not in _STEPPERS:
        raise ParameterError(f"unknown algorithm {algo!r}, expected one of {sorted(_STEPPERS)}")
    if iters < 1:
        raise ParameterError(f"iteration budget must be >= 1, got {iters}")
    if record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {record_every}")
    if gap_every is not None and gap_every < 1:
        raise ParameterError(f"gap_every must be >= 1, got {gap_every}")
    step = _STEPPERS[algo]
    x0, y0 = start
    state = make_state(problem, x0, y0, resolve_step_size(problem, eta))
    mx, my = problem.manifold_x, problem.manifold_y
    ref = problem.known_saddle

    def dist_to_ref(x: Point, y: Point) -> float:
        # Product.distance of the pair points, from the factor points.
        return math.hypot(mx.distance(x, ref[0]), my.distance(y, ref[1]))

    scale = 1.0
    if ref is not None:
        mx._check_point(ref[0], "known saddle x")
        my._check_point(ref[1], "known saddle y")
        scale = max(1.0, dist_to_ref(x0, y0))
    threshold = _DIVERGENCE_FACTOR * scale

    records: list[IterationRecord] = []
    averages: list[tuple[int, Point]] = []
    status = "ok"
    diagnostic = ""
    gap_misses: list[str] = []
    t_start = time.perf_counter()

    # Inner gap solvers get ten times the outer budget (with a floor) so
    # their tolerance is reachable whenever the slices are well posed.
    gap_budget = max(10000, 10 * iters)

    def make_record(s: SolverState, grads: tuple[Tangent, Tangent]) -> IterationRecord:
        x, y = s.x, s.y
        gap_val = None
        if gap_every is not None and s.t % gap_every == 0 and s.t > 0:
            est = estimate_duality_gap(problem, x, y, gap_budget)
            if est.estimate is None:
                gap_misses.append(est.diagnostic)
            gap_val = est.estimate
        # Positional: keywords cost a NamedTuple a quarter microsecond per row.
        return IterationRecord(
            s.t,
            float(problem.value(x, y)),
            mx.norm(grads[0]),
            my.norm(grads[1]),
            dist_to_ref(x, y) if ref is not None else None,
            gap_val,
            (time.perf_counter() - t_start) * 1000.0,
        )

    def check_finite(x: Point, y: Point):
        if not (all_finite(x.value) and all_finite(y.value)):
            raise NumericalError("iterate contains non-finite values")

    average: Optional[Point] = None
    far_x = far_y = 0.0
    for t in range(iters + 1):
        try:
            grads = _pair_grads(problem, state.x, state.y)
            if t % record_every == 0 or t == iters:
                records.append(make_record(state, grads))
            if t == iters:
                break
            state = step(problem, state, grads)
            x, y = state.x, state.y
            if keep_averages:
                # The average must not see a non-finite pair.
                check_finite(x, y)
                average = geodesic_average_update(problem.domain, average, state.extrapolated, t)
                averages.append((state.t, average))
            # The product distance from the start, as Product.distance
            # combines it, with each factor's distance kept for meta.json.
            dx, dy = mx.distance(x, x0), my.distance(y, y0)
            # A non-finite iterate has a non-finite distance on every shipped
            # manifold, so the arrays are scanned only then: Euclidean's is
            # the norm of the difference, Sphere.exp normalizes, which leaves
            # a NaN in any non-finite output, and Spd.exp raises before it
            # would return one. A finite iterate whose distance overflows
            # passes the scan and meets the drift check below.
            if not math.isfinite(dx + dy):
                check_finite(x, y)
            far_x, far_y = max(far_x, dx), max(far_y, dy)
            if math.hypot(dx, dy) > threshold:
                raise NumericalError(
                    f"current pair drifted more than {threshold:.3g} from the start "
                    f"(divergence threshold {_DIVERGENCE_FACTOR:.0e} x initial scale)"
                )
        except (NumericalError, DomainError) as exc:
            status = "diverged"
            diagnostic = str(exc) if t < iters else f"final diagnostics failed: {exc}"
            if t < iters and records and records[-1].t != state.t:
                # best-effort terminal row so the trace shows where the run stopped
                try:
                    records.append(make_record(state, _pair_grads(problem, state.x, state.y)))
                except GeominimaxError:
                    pass
            break

    return RunResult(
        records=records,
        state=state,
        status=status,
        diagnostic=diagnostic,
        averages=averages,
        max_dist_from_start=(far_x, far_y),
        gap_unavailable=len(gap_misses),
        gap_diagnostic=gap_misses[0] if gap_misses else "",
    )
