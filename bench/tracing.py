"""Span tracing around the public calls into each layer of geominimax.

The tracer replaces functions and methods with wrappers that time each
call. Spans nest: a span's self time is its duration minus the time its
direct child spans took. Spans are aggregated as they close, per layer
name and per phase (``setup`` until the solver's ``make_state`` call,
``loop`` after it), so memory stays flat however many calls a run makes.

Names bound at import time are wrapped where the program looks them up:
``numpy.linalg.eigh`` on the numpy module (``linalg.sym_eig`` reads it at
call time), the stepper table ``solvers._STEPPERS``, the module globals of
``solvers``, ``problems`` and ``harness``, and the manifold classes. The
problem's ``value``/``grad_x``/``grad_y`` are closures on the problem
object, so they are wrapped on the object ``build_problem`` returns.
"""

from __future__ import annotations

import time
from collections import defaultdict

MANIFOLD_OPS = ("exp", "log", "transport", "distance")


class Tracer:
    def __init__(self):
        self.phase = "setup"
        # (phase, name) -> [calls, total seconds, self seconds]
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.gap_inner_iters = 0
        self._child = [0.0]

    def wrap(self, name: str, fn, on_result=None):
        stats, child = self.stats, self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = child.pop()
                child[-1] += dur
                s = stats[(self.phase, name)]
                s[0] += 1
                s[1] += dur
                s[2] += dur - inner
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        return {
            "stats": {f"{phase}:{name}": v for (phase, name), v in self.stats.items()},
            "gap_inner_iters": self.gap_inner_iters,
        }


def install(tracer: Tracer) -> None:
    """Wrap every traced call site of the imported geominimax package."""
    import numpy.linalg

    from geominimax import harness, problems, solvers
    from geominimax.manifolds import Euclidean, Product, Spd, Sphere

    numpy.linalg.eigh = tracer.wrap("linalg.eigh", numpy.linalg.eigh)
    for cls, kind in ((Spd, "spd"), (Sphere, "sphere"), (Euclidean, "euclidean"), (Product, "product")):
        for op in MANIFOLD_OPS:
            setattr(cls, op, tracer.wrap(f"manifolds.{kind}.{op}", cls.__dict__[op]))

    problems.estimate_smoothness = tracer.wrap("problems.smoothness", problems.estimate_smoothness)
    solvers.resolve_step_size = tracer.wrap("curvature.step_size", solvers.resolve_step_size)
    solvers.geodesic_average_update = tracer.wrap("solvers.average", solvers.geodesic_average_update)
    solvers.estimate_duality_gap = tracer.wrap("solvers.gap", solvers.estimate_duality_gap)

    def count_inner(result):
        tracer.gap_inner_iters += result[1]

    solvers.riemannian_gd = tracer.wrap("solvers.gap_inner", solvers.riemannian_gd, count_inner)
    for algo, step in list(solvers._STEPPERS.items()):
        solvers._STEPPERS[algo] = tracer.wrap("solvers.step", step)
    harness.write_trace = tracer.wrap("harness.write_trace", harness.write_trace)

    build = harness.build_problem

    def build_problem(cfg):
        problem, x0, y0 = build(cfg)
        problem.value = tracer.wrap("problems.value", problem.value)
        problem.grad_x = tracer.wrap("problems.grad", problem.grad_x)
        problem.grad_y = tracer.wrap("problems.grad", problem.grad_y)
        return problem, x0, y0

    harness.build_problem = tracer.wrap("harness.build_problem", build_problem)
