"""One leg of a benchmark workload: a fresh process running one config.

    python3 bench/leg.py <root> <config> <out_dir> <mode> [--keep-iterates]

``mode`` is ``run`` (untraced), ``trace`` (with the span tracer of
``tracing.py``) or ``probe`` (stop at the solver's first iteration, to
sample set-up time). The leg imports geominimax from ``<root>/src`` and
does what ``geominimax run --config <config> --out <out_dir>`` does:
``harness.parse_config`` then ``harness.run_experiment``. It then writes
``final.npz`` (the final pair, and every iterate with ``--keep-iterates``)
and ``leg.json`` with its timestamps, on the system-wide monotonic clock
that the parent also reads, and its peak resident memory.
"""

import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """Peak resident set of this address space. ``ru_maxrss`` would not do:
    Linux carries it over from the parent across fork and exec, so it
    reports the benchmark's own memory whenever that is larger."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


class SetupDone(Exception):
    """Raised in probe mode when the solver reaches its first iteration."""


def main(argv) -> int:
    root, config, out_dir, mode = Path(argv[0]), Path(argv[1]), Path(argv[2]), argv[3]
    keep_iterates = "--keep-iterates" in argv[4:]
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))

    t_import = time.monotonic()
    import geominimax
    from geominimax import harness, solvers

    t_imported = time.monotonic()
    if src not in Path(geominimax.__file__).resolve().parents:
        raise SystemExit(f"geominimax imported from {geominimax.__file__}, not from {src}")

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks = {}
    make_state = solvers.make_state

    def first_iteration(*args, **kwargs):
        marks["setup_done"] = time.monotonic()
        if mode == "probe":
            raise SetupDone
        if tracer is not None:
            tracer.phase = "loop"
        return make_state(*args, **kwargs)

    solvers.make_state = first_iteration

    iterates = []
    if keep_iterates:
        for algo, step in list(solvers._STEPPERS.items()):
            def keep(problem, state, grads=None, _step=step):
                new = _step(problem, state, grads)
                iterates.append(new.current.value)
                return new

            solvers._STEPPERS[algo] = keep

    cfg = harness.parse_config(config)
    try:
        outcome = harness.run_experiment(cfg, out_dir)
    except SetupDone:
        outcome = None
    t_done = time.monotonic()
    peak_rss_mb = peak_rss_kb() / 1024.0

    result = {
        "t_import": t_import,
        "t_imported": t_imported,
        "t_setup_done": marks["setup_done"],
        "t_done": t_done,
        "peak_rss_mb": peak_rss_mb,
    }
    if outcome is not None:
        import numpy as np

        x, y = outcome.result.state.current.manifold.split(outcome.result.state.current)
        extra = {"iterates": np.array(iterates)} if keep_iterates else {}
        np.savez(out_dir / "final.npz", x=x.value, y=y.value, **extra)
        result["status"] = outcome.status
        result["iterations"] = outcome.result.state.t
    if tracer is not None:
        result["trace"] = tracer.summary()
    (out_dir / "leg.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
