"""Benchmark geominimax end to end, or layer by layer with ``--trace 1``.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Workloads (see ``workloads.py``):
``spd-bilinear``, ``robust-pca`` and ``flat-bilinear``. Each round runs a
workload's legs back to back, every leg in a fresh process that calls
``harness.run_experiment`` (``leg.py``), and checks the outputs against
plain numpy computations (``checks.py``). Rounds repeat until ``--seconds``
have passed; an untraced run also starts two set-up probes per leg and
round. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (medians over rounds) with ``--trace 0``, the per-layer metrics of
the traced rounds and the tracing overhead with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracing import MANIFOLD_OPS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
#: Set-up probes per leg and untraced round, so set-up time is a median of
#: several fresh processes.
PROBES_PER_ROUND = 2
#: BLAS threads in every leg; fixed so timings do not depend on the
#: scheduler's choice (and at most nproc on any machine).
BLAS_THREADS = "1"
LEG_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "iters_per_s": "iter/s",
    "time_to_tol_s": "s",
    "peak_rss_mb": "MB",
}
MANIFOLD_KINDS = ("spd", "sphere", "euclidean", "product")


class Bench:
    """One benchmark invocation: its counts of attempted and failed
    operations (leg processes) and the problems the checks found."""

    def __init__(self, workload: str):
        self.workload = workload
        self.legs = WORKLOADS[workload]
        self.dir = OUT / workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )

    def config_path(self, leg) -> Path:
        if leg.config_file is not None:
            return ROOT / leg.config_file
        path = self.dir / f"{leg.name}.cfg"
        path.write_text(leg.config_text)
        return path

    def run_leg(self, leg, out_dir: Path, mode: str):
        """Run one leg process; return its ``leg.json`` plus the spawn time,
        or None if it failed."""
        if out_dir.exists():
            shutil.rmtree(out_dir)
        cmd = [sys.executable, str(BENCH / "leg.py"), str(ROOT), str(self.config_path(leg)), str(out_dir), mode]
        if leg.keep_iterates and mode != "probe":
            cmd.append("--keep-iterates")
        self.attempted += 1
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=LEG_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{leg.name}: leg timed out after {LEG_TIMEOUT_S} s", file=sys.stderr)
            self.failed += 1
            return None
        if proc.returncode != 0:
            print(f"{leg.name}: leg exited with code {proc.returncode}", file=sys.stderr)
            self.failed += 1
            return None
        res = json.loads((out_dir / "leg.json").read_text())
        res["t_spawn"] = t_spawn
        return res

    def probe_setup(self):
        """Set-up time of one fresh process per leg, summed over the legs."""
        total = 0.0
        for leg in self.legs:
            res = self.run_leg(leg, self.dir / "probe", "probe")
            if res is None:
                return None
            total += res["t_setup_done"] - res["t_spawn"]
        return total

    def run_round(self, mode: str):
        """Run and check every leg; return per-round measurements, or None
        if a leg failed."""
        legs = []
        for leg in self.legs:
            leg_dir = self.dir / leg.name
            res = self.run_leg(leg, leg_dir, mode)
            if res is None:
                return None
            out = checks.load_leg(leg_dir, self.config_path(leg))
            found = getattr(checks, leg.check)(out)
            self.problems += [f"{self.workload}/{leg.name}: {p}" for p in found]
            legs.append((leg, res, out, leg_dir))
        return round_measurements(legs)


def round_measurements(legs) -> dict:
    m = {
        "setup_s": sum(res["t_setup_done"] - res["t_spawn"] for _, res, _, _ in legs),
        "wall_s": sum(res["t_done"] - res["t_spawn"] for _, res, _, _ in legs),
        "peak_rss_mb": max(res["peak_rss_mb"] for _, res, _, _ in legs),
        "iters": sum(res["iterations"] for _, res, _, _ in legs),
        "loop_s": sum(out.rows.wall_ms[-1] / 1000.0 for _, _, out, _ in legs),
        "import_s": sum(res["t_imported"] - res["t_import"] for _, res, _, _ in legs),
        "trace_bytes": sum((d / "trace.csv").stat().st_size for _, _, _, d in legs),
        "traces": [res.get("trace") for _, res, _, _ in legs],
    }
    m["iters_per_s"] = m["iters"] / m["loop_s"]
    for leg, _, out, _ in legs:
        if leg.target is not None:
            hit = np.flatnonzero(leg.target(out.rows))
            # A missed target is a failed check; the loop time stands in.
            idx = hit[0] if len(hit) else -1
            m["time_to_tol_s"] = out.rows.wall_ms[idx] / 1000.0
            m["iters_to_tol"] = int(out.rows.t[idx])
    return m


def layer_metrics(m: dict) -> dict:
    """Per-layer metrics of one traced round, from the legs' span totals."""
    stats: dict = {}
    inner_iters = 0
    for trace in m["traces"]:
        for key, (calls, total, self_s) in trace["stats"].items():
            s = stats.setdefault(key, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += self_s
        inner_iters += trace["gap_inner_iters"]

    def loop(name):
        return stats.get(f"loop:{name}", [0, 0.0, 0.0])

    def everywhere(name):
        a, b = stats.get(f"setup:{name}", [0, 0.0, 0.0]), loop(name)
        return [a[0] + b[0], a[1] + b[1], a[2] + b[2]]

    def per_call(seconds, calls, scale):
        return seconds * scale / calls if calls else 0.0

    iters = m["iters"]
    out = {}
    eigh = loop("linalg.eigh")
    out["linalg.eigh.calls_per_iter"] = (eigh[0] / iters, "count")
    out["linalg.eigh.us_per_call"] = (per_call(eigh[1], eigh[0], 1e6), "us")
    for kind in MANIFOLD_KINDS:
        for op in MANIFOLD_OPS:
            s = loop(f"manifolds.{kind}.{op}")
            out[f"manifolds.{kind}.{op}.calls_per_iter"] = (s[0] / iters, "count")
            out[f"manifolds.{kind}.{op}.us_per_call"] = (per_call(s[1], s[0], 1e6), "us")
    grad = loop("problems.grad")
    out["problems.grad.calls_per_iter"] = (grad[0] / iters, "count")
    out["problems.grad.ms_per_iter"] = (grad[1] * 1e3 / iters, "ms")
    out["problems.grad.self_us_per_call"] = (per_call(grad[2], grad[0], 1e6), "us")
    out["problems.value.calls_per_iter"] = (loop("problems.value")[0] / iters, "count")
    out["problems.smoothness_s"] = (everywhere("problems.smoothness")[1], "s")
    out["solvers.step.self_us_per_iter"] = (loop("solvers.step")[2] * 1e6 / iters, "us")
    out["solvers.average.us_per_iter"] = (loop("solvers.average")[1] * 1e6 / iters, "us")
    gap = loop("solvers.gap")
    out["solvers.gap.calls"] = (gap[0], "count")
    out["solvers.gap.ms_per_call"] = (per_call(gap[1], gap[0], 1e3), "ms")
    out["solvers.gap.inner_iters_per_call"] = (inner_iters / gap[0] if gap[0] else 0.0, "count")
    out["solvers.iters_to_tol"] = (m["iters_to_tol"], "count")
    out["curvature.step_size_ms"] = (everywhere("curvature.step_size")[2] * 1e3, "ms")
    out["harness.build_problem_ms"] = (everywhere("harness.build_problem")[1] * 1e3, "ms")
    out["harness.write_trace_ms"] = (everywhere("harness.write_trace")[1] * 1e3, "ms")
    out["harness.trace_bytes"] = (m["trace_bytes"], "bytes")
    out["package.import_ms"] = (m["import_s"] * 1e3, "ms")
    return out


def median_metrics(rounds: list[dict]) -> dict:
    return {
        name: (statistics.median(r[name][0] for r in rounds), rounds[0][name][1])
        for name in rounds[0]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="accepted for the protocol; the instances are pinned")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bench = Bench(args.workload)
    needed = [ROOT / "src" / "geominimax" / "__init__.py"]
    needed += [ROOT / leg.config_file for leg in bench.legs if leg.config_file]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: missing from {ROOT}: {', '.join(missing)}", file=sys.stderr)
        return 2
    bench.dir.mkdir(parents=True, exist_ok=True)

    deadline = time.monotonic() + args.seconds
    plain, traced, setups = [], [], []
    while True:
        if args.trace:
            a = bench.run_round("run")
            b = bench.run_round("trace") if a is not None else None
            if b is not None:
                plain.append(a)
                traced.append(b)
        else:
            for _ in range(PROBES_PER_ROUND):
                s = bench.probe_setup()
                if s is not None:
                    setups.append(s)
            a = bench.run_round("run")
            if a is not None:
                plain.append(a)
                setups.append(a["setup_s"])
        if a is not None:
            print(f"round {len(plain)}: " + ", ".join(f"{k}={a[k]:.4g}" for k in END_TO_END_UNITS), file=sys.stderr)
        if time.monotonic() >= deadline:
            break

    if not plain:
        print("bench: no round completed", file=sys.stderr)
        return 1
    for p in bench.problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    if args.trace:
        metrics = median_metrics([layer_metrics(r) for r in traced])
        base = statistics.median(r["wall_s"] for r in plain)
        over = statistics.median(r["wall_s"] for r in traced) - base
        metrics["tracing.overhead_s"] = (over, "s")
        metrics["tracing.overhead_pct"] = (100.0 * over / base, "%")
        rounds = len(traced)
    else:
        metrics = {
            name: (statistics.median(r[name] for r in plain), unit)
            for name, unit in END_TO_END_UNITS.items()
            if name != "setup_s"
        }
        metrics["setup_s"] = (statistics.median(setups), "s")
        rounds = len(plain)

    print(f"{args.workload}: {rounds} round(s), {bench.attempted} legs, {bench.failed} failed, "
          f"checks {'passed' if not bench.problems else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
