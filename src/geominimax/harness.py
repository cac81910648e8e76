"""Experiment harness: config parsing, dataset generation, run orchestration.

Configs are flat ``key = value`` text files (blank lines and ``#``
comments ignored), chosen for zero-dependency parsing and clean diffs.
A run writes two files into its output directory:

- ``trace.csv`` with the exact header
  ``iter,value,grad_norm_x,grad_norm_y,dist_to_ref,gap_estimate,wall_ms``
  (empty fields where a quantity is not computed) and numbers printed
  with 17 significant digits;
- ``meta.json`` echoing the effective config together with the
  distortion ratios of both factors, the step size actually used, and
  the final status.

Everything except the ``wall_ms`` column is bitwise reproducible for a
fixed config and seed: all randomness flows through one
``numpy.random.default_rng(seed)`` (PCG64) generator whose consumption
order per problem is documented in :func:`build_problem`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .curvature import CurvatureBounds, tau
from .errors import ConfigError
from .linalg import random_spd, sym_eig
from .manifolds import Euclidean, Point, Spd
from .problems import (
    MinimaxProblem,
    augmented_lagrangian,
    euclidean_quadratic,
    robust_pca,
    spd_bilinear,
)
from .solvers import RunDiagnostics, RunResult, resolve_step_size, run

__all__ = [
    "ExperimentConfig",
    "ExperimentOutcome",
    "TRACE_HEADER",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "generate_dataset",
    "build_problem",
    "run_experiment",
]

TRACE_HEADER = "iter,value,grad_norm_x,grad_norm_y,dist_to_ref,gap_estimate,wall_ms"

_PROBLEMS = ("euclidean_quadratic", "spd_bilinear", "robust_pca", "augmented_lagrangian")
_ALGOS = ("rceg", "rgda")

#: Config keys in canonical serialization order.
_FIELD_ORDER = (
    "problem",
    "n",
    "k",
    "alpha",
    "mu",
    "l",
    "algo",
    "eta",
    "iters",
    "seed",
    "record_every",
    "gap_every",
    "out",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    Optional fields default to ``None`` and are required only by the
    problems that use them (``k`` and ``alpha`` by ``robust_pca``,
    ``alpha`` by ``augmented_lagrangian``). ``mu`` and ``l`` bound the
    random eigenvalue range of generated SPD data. ``gap_every`` is a
    positive cadence or the string ``"off"``.
    """

    problem: str
    n: int
    algo: str
    iters: int
    eta: Union[float, str] = "auto"
    seed: int = 0
    k: Optional[int] = None
    alpha: Optional[float] = None
    mu: float = 0.5
    l: float = 2.0
    record_every: int = 1
    gap_every: Union[int, str] = 50
    out: Optional[str] = None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"field '{key}': expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"field '{key}': expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"field '{key}': must be finite, got {raw!r}")
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse a flat ``key = value`` config from a string.

    Unknown and duplicate keys are rejected with the offending key
    named; all field constraints are validated before returning.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_ORDER:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate config key '{key}'")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'")
        raw[key] = value

    for required in ("problem", "n", "algo", "iters"):
        if required not in raw:
            raise ConfigError(f"missing required config key '{required}'")

    kwargs: dict = {
        "problem": raw["problem"],
        "n": _parse_int("n", raw["n"]),
        "algo": raw["algo"],
        "iters": _parse_int("iters", raw["iters"]),
    }
    if "eta" in raw:
        kwargs["eta"] = "auto" if raw["eta"] == "auto" else _parse_float("eta", raw["eta"])
    if "seed" in raw:
        kwargs["seed"] = _parse_int("seed", raw["seed"])
    if "k" in raw:
        kwargs["k"] = _parse_int("k", raw["k"])
    if "alpha" in raw:
        kwargs["alpha"] = _parse_float("alpha", raw["alpha"])
    if "mu" in raw:
        kwargs["mu"] = _parse_float("mu", raw["mu"])
    if "l" in raw:
        kwargs["l"] = _parse_float("l", raw["l"])
    if "record_every" in raw:
        kwargs["record_every"] = _parse_int("record_every", raw["record_every"])
    if "gap_every" in raw:
        kwargs["gap_every"] = "off" if raw["gap_every"] == "off" else _parse_int("gap_every", raw["gap_every"])
    if "out" in raw:
        kwargs["out"] = raw["out"]

    cfg = ExperimentConfig(**kwargs)
    validate_config(cfg)
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a config file (see :func:`parse_config_text`)."""
    p = Path(path)
    try:
        text = p.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except IsADirectoryError:
        raise ConfigError(f"config path is a directory, not a file: {p}") from None
    return parse_config_text(text)


def validate_config(cfg: ExperimentConfig) -> None:
    """Check every field constraint, raising ConfigError naming the field."""
    if cfg.problem not in _PROBLEMS:
        raise ConfigError(f"field 'problem': unknown problem {cfg.problem!r}, expected one of {_PROBLEMS}")
    if cfg.algo not in _ALGOS:
        raise ConfigError(f"field 'algo': unknown algorithm {cfg.algo!r}, expected one of {_ALGOS}")
    if not isinstance(cfg.n, int) or cfg.n < 1:
        raise ConfigError(f"field 'n': must be a positive integer, got {cfg.n!r}")
    if cfg.problem == "robust_pca" and cfg.n < 2:
        raise ConfigError(f"field 'n': robust_pca needs n >= 2 (sphere factor), got {cfg.n}")
    if not isinstance(cfg.iters, int) or cfg.iters < 1:
        raise ConfigError(f"field 'iters': must be a positive integer, got {cfg.iters!r}")
    if cfg.eta != "auto":
        if not isinstance(cfg.eta, (int, float)) or not (float(cfg.eta) > 0.0 and math.isfinite(float(cfg.eta))):
            raise ConfigError(f"field 'eta': must be a positive number or 'auto', got {cfg.eta!r}")
    if not isinstance(cfg.seed, int) or cfg.seed < 0:
        raise ConfigError(f"field 'seed': must be a nonnegative integer, got {cfg.seed!r}")
    if cfg.k is not None and (not isinstance(cfg.k, int) or cfg.k < 1):
        raise ConfigError(f"field 'k': must be a positive integer, got {cfg.k!r}")
    if cfg.alpha is not None and (not isinstance(cfg.alpha, (int, float)) or not (cfg.alpha >= 0.0)):
        raise ConfigError(f"field 'alpha': must be >= 0, got {cfg.alpha!r}")
    if not (0.0 < cfg.mu <= cfg.l) or not math.isfinite(cfg.l):
        raise ConfigError(f"fields 'mu'/'l': need 0 < mu <= l, got mu={cfg.mu!r}, l={cfg.l!r}")
    if not isinstance(cfg.record_every, int) or cfg.record_every < 1:
        raise ConfigError(f"field 'record_every': must be a positive integer, got {cfg.record_every!r}")
    if cfg.gap_every != "off" and (not isinstance(cfg.gap_every, int) or cfg.gap_every < 1):
        raise ConfigError(f"field 'gap_every': must be a positive integer or 'off', got {cfg.gap_every!r}")
    if cfg.problem == "robust_pca":
        if cfg.k is None:
            raise ConfigError("field 'k': required for robust_pca")
        if cfg.alpha is None:
            raise ConfigError("field 'alpha': required for robust_pca")
        if cfg.alpha <= 0.0:
            raise ConfigError(f"field 'alpha': robust_pca needs alpha > 0, got {cfg.alpha!r}")
    if cfg.problem == "augmented_lagrangian" and cfg.alpha is None:
        raise ConfigError("field 'alpha': required for augmented_lagrangian")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical ``key = value`` text for a config.

    All set fields are written in a fixed order with defaults filled in,
    so ``parse -> serialize -> parse`` is the identity on configs.
    """
    values = asdict(cfg)
    lines = []
    for key in _FIELD_ORDER:
        value = values[key]
        if value is None:
            continue
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def generate_dataset(n: int, k: int, mu: float, l: float, seed: int) -> list[np.ndarray]:
    """Generate ``k`` random SPD matrices with spectra in ``[mu, l]``.

    Each matrix uses a fresh orthogonal factor (QR of a Gaussian matrix)
    and fresh uniform eigenvalues; the list is deterministic per seed.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ConfigError(f"field 'k': must be a positive integer, got {k!r}")
    rng = np.random.default_rng(seed)
    return [random_spd(n, mu, l, rng) for _ in range(k)]


def demo_constrained_projection(n: int, alpha: float, rng: np.random.Generator) -> tuple[MinimaxProblem, Point, Point]:
    """Trace-constrained projection onto a random SPD target.

    Minimizes ``d^2(x, a) / 2`` over SPD(n) subject to ``tr(x) = n``,
    written as a saddle problem through the augmented Lagrangian with a
    single scalar multiplier. Returns the problem together with the
    natural start (identity matrix, zero multiplier).
    """
    target_arr = random_spd(n, 0.5, 2.0, rng)
    m = Spd(n)
    a = m.point(target_arr)

    def g(x):
        return 0.5 * m.distance(x, a) ** 2

    def grad_g(x):
        return -1.0 * m.log(x, a)

    def h(x):
        return float(np.trace(x.value)) - float(n)

    def grad_h(x):
        # Riemannian gradient of tr on SPD with the affine-invariant
        # metric: grad tr(x) = x @ I @ x = x^2.
        return m.tangent(x, x.value @ x.value)

    problem = augmented_lagrangian(m, g, grad_g, [(h, grad_h)], alpha)
    x0 = m.point(np.eye(n))
    lam0 = problem.manifold_y.point(np.zeros(1))
    return problem, x0, lam0


def build_problem(cfg: ExperimentConfig) -> tuple[MinimaxProblem, Point, Point]:
    """Instantiate the configured problem and its start pair.

    One generator ``numpy.random.default_rng(cfg.seed)`` supplies all
    randomness, consumed in this order per problem:

    - ``euclidean_quadratic``: coupling matrix entries (n x n standard
      normal), then the start vectors x0 and y0 (standard normal).
    - ``spd_bilinear``: saddle component x*, then y*, each via
      :func:`~geominimax.linalg.random_spd` with spectrum [mu, l]; the
      start is the identity pair (no further draws).
    - ``robust_pca``: the k data matrices in order (identical to
      :func:`generate_dataset` with the same seed); the start is
      data-derived (Euclidean mean and its leading unit eigenvector),
      no further draws.
    - ``augmented_lagrangian``: the SPD target matrix; the start is the
      identity with a zero multiplier, no further draws.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.problem == "euclidean_quadratic":
        b = rng.standard_normal((cfg.n, cfg.n))
        problem = euclidean_quadratic(b)
        x0 = problem.manifold_x.point(rng.standard_normal(cfg.n))
        y0 = problem.manifold_y.point(rng.standard_normal(cfg.n))
        return problem, x0, y0
    if cfg.problem == "spd_bilinear":
        sx = random_spd(cfg.n, cfg.mu, cfg.l, rng)
        sy = random_spd(cfg.n, cfg.mu, cfg.l, rng)
        problem = spd_bilinear(sx, sy)
        eye = np.eye(cfg.n)
        return problem, problem.manifold_x.point(eye), problem.manifold_y.point(eye)
    if cfg.problem == "robust_pca":
        data = [random_spd(cfg.n, cfg.mu, cfg.l, rng) for _ in range(cfg.k)]
        problem = robust_pca(data, alpha=float(cfg.alpha))
        mean = np.mean(data, axis=0)
        dec = sym_eig(mean)
        x0 = problem.manifold_x.point(dec.q[:, 0])
        y0 = problem.manifold_y.point(mean)
        return problem, x0, y0
    if cfg.problem == "augmented_lagrangian":
        return demo_constrained_projection(cfg.n, float(cfg.alpha), rng)
    raise ConfigError(f"field 'problem': unknown problem {cfg.problem!r}")


def _format_cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def write_trace(records, path: Path) -> None:
    """Write the CSV trace with the fixed schema and 17-digit numbers."""
    lines = [TRACE_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    str(r.t),
                    _format_cell(r.value),
                    _format_cell(r.grad_norm_x),
                    _format_cell(r.grad_norm_y),
                    _format_cell(r.dist_to_ref),
                    _format_cell(r.gap_estimate),
                    _format_cell(r.wall_ms),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _factor_tau(manifold) -> float:
    bounds = CurvatureBounds(min(manifold.kappa_min, 0.0), manifold.kappa_max, manifold.diameter_bound)
    return tau(bounds)


@dataclass(frozen=True)
class ExperimentOutcome:
    """Files and final state produced by one experiment run."""

    status: str
    out_dir: Path
    trace_path: Path
    meta_path: Path
    result: RunResult


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentOutcome:
    """Run one configured experiment and write ``trace.csv`` / ``meta.json``.

    ``out_dir`` overrides the config's ``out`` field; one of the two
    must be set. Solver divergence is an expected outcome: it is
    recorded in the trace and manifest, not raised.
    """
    validate_config(cfg)
    if out_dir is None:
        if cfg.out is None:
            raise ConfigError("no output directory: set 'out' in the config or pass one explicitly")
        out_dir = cfg.out
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    problem, x0, y0 = build_problem(cfg)
    diagnostics = RunDiagnostics(
        record_every=cfg.record_every,
        gap_every=None if cfg.gap_every == "off" else int(cfg.gap_every),
    )
    result = run(problem, cfg.algo, iters=cfg.iters, start=(x0, y0), eta=cfg.eta, diagnostics=diagnostics)

    trace_path = out_dir / "trace.csv"
    meta_path = out_dir / "meta.json"
    write_trace(result.records, trace_path)
    meta = {
        "config": {k: v for k, v in asdict(cfg).items() if v is not None},
        "problem": problem.name,
        "tau_m": _factor_tau(problem.manifold_x),
        "tau_n": _factor_tau(problem.manifold_y),
        "eta": result.eta,
        "status": result.status,
        "iterations": result.state.t,
        "diagnostic": result.diagnostic,
    }
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return ExperimentOutcome(
        status=result.status,
        out_dir=out_dir,
        trace_path=trace_path,
        meta_path=meta_path,
        result=result,
    )


def run_replicates(cfg: ExperimentConfig, out_dir, jobs: int) -> list[tuple[int, str, str]]:
    """Run ``jobs`` seed replicates, each in its own subdirectory.

    Replicate ``i`` uses seed ``cfg.seed + i`` and writes to
    ``<out_dir>/seed-<seed>/``. Replicates are independent processes, at
    most one per usable core; with ``jobs = 1`` the single run writes
    directly to ``out_dir``. Returns ``(seed, status, directory)``
    triples in seed order.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        outcome = run_experiment(cfg, out_dir)
        return [(cfg.seed, outcome.status, str(out_dir))]
    # Imported here: loading the process pool costs every run's start-up
    # about 15 ms, and only replicated runs need it.
    from concurrent.futures import ProcessPoolExecutor

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cores = os.cpu_count() or 1
    base = Path(out_dir)
    seeds = [cfg.seed + i for i in range(jobs)]
    dirs = [str(base / f"seed-{seed}") for seed in seeds]
    tasks = [(serialize_config(replace(cfg, seed=seed)), d) for seed, d in zip(seeds, dirs)]
    with ProcessPoolExecutor(max_workers=min(jobs, cores)) as pool:
        statuses = list(pool.map(_replicate_worker, tasks))
    return list(zip(seeds, statuses, dirs))


def _replicate_worker(task: tuple[str, str]) -> str:
    """Process-pool entry point: parse the config text and run it."""
    text, out_dir = task
    cfg = parse_config_text(text)
    return run_experiment(cfg, out_dir).status
