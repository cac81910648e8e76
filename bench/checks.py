"""Checks of each leg's outputs against computations made outside the program.

Everything here is plain numpy: the problem data are regenerated from the
config's seed with the documented ``numpy.random.default_rng`` stream, and
the quantities the trace reports are recomputed from their definitions.
Each ``check_*`` function takes a :class:`LegOutput` and returns the list
of problems it found; an empty list means the leg passed. ``selftest.py``
shows that each check rejects a wrong output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import FLAT_FRACTION, RPCA_GRAD_TOL, SPD_TOL

#: Agreement between a recomputed distance and the trace cell, relative
#: (measured: 2.5e-12).
AGREE_RTOL = 1e-8
#: The same for gradient norms near 1e-7, where the terms of the gradient
#: cancel to seven digits (measured: 1.2e-8).
GRAD_RTOL = 1e-6
#: Flat space: RCEG against the classical extragradient recurrence
#: (measured: 3e-13 over 20 000 rows).
FLAT_RTOL = 1e-9
#: Slack allowed on "non-increasing" for the criterion-6 gap sequence.
GAP_MONOTONE_TOL = 1e-9


@dataclass
class Rows:
    """The trace columns; empty cells read as NaN."""

    t: np.ndarray
    value: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    dist: np.ndarray
    gap: np.ndarray
    wall_ms: np.ndarray


@dataclass
class LegOutput:
    """What one leg left on disk, loaded for checking."""

    cfg: dict
    rows: Rows
    meta: dict
    final: dict


HEADER = "iter,value,grad_norm_x,grad_norm_y,dist_to_ref,gap_estimate,wall_ms"


def parse_cfg(text: str) -> dict:
    """Flat ``key = value`` config text as a dict of strings."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def read_trace(path: Path) -> Rows:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = ",".join(next(reader))
        if header != HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        cols = list(zip(*[[float(c) if c else math.nan for c in row] for row in reader]))
    arr = [np.array(c) for c in cols]
    return Rows(arr[0].astype(int), *arr[1:])


def load_leg(leg_dir: Path, config_path: Path) -> LegOutput:
    final = np.load(leg_dir / "final.npz")
    return LegOutput(
        cfg=parse_cfg(config_path.read_text()),
        rows=read_trace(leg_dir / "trace.csv"),
        meta=json.loads((leg_dir / "meta.json").read_text()),
        final={k: final[k] for k in final.files},
    )


# -- plain numpy reference computations ---------------------------------


def random_spd(n: int, mu: float, l: float, rng: np.random.Generator) -> np.ndarray:
    """``q diag(sigma) q^T`` with ``q`` from a sign-fixed QR of a Gaussian
    matrix and ``sigma`` uniform in ``[mu, l]``: the generator the
    program's docstrings document, in the same draw order."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    sigma = rng.uniform(mu, l, size=n)
    a = (q * sigma) @ q.T
    return (a + a.T) / 2.0


def _sym_fn(a: np.ndarray, fn) -> np.ndarray:
    lam, q = np.linalg.eigh((a + a.T) / 2.0)
    return (q * fn(lam)) @ q.T


def spd_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Affine-invariant distance ``||logm(a^-1/2 b a^-1/2)||_F``."""
    isq = _sym_fn(a, lambda lam: 1.0 / np.sqrt(lam))
    c = isq @ b @ isq
    return float(np.linalg.norm(np.log(np.linalg.eigvalsh((c + c.T) / 2.0))))


def spd_log(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Riemannian logarithm ``m^1/2 logm(m^-1/2 b m^-1/2) m^1/2``."""
    sq = _sym_fn(m, np.sqrt)
    isq = _sym_fn(m, lambda lam: 1.0 / np.sqrt(lam))
    return sq @ _sym_fn(isq @ b @ isq, np.log) @ sq


def spd_norm(m: np.ndarray, v: np.ndarray) -> float:
    """Affine-invariant norm ``sqrt(tr(m^-1 v m^-1 v))`` of a tangent at ``m``."""
    w = np.linalg.solve(m, v)
    return math.sqrt(max(0.0, float(np.trace(w @ w))))


def _rel(a, b, scale=None) -> np.ndarray:
    a, b = np.asarray(a, float), np.asarray(b, float)
    den = np.maximum(np.abs(a), np.abs(b)) if scale is None else np.asarray(scale, float)
    return np.abs(a - b) / np.maximum(den, 1e-300)


def _status(out: LegOutput) -> list[str]:
    status = out.meta.get("status")
    done = out.meta.get("iterations")
    iters = int(out.cfg["iters"])
    problems = [] if status == "ok" else [f"status {status!r}, expected 'ok'"]
    if done != iters or int(out.rows.t[-1]) != iters:
        problems.append(f"ran {done} iterations (last row t={out.rows.t[-1]}), expected {iters}")
    return problems


# -- per-workload checks ------------------------------------------------


def check_spd_bilinear(out: LegOutput) -> list[str]:
    """Final distance to the seeded saddle, recomputed, matches the trace
    and meets the target; every iterate is SPD."""
    problems = _status(out)
    c = out.cfg
    n = int(c["n"])
    rng = np.random.default_rng(int(c["seed"]))
    xs = random_spd(n, float(c["mu"]), float(c["l"]), rng)
    ys = random_spd(n, float(c["mu"]), float(c["l"]), rng)
    x, y = out.final["x"], out.final["y"]
    dist = math.hypot(spd_distance(x, xs), spd_distance(y, ys))
    traced = out.rows.dist[-1]
    if not _rel(dist, traced) <= AGREE_RTOL:
        problems.append(f"final distance {dist:.6e} recomputed, trace says {traced:.6e}")
    if not dist <= SPD_TOL:
        problems.append(f"final distance {dist:.3e} misses the target {SPD_TOL:g}")
    iterates = out.final["iterates"].reshape(-1, 2, n, n)
    if len(iterates) != int(c["iters"]):
        problems.append(f"{len(iterates)} iterates kept, expected {c['iters']}")
    low = np.linalg.eigvalsh((iterates + np.swapaxes(iterates, -1, -2)) / 2.0).min(axis=-1)
    if not np.all(low > 0.0):
        bad = np.argwhere(~(low > 0.0))[0]
        problems.append(f"iterate {bad[0] + 1} factor {bad[1]} is not SPD (eigenvalue {low[tuple(bad)]:.3e})")
    return problems


def _rpca_cadence(out: LegOutput) -> tuple[list[str], np.ndarray]:
    """Gap estimates at the cadence points (every 50 iterations from 100,
    as in acceptance criterion 6); each must be present."""
    rows = out.rows
    every = int(out.cfg["gap_every"])
    at = (rows.t >= 2 * every) & (rows.t % every == 0)
    gaps = rows.gap[at]
    missing = rows.t[at][np.isnan(gaps)]
    problems = [f"gap estimate missing at t={missing[:3].tolist()}"] if len(missing) else []
    expected = int(out.cfg["iters"]) // every - 1
    if len(gaps) != expected:
        problems.append(f"{len(gaps)} cadence rows, expected {expected}")
    return problems, gaps


def check_rpca_converged(out: LegOutput) -> list[str]:
    """alpha = 2: both Riemannian gradients at the final pair, recomputed from
    the ``robust_pca`` docstring formulas, are <= 1e-4 and match the trace;
    gap estimates are non-negative and non-increasing."""
    problems = _status(out)
    c = out.cfg
    n, k, alpha = int(c["n"]), int(c["k"]), float(c["alpha"])
    rng = np.random.default_rng(int(c["seed"]))
    data = [random_spd(n, float(c["mu"]), float(c["l"]), rng) for _ in range(k)]
    x, m = out.final["x"], out.final["y"]
    mx = m @ x
    gx = -2.0 * (mx - float(x @ mx) * x)
    gm = -np.outer(mx, mx) + (2.0 * alpha / k) * sum(spd_log(m, d) for d in data)
    norms = (float(np.linalg.norm(gx)), spd_norm(m, (gm + gm.T) / 2.0))
    traced = (out.rows.gx[-1], out.rows.gy[-1])
    for label, mine, theirs in zip(("x", "y"), norms, traced):
        if not _rel(mine, theirs) <= GRAD_RTOL:
            problems.append(f"grad_norm_{label} {mine:.6e} recomputed, trace says {theirs:.6e}")
        if not mine <= RPCA_GRAD_TOL:
            problems.append(f"grad_norm_{label} {mine:.3e} misses the target {RPCA_GRAD_TOL:g}")
    missing, gaps = _rpca_cadence(out)
    problems += missing
    gaps = gaps[~np.isnan(gaps)]
    if np.any(gaps < 0.0):
        problems.append(f"negative gap estimate {gaps.min():.3e}")
    if len(gaps) > 1 and np.max(np.diff(gaps)) > GAP_MONOTONE_TOL:
        problems.append(f"gap estimate increases by {np.max(np.diff(gaps)):.3e}")
    return problems


def check_rpca_cycling(out: LegOutput) -> list[str]:
    """alpha = 0.5 (criterion 6's regime checks): status ok, a gap estimate
    at every cadence point, final-third gradient norms >= 0.3."""
    problems = _status(out)
    problems += _rpca_cadence(out)[0]
    rows = out.rows
    late = rows.t >= rows.t[-1] * 2.0 / 3.0
    gmin = float(np.min(np.maximum(rows.gx[late], rows.gy[late])))
    if not gmin >= 0.3:
        problems.append(f"final-third gradient norms fall to {gmin:.3e} < 0.3")
    return problems


def check_flat_bilinear(out: LegOutput) -> list[str]:
    """RCEG equals classical extragradient, run here as a numpy recurrence on
    the same B, x0, y0 and eta, at every row; the distance to the saddle
    never increases (eta * sigma_max <= 1) and reaches the target."""
    problems = _status(out)
    c = out.cfg
    n, eta = int(c["n"]), float(c["eta"])
    rng = np.random.default_rng(int(c["seed"]))
    b = rng.standard_normal((n, n))
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    smax = float(np.linalg.norm(b, 2))
    if not eta * smax <= 1.0:
        problems.append(f"eta * sigma_max = {eta * smax:.3f} > 1")
    iters = int(c["iters"])
    xs, ys = np.empty((iters + 1, n)), np.empty((iters + 1, n))
    xs[0], ys[0] = x, y
    bt = b.T
    with np.errstate(over="ignore", invalid="ignore"):  # eta * sigma_max > 1 diverges
        for k in range(iters):
            x, y = x - eta * (b @ (y + eta * (bt @ x))), y + eta * (bt @ (x - eta * (b @ y)))
            xs[k + 1], ys[k + 1] = x, y
    rows = out.rows
    if len(rows.t) != iters + 1 or np.any(rows.t != np.arange(iters + 1)):
        return problems + [f"trace has {len(rows.t)} rows, expected one per iteration 0..{iters}"]
    with np.errstate(over="ignore", invalid="ignore"):
        by, btx = ys @ bt, xs @ b
        gx, gy = np.linalg.norm(by, axis=1), np.linalg.norm(btx, axis=1)
        dist = np.hypot(np.linalg.norm(xs, axis=1), np.linalg.norm(ys, axis=1))
        value = np.einsum("ij,ij->i", xs, by)
        scale = np.linalg.norm(xs, axis=1) * gx
    for label, mine, theirs, sc in (
        ("value", value, rows.value, scale),
        ("grad_norm_x", gx, rows.gx, None),
        ("grad_norm_y", gy, rows.gy, None),
        ("dist_to_ref", dist, rows.dist, None),
    ):
        with np.errstate(invalid="ignore"):
            err = _rel(mine, theirs, sc)
        if not np.all(err <= FLAT_RTOL):
            worst = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
            problems.append(f"{label} differs from extragradient at t={worst} by {err[worst]:.2e} relative")
    final = np.concatenate([out.final["x"], out.final["y"]])
    if not _rel(np.linalg.norm(final - np.concatenate([x, y])), 0.0, np.linalg.norm(final)) <= FLAT_RTOL:
        problems.append("final iterate differs from the extragradient recurrence")
    if np.any(np.diff(rows.dist) > 0.0):
        t = int(np.argmax(np.diff(rows.dist) > 0.0))
        problems.append(f"dist_to_ref increases from t={t} to t={t + 1}")
    if not rows.dist[-1] <= FLAT_FRACTION * rows.dist[0]:
        problems.append(f"final distance {rows.dist[-1] / rows.dist[0]:.3f} of the start misses {FLAT_FRACTION:g}")
    return problems
