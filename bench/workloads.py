"""The benchmark's workloads: which configs run, and what each must reach.

A workload is a list of legs. Each leg is one ``geominimax run``: a fresh
Python process that parses a config file and calls
``harness.run_experiment`` on it (see ``leg.py``). A round of a workload
runs its legs back to back.

Every instance is pinned to config seed 0. The accuracy targets below are
properties of these instances, and time to a target is what the benchmark
compares between commits. Other seeds move the iteration count at the
target by far more than any bound (see README.md), so ``--seed`` does not
change the instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SPD_BILINEAR_CFG = """\
# spd_bilinear at n = 6, the instance family of configs/bilinear_rceg.cfg
problem = spd_bilinear
n = 6
mu = 0.8
l = 1.25
algo = rceg
eta = 0.2
iters = 350
seed = 0
gap_every = off
"""

FLAT_BILINEAR_CFG = """\
# euclidean_quadratic at n = 20; eta * sigma_max(B) = 0.63 <= 1
problem = euclidean_quadratic
n = 20
algo = rceg
eta = 0.08
iters = 20000
seed = 0
gap_every = off
"""

#: spd-bilinear target: affine-invariant distance to the known saddle.
SPD_TOL = 1e-4
#: robust-pca target on the alpha = 2 leg: both Riemannian gradient norms.
RPCA_GRAD_TOL = 1e-4
#: flat-bilinear target: distance to the saddle as a share of its start.
FLAT_FRACTION = 0.05


def spd_target(rows) -> np.ndarray:
    return rows.dist <= SPD_TOL


def rpca_target(rows) -> np.ndarray:
    return np.maximum(rows.gx, rows.gy) <= RPCA_GRAD_TOL


def flat_target(rows) -> np.ndarray:
    return rows.dist <= FLAT_FRACTION * rows.dist[0]


@dataclass(frozen=True)
class Leg:
    """One solver run of a workload.

    ``config_text`` is written to the leg's directory; ``config_file`` is a
    shipped config, relative to the repository root. ``target`` marks the
    trace rows that meet the workload's accuracy target (one leg per
    workload has it). ``check`` names the function in ``checks.py`` that
    verifies the leg's outputs. ``keep_iterates`` makes the leg save every
    iterate for the check.
    """

    name: str
    check: str
    config_text: Optional[str] = None
    config_file: Optional[str] = None
    target: Optional[Callable] = None
    keep_iterates: bool = False


WORKLOADS: dict[str, list[Leg]] = {
    "spd-bilinear": [
        Leg("spd_bilinear", "check_spd_bilinear", config_text=SPD_BILINEAR_CFG,
            target=spd_target, keep_iterates=True),
    ],
    "robust-pca": [
        Leg("alpha2", "check_rpca_converged", config_file="configs/robust_pca_a2.cfg",
            target=rpca_target),
        Leg("alpha05", "check_rpca_cycling", config_file="configs/robust_pca_a05.cfg"),
    ],
    "flat-bilinear": [
        Leg("flat_bilinear", "check_flat_bilinear", config_text=FLAT_BILINEAR_CFG,
            target=flat_target),
    ],
}
