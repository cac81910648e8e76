"""Show that each output check rejects a wrong output.

    python3 bench/selftest.py

Run it after ``bench/run.py`` has run every workload once: it loads the
outputs each workload's last round left in ``.bench_out/``, checks that
they pass, then applies one fault at a time (a perturbed final iterate, a
trace row with one gap estimate removed, ...) and checks that the leg's
check rejects it. Exits 1 if an intact output fails or a faulty one passes.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import checks
from run import OUT, ROOT
from workloads import WORKLOADS


def at(out, t: int) -> int:
    return int(np.flatnonzero(out.rows.t == t)[0])


def perturb_final(name, delta):
    def fault(out):
        out.final[name] = out.final[name] + delta(out.final[name])
    return fault


def set_status(out):
    out.meta["status"] = "diverged"


def drop_gap(out):
    out.rows.gap[at(out, 1000)] = np.nan


def raise_gap(out):
    out.rows.gap[at(out, 1500)] += 1e-3


def shift_gaps_negative(out):
    out.rows.gap -= 1.0


def scale_late_grads(out):
    late = out.rows.t >= 1400
    out.rows.gx[late] *= 0.1
    out.rows.gy[late] *= 0.1


def truncate(out):
    keep = out.rows.t <= 1500
    for field in ("t", "value", "gx", "gy", "dist", "gap", "wall_ms"):
        setattr(out.rows, field, getattr(out.rows, field)[keep])
    out.meta["iterations"] = 1500


def spd_not_positive(out):
    out.final["iterates"][100, :36] = -np.eye(6).ravel()


def spd_stop_early(out):
    """A consistent run that stops short of the target: the final iterate
    and the trace's last distance both belong to iteration 10."""
    n = int(out.cfg["n"])
    pair = out.final["iterates"][9]
    out.final["x"], out.final["y"] = pair[: n * n].reshape(n, n), pair[n * n:].reshape(n, n)
    out.rows.dist[-1] = out.rows.dist[10]


def scale_trace(field, factor, row=-1):
    def fault(out):
        getattr(out.rows, field)[row] *= factor
    return fault


def raise_dist(out):
    out.rows.dist[5000] = out.rows.dist[4999] * (1.0 + 1e-12)


def big_eta(out):
    out.cfg["eta"] = "0.2"


FAULTS = {
    "spd_bilinear": [
        ("final iterate x + 1e-3 I", perturb_final("x", lambda a: 1e-3 * np.eye(len(a)))),
        ("trace final dist_to_ref x 1.01", scale_trace("dist", 1.01)),
        ("iterate 101 not SPD", spd_not_positive),
        ("status diverged", set_status),
        ("stopped at iteration 10", spd_stop_early),
    ],
    "alpha2": [
        ("final M + 1e-3 I", perturb_final("y", lambda a: 1e-3 * np.eye(len(a)))),
        ("final x rotated by 1e-3", perturb_final("x", lambda a: 1e-3 * np.roll(a, 1))),
        ("trace final grad_norm_y x 1.001", scale_trace("gy", 1.001)),
        ("gap estimate at t=1000 removed", drop_gap),
        ("gap estimate at t=1500 raised by 1e-3", raise_gap),
        ("gap estimates shifted below 0", shift_gaps_negative),
        ("status diverged", set_status),
    ],
    "alpha05": [
        ("gap estimate at t=1000 removed", drop_gap),
        ("status diverged", set_status),
        ("final-third gradients x 0.1", scale_late_grads),
        ("run stopped at t=1500", truncate),
    ],
    "flat_bilinear": [
        ("final x[0] + 1e-6", perturb_final("x", lambda a: np.eye(len(a))[0] * 1e-6)),
        ("trace value in the last row x (1 + 1e-8)", scale_trace("value", 1.0 + 1e-8)),
        ("trace grad_norm_x at t=7000 x (1 + 1e-8)", scale_trace("gx", 1.0 + 1e-8, 7000)),
        ("dist_to_ref rises at t=5000", raise_dist),
        ("eta = 0.2 (eta * sigma_max > 1)", big_eta),
        ("status diverged", set_status),
    ],
}


def main() -> int:
    bad = 0
    for workload, legs in WORKLOADS.items():
        for leg in legs:
            leg_dir = OUT / workload / leg.name
            cfg = ROOT / leg.config_file if leg.config_file else OUT / workload / f"{leg.name}.cfg"
            if not (leg_dir / "leg.json").is_file():
                print(f"{workload}/{leg.name}: no outputs; run bench/run.py --workload {workload} first")
                bad += 1
                continue
            intact = checks.load_leg(leg_dir, cfg)
            check = getattr(checks, leg.check)
            found = check(intact)
            print(f"{workload}/{leg.name} intact: {'passes' if not found else 'REJECTED: ' + found[0]}")
            bad += bool(found)
            for label, fault in FAULTS[leg.name]:
                out = copy.deepcopy(intact)
                fault(out)
                found = check(out)
                print(f"  {label:42s} {'rejected: ' + '; '.join(found) if found else 'NOT REJECTED'}")
                bad += not found
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
