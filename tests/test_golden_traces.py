"""Golden traces: each shipped config reproduces its committed trace and manifest.

``tests/golden/<config>.json`` holds columns 1 to 6 of the config's
``trace.csv`` (every 10th row and the last) and its ``meta.json`` without
``config.out``. A run matches when every number is within 1e-9 absolute
plus 1e-9 relative of the stored one, which is loose enough for another
numpy/BLAS build and tight enough to catch a behaviour change, and every
empty cell and all text match exactly. Numbers quoted inside a string,
such as a diagnostic, get the same tolerance; the text around them must
match exactly.

After an intended behaviour change, regenerate the files from the
repository root with

    PYTHONPATH=src python tests/test_golden_traces.py

and report the largest change per trace column.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from geominimax.harness import TRACE_HEADER, parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.cfg"))

# bilinear_rceg runs its first 1000 of 5000 iterations. Its gap is off and
# its eta a fixed number, so run() reads iters only for the inner gap
# budget and to place the final row: rows 0 to 1000 of the full run are
# the rows of this one. test_shortened_runs_are_prefixes checks those
# two conditions.
SHORTENED = {"bilinear_rceg": 1000}

TOL = 1e-9
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def config(name: str):
    cfg = parse_config(ROOT / "configs" / f"{name}.cfg")
    return replace(cfg, iters=SHORTENED[name]) if name in SHORTENED else cfg


def summary(out_dir: Path) -> dict:
    """Columns 1 to 6 of every 10th trace row and the last, and the manifest without ``config.out``."""
    lines = (out_dir / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    body = lines[1:]
    kept = body[::10] + ([body[-1]] if (len(body) - 1) % 10 else [])
    rows = []
    for line in kept:
        cells = line.split(",")[:6]
        rows.append([int(cells[0])] + [float(c) if c else None for c in cells[1:]])
    meta = json.loads((out_dir / "meta.json").read_text())
    del meta["config"]["out"]
    return {"rows": rows, "meta": meta}


def mismatches(got, want, where: str = "") -> list[str]:
    """Where ``got`` differs from ``want`` beyond the golden tolerance."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in sorted(want) for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, str) and isinstance(got, str):
        gparts, wparts = _NUMBER.split(got), _NUMBER.split(want)
        # split() puts the text between numbers at even and the numbers at odd indices
        if len(gparts) != len(wparts) or gparts[::2] != wparts[::2]:
            return [f"{where}: text {got!r} != {want!r}"]
        if any(not _close(float(g), float(w)) for g, w in zip(gparts[1::2], wparts[1::2])):
            return [f"{where}: numbers in {got!r} != {want!r}"]
        return []
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
    if numbers and _close(got, want):
        return []
    if not numbers and type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOL * (1.0 + abs(want))


@pytest.fixture(scope="module")
def first_runs(tmp_path_factory):
    """Each config run once, with the bytes it wrote (``trace.csv`` without ``wall_ms``)."""
    runs = {}
    for name in CONFIGS:
        out = tmp_path_factory.mktemp(name)
        run_experiment(config(name), out)
        runs[name] = (out, written(out))
    return runs


def written(out_dir: Path) -> tuple[str, bytes]:
    trace = "\n".join(line.rsplit(",", 1)[0] for line in (out_dir / "trace.csv").read_text().splitlines())
    return trace, (out_dir / "meta.json").read_bytes()


def test_every_shipped_config_has_a_golden_file():
    assert CONFIGS == sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_shortened_runs_are_prefixes():
    for name in SHORTENED:
        cfg = parse_config(ROOT / "configs" / f"{name}.cfg")
        assert cfg.gap_every == "off" and cfg.eta != "auto" and cfg.iters > SHORTENED[name]


@pytest.mark.parametrize("name", CONFIGS)
def test_run_matches_golden(name, first_runs):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    bad = mismatches(summary(first_runs[name][0]), want)
    assert not bad, f"{len(bad)} cells differ from tests/golden/{name}.json, first: " + "; ".join(bad[:5])


@pytest.mark.parametrize("name", CONFIGS)
def test_second_run_in_process_writes_the_same_bytes(name, first_runs):
    out, first = first_runs[name]
    run_experiment(config(name), out)
    assert written(out) == first


def test_tolerance_sees_text_and_numbers():
    assert mismatches({"a": [1.0, None, "x 2.5e-16 y"]}, {"a": [1.0 + 1e-10, None, "x -3e-16 y"]}) == []
    assert mismatches([1.0], [1.0 + 3e-9]) != []
    assert mismatches("below 1e-12", "above 1e-12") != []
    assert mismatches(None, 0.0) != [] and mismatches(True, 1) != []


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            run_experiment(config(name), Path(tmp))
            (GOLDEN / f"{name}.json").write_text(json.dumps(summary(Path(tmp)), indent=1) + "\n")
        print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
