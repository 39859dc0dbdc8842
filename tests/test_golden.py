"""Golden CLI outputs: each command's stdout and written file, byte for byte.

The inputs are the criterion-13 fixtures (``_write_fixtures``). The files in
``tests/golden/`` hold the bytes every command must keep producing; a
refactor that changes any of them changes behaviour. Regenerate them only
for an intended output change, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and first report what would change, without writing anything, with

    PYTHONPATH=src python tests/test_golden.py --diff

which prints, for each golden file that differs, the changed-cell count and
the largest absolute and relative |delta|.
"""

import argparse
import contextlib
import io
import math
import os
import re
import tempfile
from pathlib import Path

from streamstab.cli import main
from streamstab.io_formats import read_pfm

from test_acceptance import _write_fixtures

GOLDEN = Path(__file__).parent / "golden"

# (name, argv, file the command writes or None), run in this order: later
# commands read what earlier ones wrote
CASES = [
    ("score", ["score", "--traj", "noisy.txt", "--frames", "frames"], None),
    ("stabilize", ["stabilize", "--in", "noisy.txt", "--out", "stab.txt"],
     "stab.txt"),
    ("refine", ["refine", "--in", "pred.pfm", "--out", "refined.pfm"],
     "refined.pfm"),
    ("refine-ply", ["refine", "--in", "pred.pfm", "--out", "refined.ply",
                    "--fx", "50", "--fy", "50", "--cx", "8", "--cy", "8"],
     "refined.ply"),
    ("eval-traj", ["eval-traj", "--pred", "stab.txt", "--gt", "clean.txt"],
     None),
    ("eval-depth", ["eval-depth", "--pred", "refined.pfm", "--gt", "gt.pfm"],
     None),
    ("eval-recon", ["eval-recon", "--pred", "pred.ply", "--gt", "gt.ply"],
     None),
    ("eval-loss", ["eval-loss", "--pred", "stab.txt", "--gt", "clean.txt"],
     None),
    ("simulate", ["simulate", "--frames", "10", "--seed", "1"], None),
    ("simulate-constant", ["simulate", "--frames", "10", "--seed", "1",
                           "--policy", "constant:0.5"], None),
]


def run_cases(root: Path) -> dict[str, bytes]:
    """Write the fixtures into `root`, run every case there in-process and
    return {golden file name: bytes}."""
    _write_fixtures(root)
    outputs = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, argv, written in CASES:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            assert code == 0, f"{name} exited with {code}"
            outputs[f"{name}.stdout"] = stdout.getvalue().encode("ascii")
            if written is not None:
                outputs[f"{name}.{written}"] = (root / written).read_bytes()
    finally:
        os.chdir(cwd)
    return outputs


def _cells(name: str, data: bytes) -> list:
    """A golden file's cells: a PFM's depths as read_pfm reads them, and the
    whitespace- or comma-separated fields of any other file."""
    if name.endswith(".pfm"):
        return read_pfm(data).depths.ravel().tolist()
    return re.split(rb"[\s,]+", data.strip())


def cell_diff(name: str, old: bytes, new: bytes) -> tuple[int, float, float]:
    """(changed cells, largest |new - old|, largest |new - old| / |old|)
    between two versions of a golden file. A changed cell that is not a
    number, or that one version lacks, counts as an infinite change."""
    a, b = _cells(name, old), _cells(name, new)
    changed = abs(len(a) - len(b))
    largest = largest_rel = math.inf if changed else 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        changed += 1
        try:
            x, y = float(x), float(y)
        except ValueError:
            largest = largest_rel = math.inf
            continue
        delta = abs(y - x)
        largest = max(largest, delta)
        largest_rel = max(largest_rel, delta / abs(x) if x else math.inf)
    return changed, largest, largest_rel


def test_cell_diff():
    old = b"i,r\n0,0.5,x\n1,2\n"
    assert cell_diff("a.stdout", old, old) == (0, 0.0, 0.0)
    assert cell_diff("a.stdout", old, b"i,r\n0,0.5000001,x\n1,2\n") == (
        1, abs(0.5000001 - 0.5), abs(0.5000001 - 0.5) / 0.5)
    assert cell_diff("a.stdout", old, b"i,r\n0,0.5,y\n1,3\n") == (
        2, math.inf, math.inf)
    assert cell_diff("a.stdout", old, b"i,r\n0,0.5,x\n1\n") == (
        1, math.inf, math.inf)


def test_cli_matches_golden(tmp_path):
    outputs = run_cases(tmp_path)
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} changed"


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Regenerate tests/golden/.")
    ap.add_argument("--diff", action="store_true",
                    help="print what would change and write nothing")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_cases(Path(tmp))
    if args.diff:
        for name, data in sorted(outputs.items()):
            path = GOLDEN / name
            old = path.read_bytes() if path.exists() else b""
            if data != old:
                changed, largest, largest_rel = cell_diff(name, old, data)
                print(f"{name}: {changed} cells changed, largest |delta| "
                      f"{largest:.3g}, largest relative |delta| "
                      f"{largest_rel:.3g}")
    else:
        GOLDEN.mkdir(exist_ok=True)
        for name, data in outputs.items():
            (GOLDEN / name).write_bytes(data)
