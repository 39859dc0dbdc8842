"""Golden CLI outputs: each command's stdout and written file, byte for byte.

The inputs are the criterion-13 fixtures (``_write_fixtures``). The files in
``tests/golden/`` hold the bytes every command must keep producing; a
refactor that changes any of them changes behaviour. Regenerate them only
for an intended output change, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from streamstab.cli import main

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


def test_cli_matches_golden(tmp_path):
    outputs = run_cases(tmp_path)
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} changed"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in run_cases(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
