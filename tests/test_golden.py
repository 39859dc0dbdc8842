"""Golden CLI outputs: each command's stdout and written file, byte for byte.

The inputs are the criterion-13 fixtures (``_write_fixtures``). The files in
``tests/golden/`` hold the bytes every command must keep producing; a
refactor that changes any of them changes behaviour. Regenerate them only
for an intended output change, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and first report what would change, without writing anything, with

    PYTHONPATH=src python tests/test_golden.py --diff

which prints, for each golden file that differs, the changed-cell count and
the largest absolute and relative |delta|, and exits 1 if any file differs.

A case whose command exits non-zero or writes to stderr also has a
``<name>.stderr`` golden: its exit code and the first line of its stderr.
Between them the cases give every optional flag and every choice value of
``build_parser()``, on the command line or in a config file of ``CONFIGS``;
``test_every_flag_and_choice_is_covered`` checks that.
"""

import argparse
import contextlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

from streamstab.cli import build_parser, main
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
    ("score-flags", ["score", "--traj", "noisy.txt", "--frames", "frames",
                     "--config", "score.cfg", "--w1", "0.5", "--w2", "2",
                     "--radius", "3", "--epsilon", "1e-3"], None),
    ("stabilize-flags", ["stabilize", "--in", "noisy.txt",
                         "--out", "stab-flags.txt", "--config",
                         "stabilize.cfg", "--fmin", "2.5"], "stab-flags.txt"),
    ("refine-window0", ["refine", "--in", "pred.pfm", "--out", "w0.pfm",
                        "--window", "0"], "w0.pfm"),
    ("refine-sigma", ["refine", "--in", "pred.pfm", "--out", "sigma.pfm",
                      "--config", "refine.cfg", "--sigma-r", "0.02",
                      "--sigma-s", "1.5"], "sigma.pfm"),
    ("eval-traj-sim3", ["eval-traj", "--pred", "stab.txt", "--gt", "clean.txt",
                        "--align", "sim3", "--prefix-frames", "20"], None),
    ("eval-traj-config", ["eval-traj", "--pred", "stab.txt",
                          "--gt", "clean.txt", "--config", "eval-traj.cfg",
                          "--align", "se3"], None),
    ("eval-depth-original", ["eval-depth", "--pred", "refined.pfm",
                             "--gt", "pred.pfm", "--config", "eval-depth.cfg",
                             "--mode", "original"], None),
    ("eval-depth-scale", ["eval-depth", "--pred", "refined.pfm",
                          "--gt", "pred.pfm", "--mode", "scale"], None),
    ("eval-depth-scale_and_shift", ["eval-depth", "--pred", "refined.pfm",
                                    "--gt", "pred.pfm",
                                    "--mode", "scale_and_shift"], None),
    ("eval-recon-k", ["eval-recon", "--pred", "pred.ply", "--gt", "gt.ply",
                      "--k-normals", "8"], None),
    ("eval-loss-flags", ["eval-loss", "--pred", "stab.txt", "--gt", "clean.txt",
                         "--config", "eval-loss.cfg", "--wr", "0", "--ws", "0",
                         "--lambda1", "0.5", "--lambda2", "0.25",
                         "--conf-loss", "0.3", "--rgb-loss", "0.2"], None),
    ("simulate-flags", ["simulate", "--config", "simulate.cfg",
                        "--frames", "5", "--state-dim", "8", "--seed", "2",
                        "--policy", "adaptive"], None),
    # one error of each class: a parse error and a usage error (exit 2) and
    # a numerical precondition failure (exit 3)
    ("error-parse", ["eval-depth", "--pred", "pred.ply", "--gt", "gt.pfm"],
     None),
    ("error-usage", ["refine", "--in", "pred.pfm", "--out", "refined.ply"],
     None),
    ("error-numerical", ["eval-recon", "--pred", "pred.ply", "--gt", "gt.ply",
                         "--config", "eval-recon.cfg"], None),
]

# config files the cases read; a key is an optional flag, with - or _
CONFIGS = {
    "score.cfg": "# w1 is given on the command line too, which wins\n"
                 "w1 = 9\nclip-max = 0.8\ninitial_weight = 0.5\n",
    "stabilize.cfg": "beta-gain = 0.1\n",
    "refine.cfg": "window = 1\n",
    "eval-traj.cfg": "prefix-frames = 6\n",
    "eval-depth.cfg": "mode = scale\n",
    "eval-recon.cfg": "k-normals = 60\n",
    "eval-loss.cfg": "wa = 2\nlambda3 = 1.5\n",
    "simulate.cfg": "policy = constant:0.25\n",
}


def _run(name: str, argv: list, written, root: Path) -> dict[str, bytes]:
    """One case's golden files: its stdout, the file it writes, and its exit
    code with the first line of its stderr if it fails or warns."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    outputs = {f"{name}.stdout": stdout.getvalue().encode("ascii")}
    if code or stderr.getvalue():
        first = stderr.getvalue().partition("\n")[0]
        outputs[f"{name}.stderr"] = f"exit {code}\n{first}\n".encode("ascii")
    if written is not None:
        outputs[f"{name}.{written}"] = (root / written).read_bytes()
    return outputs


def run_cases(root: Path) -> dict[str, bytes]:
    """Write the fixtures into `root`, run every case there in-process and
    return {golden file name: bytes}."""
    _write_fixtures(root)
    for name, text in CONFIGS.items():
        (root / name).write_text(text)
    outputs = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        # argparse wraps its usage lines to the terminal width
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            for name, argv, written in CASES:
                outputs.update(_run(name, argv, written, root))
    finally:
        os.chdir(cwd)
    return outputs


def _cells(name: str, data: bytes) -> list:
    """A golden file's cells: a PFM's depths as read_pfm reads them, and the
    whitespace- or comma-separated fields of any other file; a missing file
    has none."""
    if not data:
        return []
    if name.endswith(".pfm"):
        return read_pfm(data).depths.ravel().tolist()
    return re.split(rb"[\s,]+", data.strip())


def cell_diff(name: str, old: bytes, new: bytes
              ) -> tuple[int, int, float, float]:
    """(changed numeric cells, changed text cells, largest |new - old|,
    largest |new - old| / |old|) between two versions of a golden file. A
    changed cell that is not a number in both versions, or that one version
    lacks, is a text cell; the largest changes are over numeric cells."""
    a, b = _cells(name, old), _cells(name, new)
    numeric, text = 0, abs(len(a) - len(b))
    largest = largest_rel = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            x, y = float(x), float(y)
        except ValueError:
            text += 1
            continue
        numeric += 1
        delta = abs(y - x)
        largest = max(largest, delta)
        largest_rel = max(largest_rel, delta / abs(x) if x else math.inf)
    return numeric, text, largest, largest_rel


def test_cell_diff():
    old = b"i,r\n0,0.5,x\n1,2\n"
    assert cell_diff("a.stdout", old, old) == (0, 0, 0.0, 0.0)
    assert cell_diff("a.stdout", old, b"i,r\n0,0.5000001,x\n1,2\n") == (
        1, 0, abs(0.5000001 - 0.5), abs(0.5000001 - 0.5) / 0.5)
    assert cell_diff("a.stdout", old, b"i,r\n0,0.5,y\n1,3\n") == (
        1, 1, 1.0, 0.5)
    assert cell_diff("a.stdout", old, b"i,r\n0,0.5,x\n1\n") == (
        0, 1, 0.0, 0.0)


def test_cli_matches_golden(tmp_path):
    outputs = run_cases(tmp_path)
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} changed"



def _given(argv: list) -> set:
    """(subcommand, flag, value) of every option a case gives, on its command
    line or as a key of its config file; every option takes one value."""
    cmd, rest = argv[0], argv[1:]
    given = set()
    for flag, value in zip(rest[::2], rest[1::2]):
        given.add((cmd, flag, value))
        if flag == "--config":
            for line in CONFIGS[value].splitlines():
                if line.strip() and not line.startswith("#"):
                    key, _, val = line.partition("=")
                    given.add((cmd, "--" + key.strip().replace("_", "-"),
                               val.strip()))
    return given


def test_every_flag_and_choice_is_covered():
    given = set().union(*(_given(argv) for _, argv, _ in CASES))
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    missing = []
    for cmd, sub in subs.items():
        for action in sub._actions:
            if not action.option_strings or action.required \
                    or action.dest == "help":
                continue
            values = {v for c, f, v in given
                      if c == cmd and f in action.option_strings}
            if not values:
                missing.append(f"{cmd} {action.option_strings[0]}")
            missing += [f"{cmd} {action.option_strings[0]} {choice}"
                        for choice in action.choices or ()
                        if choice not in values]
    assert not missing, f"no golden case gives {missing}"


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Regenerate tests/golden/.")
    ap.add_argument("--diff", action="store_true",
                    help="print what would change and write nothing")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_cases(Path(tmp))
    if args.diff:
        differs = False
        for name in sorted(set(outputs) | {p.name for p in GOLDEN.iterdir()}):
            path = GOLDEN / name
            old = path.read_bytes() if path.exists() else b""
            data = outputs.get(name, b"")
            if data != old:
                differs = True
                numeric, text, largest, largest_rel = cell_diff(name, old,
                                                                data)
                print(f"{name}: {numeric} numeric cells changed, largest "
                      f"|delta| {largest:.3g}, largest relative |delta| "
                      f"{largest_rel:.3g}; {text} text cells changed")
        sys.exit(1 if differs else 0)
    else:
        GOLDEN.mkdir(exist_ok=True)
        for name, data in outputs.items():
            (GOLDEN / name).write_bytes(data)
