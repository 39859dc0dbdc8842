"""What a process loads: `import streamstab`, `--help` and a usage error load
no NumPy, and each subcommand only the modules it runs.

Each case runs in a fresh interpreter, so the modules this test process has
imported do not count. A lazy module is in `sys.modules` before its body runs,
with a subclass of the module type as its type until then, so only modules of
the plain module type count as loaded.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import streamstab

from test_acceptance import _write_fixtures
from test_golden import CASES

SRC = Path(streamstab.__file__).parent

# runs `python -m streamstab ARGV...` (or the statement STMT) and then prints,
# as its last stdout line, the streamstab modules loaded, numpy and scipy
_PROBE = """
import json, runpy, sys, types
argv, stmt = json.loads(sys.argv[1])
try:
    if stmt:
        exec(stmt)
    else:
        sys.argv = ["streamstab", *argv]
        runpy.run_module("streamstab", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(
        [name.removeprefix("streamstab.") for name, m in sys.modules.items()
         if name.startswith("streamstab.") and type(m) is types.ModuleType]
        + [m for m in ("numpy", "scipy") if m in sys.modules])))
"""


def _loaded(argv=(), stmt="", cwd=None):
    """(exit code, modules loaded) of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([list(argv), stmt])],
        cwd=cwd, capture_output=True, text=True)
    return proc.returncode, set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv, stmt, code", [
    ((), "import streamstab, streamstab.cli", 0),
    (("--help",), "", 0),
    (("eval-traj", "--gt", "clean.txt"), "", 2),  # no --pred
], ids=["import", "help", "usage-error"])
def test_no_numpy_before_a_subcommand_runs(argv, stmt, code):
    assert _loaded(argv, stmt) == (code, {"cli", "config", "errors"})


_ALGORITHMS = {"frame_scoring", "geometry", "io_formats", "losses", "metrics",
               "simulate", "spatial", "stabilization", "state_update"}

# an import hook, as a profiler installs, sees each algorithm module imported
# by `import streamstab`; each is then an attribute of the package, and the
# first access to one of its attributes runs its body and its imports only
_HOOKED = """
import builtins
seen, original = set(), builtins.__import__
def hook(name, *args):
    seen.add(name)
    return original(name, *args)
builtins.__import__ = hook
import streamstab
builtins.__import__ = original
assert {"streamstab." + name for name in %r} <= seen, seen
assert all(isinstance(getattr(streamstab, name), type(streamstab))
           for name in %r)
streamstab.stabilization.filter_step
"""


def test_import_makes_each_algorithm_module_a_lazy_attribute():
    stmt = _HOOKED % (sorted(_ALGORITHMS), sorted(_ALGORITHMS))
    assert _loaded(stmt=stmt) == (0, {"config", "errors", "geometry",
                                      "stabilization", "numpy"})


# a profiler that walks sys.modules after `import streamstab`, wrapping each
# module's functions as the walk loads it, walks every algorithm module and
# never meets a function it has already wrapped
_WALK = """
import functools, sys, types
import streamstab
walked = set()
for name, module in list(sys.modules.items()):
    if not name.startswith("streamstab."):
        continue
    walked.add(name.removeprefix("streamstab."))
    for attr, fn in list(vars(module).items()):  # vars() runs a lazy body
        if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                and fn.__module__.startswith("streamstab.")):
            assert not hasattr(fn, "__wrapped__"), (name, attr)
            setattr(module, attr, functools.wraps(fn)(lambda *a, **k: None))
assert walked >= %r, walked
"""


def test_a_walk_over_the_modules_wraps_each_function_once():
    code, _ = _loaded(stmt=_WALK % _ALGORITHMS)
    assert code == 0


# the streamstab modules each subcommand loads besides cli, config, errors,
# geometry and io_formats, and whether it loads scipy
_BASE = {"cli", "config", "errors", "geometry", "io_formats", "numpy"}
_LOADS = {
    "score": {"frame_scoring"},
    "stabilize": {"stabilization"},
    "refine": {"spatial"},
    "eval-traj": {"metrics"},
    "eval-depth": {"metrics"},
    "eval-recon": {"metrics", "scipy"},
    "eval-loss": {"losses"},
    "simulate": {"simulate", "frame_scoring", "state_update"},
}


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    _write_fixtures(tmp_path)
    first = {}  # the first golden case of each subcommand, in CASES' order
    for _, argv, _ in CASES:
        first.setdefault(argv[0], argv)
    assert first.keys() == _LOADS.keys()
    loaded = {command: _loaded(argv, cwd=tmp_path)
              for command, argv in first.items()}
    assert loaded == {command: (0, _BASE | extra)
                      for command, extra in _LOADS.items()}


@pytest.mark.parametrize("module, deferred", [
    ("errors", {"numpy"}), ("config", {".geometry"})])
def test_bottom_modules_import_only_the_stdlib_and_errors(module, deferred):
    # at module level; the one import inside a function runs when it is called
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))

    def names(nodes):
        return {("." * node.level + (node.module or "")
                 if isinstance(node, ast.ImportFrom) else alias.name)
                for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    top = names(tree.body)
    assert {name for name in top if name.split(".")[0]
            not in sys.stdlib_module_names} <= {".errors"}
    assert names(ast.walk(tree)) - top == deferred


# every name the package exported before its imports became lazy
_EXPORTED = """
BilateralConfig DepthEvalMode DepthMap FilterState GrayImage Intrinsics
LossWeights MemoryState Observation OneEuroConfig PointSet Pose Quaternion
ScoreConfig ScoreTerms Similarity3 Trajectory adaptive_update_weight
apply_update associative_gradient bilateral_depth cutoff_freq
depth_to_points dft2_magnitude_centered filter_step grad_pose_translations
highfreq_ratio loss_acc loss_ate loss_conf loss_pose loss_rgb loss_rpe
loss_total metric_ate metric_depth metric_recon metric_rpe motion_score
quality_score quat_geodesic_angle quat_normalize recall_error refine_cloud
relative_pose scale_normalizer score_frame score_terms slerp
smoothing_alpha stabilize_trajectory stream_step to_grayscale umeyama_align
""".split()


def test_every_exported_name_resolves_and_is_listed():
    stmt = (f"import streamstab\nnames = {_EXPORTED!r}\n"
            "assert set(names) <= set(dir(streamstab))\n"
            "for name in names:\n"
            "    exec(f'from streamstab import {name}')\n")
    code, _ = _loaded(stmt=stmt)
    assert code == 0
    assert len(_EXPORTED) == 54
    with pytest.raises(ImportError):
        exec("from streamstab import no_such_name")
