"""Streaming trajectory stabilization and 3D reconstruction evaluation toolkit.

Every module but `cli`, `config` and `errors` is a lazy module: `import
streamstab` puts each in `sys.modules` and on the package, and its body runs at
the first access to one of its attributes, once, while a first access from
another thread waits for it. The names below resolve through
them on first use (PEP 562), so `import streamstab` loads no NumPy: it runs
only `config` and `errors`, which need none.
"""

import importlib.machinery
import importlib.util
import sys
import threading
import types

from . import config, errors  # noqa: F401  (no NumPy)

_EXPORTS = {name: module for module, names in {
    "config": "BilateralConfig DepthEvalMode LossWeights OneEuroConfig "
              "ScoreConfig",
    "frame_scoring": "ScoreTerms adaptive_update_weight dft2_magnitude_centered "
                     "highfreq_ratio motion_score quality_score score_frame "
                     "score_terms to_grayscale",
    "geometry": "DepthMap GrayImage PointSet Pose Quaternion Trajectory "
                "quat_geodesic_angle quat_normalize relative_pose slerp",
    "losses": "grad_pose_translations loss_acc loss_ate loss_conf loss_pose "
              "loss_rgb loss_rpe loss_total scale_normalizer",
    "metrics": "Similarity3 metric_ate metric_depth metric_recon metric_rpe "
               "umeyama_align",
    "simulate": "stream_step",
    "spatial": "Intrinsics bilateral_depth depth_to_points refine_cloud",
    "stabilization": "FilterState cutoff_freq filter_step smoothing_alpha "
                     "stabilize_trajectory",
    "state_update": "MemoryState Observation apply_update associative_gradient "
                    "recall_error",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


class _LazyModule(types.ModuleType):
    """A module whose body runs at the first access to one of its
    attributes, once. That access holds `_LOAD` while the body runs, and the
    module keeps this type until the body has run, so that a first access
    from another thread waits for the body rather than finding the module
    without it. (The standard library's lazy module, before Python 3.12,
    becomes a plain module before its body runs.)"""

    def __getattribute__(self, attr):
        get = types.ModuleType.__getattribute__
        with _LOAD:  # re-entrant: the loader and the body's imports come back
            if type(self) is _LazyModule and id(self) not in _loading:
                _loading.add(id(self))
                try:
                    get(self, "__spec__").loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _loading.discard(id(self))
        return get(self, attr)


_LOAD = threading.RLock()
_loading = set()  # the ids of the modules whose bodies are running


class _LazyLoader(importlib.util.LazyLoader):
    def exec_module(self, module):
        super().exec_module(module)  # __spec__.loader is now the real loader
        module.__class__ = _LazyModule


class _LazyFinder:
    """Finds a module with a loader that defers its body to first use."""

    @staticmethod
    def find_spec(name, path, target=None):
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        spec.loader = _LazyLoader(spec.loader)
        return spec


# Each through __import__, as an import statement would, so that an import
# hook sees every module; and each before the modules it imports, so that a
# profiler that walks sys.modules, wrapping each module's functions as it loads
# it, never finds a module that imported functions it had already wrapped.
sys.meta_path.insert(0, _LazyFinder)
try:
    for _module in ("simulate", "frame_scoring", "state_update", "io_formats",
                    "losses", "metrics", "spatial", "stabilization",
                    "geometry"):
        __import__(f"{__name__}.{_module}")
finally:
    sys.meta_path.remove(_LazyFinder)
del _module


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_EXPORTS[name]], name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
