"""The first access to a lazy module from several threads at once: every
thread gets the attribute, and the module's body runs once.

It runs in a fresh interpreter, where no algorithm module has run yet.
"""

import subprocess
import sys

# four threads behind a barrier touch one attribute of each algorithm module,
# the first access to each; exec_module counts the bodies that run
_RACE = """
import collections, importlib.machinery, threading
import streamstab

runs = collections.Counter()
exec_module = importlib.machinery.SourceFileLoader.exec_module
def counted(loader, module):
    runs[module.__name__] += 1
    exec_module(loader, module)
importlib.machinery.SourceFileLoader.exec_module = counted

errors = []
def touch(barrier, module, attr):
    barrier.wait()
    try:
        getattr(getattr(streamstab, module), attr)
    except Exception as exc:
        errors.append(f"{module}.{attr}: {exc!r}")

for module, attr in %r:
    barrier = threading.Barrier(4)
    threads = [threading.Thread(target=touch, args=(barrier, module, attr))
               for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
assert not errors, errors
assert set(runs.values()) == {1}, runs
"""

_FIRST_ATTRIBUTES = [
    ("metrics", "metric_ate"), ("spatial", "bilateral_depth"),
    ("stabilization", "filter_step"), ("losses", "loss_ate"),
    ("frame_scoring", "score_frame"), ("state_update", "apply_update"),
    ("simulate", "stream_step"), ("io_formats", "read_pfm")]


def test_first_access_from_four_threads_runs_each_body_once():
    proc = subprocess.run([sys.executable, "-c", _RACE % _FIRST_ATTRIBUTES],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
