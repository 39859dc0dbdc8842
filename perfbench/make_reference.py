"""Rewrite reference_seed0.json from the program as it is now.

    python3 perfbench/make_reference.py

The reference holds every CSV value of every CLI job, and per stream frame
(weight, points, sum of point depths, sum of the stabilized translation),
for the default seed. The benchmark counts a value more than 1e-9 relative
away from it as a failed operation. Rewrite it only for a change whose
purpose is to change the program's output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import checks
from run import DEFAULT_SEED, REFERENCE, WORK, BenchError, Runner
from spec import WORKLOADS


def main() -> None:
    deadline = time.monotonic() + 600
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    ref = {}
    try:
        for workload in WORKLOADS:
            r = Runner(workload, DEFAULT_SEED, tmp / workload, deadline, None)
            if workload == "stream":
                res, _ = r.child({"mode": "stream", "trace": False,
                                     "manifest": r.manifest, "passes": 1}, r.tmp)
                ref[workload] = res["first_pass"]
                continue
            ref[workload] = {}
            for job, argv in r.manifest["jobs"].items():
                _, code, _, out, err = r.spawn(
                    [sys.executable, "-m", "streamstab", *argv], r.job_cwd(job))
                if code != 0:
                    raise BenchError(f"{job} exited {code}: {err.decode()}")
                ref[workload][job] = checks.parse_csv(out.decode("ascii"))[1]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is using it
            pass
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
