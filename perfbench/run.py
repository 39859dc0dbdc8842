"""Seeded benchmark for streamstab.

    python3 perfbench/run.py --workload {stream,cli}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark generates its inputs from
the seed into a temporary directory inside the checkout, runs one
workload as a single closed-loop client, checks every output, and prints a
human-readable report followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of spec.py,
measured untraced; with ``--trace 1`` they are the per-layer metrics from a
separate traced run (see tracer.py). Nothing under ``src/`` is modified: CLI
jobs run as ``python -m streamstab`` with ``PYTHONPATH`` set to the
checkout's ``src``, and the in-process parts run in a child interpreter
(child.py) that reads only the generated files.

Workloads (see spec.py for the one-line reasons):

* ``stream``: 24 frames of 512x384 PGM + PFM + pose, looped in whole passes
  from the initial state; each frame is read_pgm, read_pfm, score_frame,
  associative_gradient + apply_update (64x64), filter_step,
  bilateral_depth, depth_to_points.
* ``cli``: one pass runs eight jobs one after another. The readers are
  eval-traj --align sim3 and eval-loss on a 10k-pose TUM pair, eval-depth
  --mode scale_and_shift on a 640x480 PFM pair, and eval-recon on two
  3,000-point PLY clouds. The writers are score on 100 PGM frames, stabilize
  on 10k poses, refine of a 640x480 PFM to PLY, and simulate --frames 200.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import gen_inputs
import tracer as tr
from spec import END_TO_END, LAYERS, PER_LAYER, RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_seed0.json"
DEFAULT_SEED = 0
TIME_LIMIT_S = 165  # every run must end within 180 s
SETUP_PROBES = 3  # before the measured work, and again after it

PROBE = ("import sys, streamstab, streamstab.cli\n{state}"
         "sys.stdout.write(streamstab.__file__ + '\\n')\nsys.stdout.flush()\n")
STREAM_STATE = ("from streamstab.state_update import MemoryState\n"
                "from streamstab.stabilization import FilterState\n"
                "MemoryState.zeros(64, 64)\nFilterState()\n")

# report name, span name, unit, statistic ("mean" per call or "self" total)
FUNCTION_METRICS = [
    ("frame_scoring.score_frame.ms", "frame_scoring.score_frame", "ms", "mean"),
    ("spatial.bilateral_depth.ms", "spatial.bilateral_depth", "ms", "mean"),
    ("spatial.depth_to_points.ms", "spatial.depth_to_points", "ms", "mean"),
    ("stabilization.filter_step.us", "stabilization.filter_step", "us", "mean"),
    ("stabilization.stabilize_trajectory.s",
     "stabilization.stabilize_trajectory", "s", "mean"),
    ("geometry.slerp.us", "geometry.slerp", "us", "mean"),
    ("metrics.metric_rpe.s", "metrics.metric_rpe", "s", "mean"),
    ("metrics.metric_ate.s", "metrics.metric_ate", "s", "mean"),
    ("metrics.estimate_normals.s", "metrics.estimate_normals", "s", "mean"),
    ("metrics.metric_recon.self_s", "metrics.metric_recon", "s", "self"),
    ("metrics.metric_depth.s", "metrics.metric_depth", "s", "mean"),
    ("losses.loss_pose.s", "losses.loss_pose", "s", "mean"),
    ("io_formats.read_trajectory_tum.s", "io_formats.read_trajectory_tum", "s", "mean"),
    ("io_formats.read_ply_ascii.s", "io_formats.read_ply_ascii", "s", "mean"),
    ("io_formats.write_ply_ascii.s", "io_formats.write_ply_ascii", "s", "mean"),
    ("io_formats.write_trajectory_tum.s", "io_formats.write_trajectory_tum", "s", "mean"),
    ("io_formats.read_pgm.ms", "io_formats.read_pgm", "ms", "mean"),
    ("io_formats.read_pfm.ms", "io_formats.read_pfm", "ms", "mean"),
    ("cli.main.self_s", "cli.main", "s", "self"),
]
SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- environment ----------------------------------------------------------------

def _openblas_threads():
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getter = getattr(handle, sym)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def environment(streamstab_file: str) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    threads = _openblas_threads()
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_version, "cpu": cpu,
        "nproc": nproc,
        "blas_threads": min(threads, nproc) if threads else None,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "src_sha256": digest.hexdigest(), "git_commit": _git_commit(),
        "streamstab_file": streamstab_file,
    }


# -- processes ------------------------------------------------------------------

class Runner:
    """Spawns the program, checks its outputs and counts operations."""

    def __init__(self, workload: str, seed: int, tmp: Path, deadline: float,
                 reference):
        self.workload = workload
        self.tmp = tmp
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.manifest = gen_inputs.generate(workload, seed, tmp / "inputs")
        self.reference = reference
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env
        self._count = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:2])

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, cmd: list[str], cwd: Path) -> tuple[float, int, int, bytes, bytes]:
        """Run one process to the end; return wall seconds, exit code, peak
        RSS in KiB, stdout and stderr. It is killed at the deadline."""
        self._count += 1
        out_path = self.tmp / f"p{self._count}.out"
        err_path = self.tmp / f"p{self._count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            done = threading.Event()
            timer = threading.Timer(max(self.time_left(), 0.0),
                                    lambda: done.is_set() or proc.kill())
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                done.set()
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return wall, proc.returncode, usage.ru_maxrss, stdout, stderr

    def child(self, cfg: dict, cwd: Path) -> tuple[dict, int]:
        """Run child.py with `cfg`; return its result and peak RSS in KiB."""
        self._count += 1
        cfg = dict(cfg, out=str(self.tmp / f"c{self._count}.json"),
                   spans=str(self.tmp / f"c{self._count}.spans"))
        cfg_path = self.tmp / f"c{self._count}.cfg"
        cfg_path.write_text(json.dumps(cfg))
        _, code, rss, _, err = self.spawn(
            [sys.executable, str(HERE / "child.py"), str(cfg_path)], cwd)
        if code != 0:
            raise BenchError(f"child exited {code}: {err.decode()[-2000:]}")
        result = json.loads(Path(cfg["out"]).read_text())
        if cfg["trace"]:
            result["spans"] = tr.load_spans(cfg["spans"])
        return result, rss

    def probe_setup(self, count: int) -> tuple[list[float], str]:
        """Time fresh interpreters up to `import streamstab.cli` done (and, on
        stream, the initial memory and filter state). One untimed probe
        first fills the bytecode cache, which users have too."""
        code = PROBE.format(state=STREAM_STATE if self.workload == "stream" else "")
        times, where = [], ""
        for i in range(count + 1):
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", code], cwd=self.tmp,
                                    env=self.env, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL)
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.close()
            if proc.wait(timeout=max(self.time_left(), 1.0)) != 0 or not line:
                raise BenchError("the set-up probe could not import streamstab")
            where = line.decode().strip()
            if i:
                times.append(t1 - t0)
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"streamstab imported from {where}, not {SRC}")
        return times, where

    # -- checks -----------------------------------------------------------

    def check_job(self, job: str, code: int, stdout: str, output, first: dict,
                  io_formats, stderr: str = "") -> list[str]:
        """Exit code, CSV shape and ranges, files parsing back, repeats
        byte-identical within the run, and the reference for the default
        seed."""
        problems = [] if code == 0 else [
            f"{job}: exit code {code} {stderr.strip()[-300:]}"]
        problems += checks.check_csv(job, stdout, self.manifest)
        if job in first:
            if (stdout, output) != first[job]:
                problems.append(f"{job}: output differs from the first run")
            return problems
        first[job] = (stdout, output)
        if job in self.manifest["outputs"]:
            if output is None:
                problems.append(f"{job}: no output file")
            else:
                problems += checks.check_output_file(
                    job, output, self.manifest, io_formats)
        if self.reference is not None and not problems:
            _, rows = checks.parse_csv(stdout)
            problems += checks.check_reference(job, rows, self.reference[job])
        return problems

    def job_cwd(self, job: str) -> Path:
        cwd = self.tmp / "cwd" / job
        cwd.mkdir(parents=True, exist_ok=True)
        name = self.manifest["outputs"].get(job)
        if name:
            (cwd / name).unlink(missing_ok=True)
        return cwd

    def read_output(self, job: str, cwd: Path):
        name = self.manifest["outputs"].get(job)
        path = cwd / name if name else None
        return path.read_bytes() if path is not None and path.is_file() else None


# -- statistics -----------------------------------------------------------------

def percentile(values, p: float) -> float:
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 0


# -- untraced runs ----------------------------------------------------------------

def record_stream(r: Runner, res: dict) -> None:
    """Count every frame, with the child's checks and the reference."""
    failures = res["failures"]
    if r.reference is not None:
        for i, (got, want) in enumerate(zip(res["first_pass"], r.reference)):
            if got is not None and not all(
                    checks.close(a, b) for a, b in zip(got, want)):
                failures[i].append(f"frame {i}: {got} != reference {want}")
    for bad in failures:
        r.record(bad)


def stream_untraced(r: Runner, seconds: float) -> tuple[dict, list[str]]:
    res, rss = r.child({"mode": "stream", "trace": False,
                        "manifest": r.manifest, "seconds": seconds}, r.tmp)
    record_stream(r, res)
    ms = [ns / 1e6 for ns in res["frame_ns"]]
    if not ms:
        raise BenchError(f"no frame completed: {r.problems[:1]}")
    per_pass = res["frames_per_pass"]
    fps = 1e3 * len(ms) / sum(ms)
    tail = tail_percentile(len(ms))
    p50, p90 = percentile(ms, 50), percentile(ms, 90)
    metrics = {"op_latency_ms": p50, "ops_per_s": fps,
               "peak_rss_mb": rss / 1024.0}
    report = [
        f"frame_ms_p50 {p50:.4f} ms (n={len(ms)} frames, {res['passes']} passes "
        f"of {per_pass})",
        f"frame_ms_p90 {p90:.4f} ms (n={len(ms)})",
        f"frame_ms_p{tail} {percentile(ms, tail):.4f} ms (highest percentile "
        f"with >= 10 samples beyond it)",
        f"frames_per_s {fps:.4f} 1/s (frames / total frame time)",
    ]
    return metrics, report


def cli_untraced(r: Runner, seconds: float, io_formats) -> tuple[dict, list[str]]:
    jobs = r.manifest["jobs"]
    walls = {job: [] for job in jobs}
    pass_walls, rss, first = [], [], {}
    start = time.monotonic()
    while True:
        pass_wall = 0.0
        for job, argv in jobs.items():
            cwd = r.job_cwd(job)
            wall, code, maxrss, out, err = r.spawn(
                [sys.executable, "-m", "streamstab", *argv], cwd)
            stdout = out.decode("ascii", errors="replace")
            r.record(r.check_job(job, code, stdout, r.read_output(job, cwd),
                                 first, io_formats, err.decode(errors="replace")))
            walls[job].append(wall)
            rss.append(maxrss)
            pass_wall += wall
        pass_walls.append(pass_wall)
        if (time.monotonic() - start >= seconds
                or r.time_left() < 2.0 * pass_wall + 10.0):
            break
    medians = {job: statistics.median(w) for job, w in walls.items()}
    suite = statistics.median(pass_walls)
    metrics = {"op_latency_ms": 1e3 * suite / len(jobs),
               "ops_per_s": len(jobs) * len(pass_walls) / sum(pass_walls),
               "peak_rss_mb": max(rss) / 1024.0}
    report = [f"suite_s {suite:.4f} s (median of {len(pass_walls)} passes)"]
    report += [f"{job}_s {m:.4f} s (median of {len(walls[job])})"
               for job, m in medians.items()]
    return metrics, report


# -- traced runs ------------------------------------------------------------------

def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of the jobs of one pass."""
    out = {"layers": {}, "funcs": {}, "io": {}, "unaccounted_ns": 0, "spans": 0}
    for s in summaries:
        for group in ("layers", "funcs"):
            for name, fields in s[group].items():
                slot = out[group].setdefault(name, dict.fromkeys(fields, 0))
                for k, v in fields.items():
                    slot[k] += v
        for k, v in s["io"].items():
            out["io"][k] = out["io"].get(k, 0) + v
        out["unaccounted_ns"] += s["unaccounted_ns"]
        out["spans"] += s["spans"]
    return out


def layer_metrics(s: dict) -> dict:
    layers = s["layers"]

    def get(layer, field):
        return layers.get(layer, {}).get(field, 0)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = get(layer, "self_ns") / 1e9
        m[f"{layer}.calls"] = get(layer, "calls")
    io = s["io"]
    m.update({
        "cli.import_s": get("cli", "import_ns") / 1e9,
        "deps.import_s": get("deps", "self_ns") / 1e9,
        "io_formats.read_bytes": io["read_bytes"],
        "io_formats.read_mb_per_s": (1e3 * io["read_bytes"] / io["read_ns"]
                                     if io["read_ns"] else 0.0),
        "io_formats.write_bytes": io["write_bytes"],
        "trace.unaccounted_s": s["unaccounted_ns"] / 1e9,
        "trace.spans": s["spans"],
    })
    return m


def function_metrics(s: dict) -> dict:
    """The per-function figures named for the report, where called."""
    funcs = s["funcs"]
    out = {}
    for name, span, unit, stat in FUNCTION_METRICS:
        f = funcs.get(span)
        if not f or not f["calls"]:
            continue
        if span == "cli.main":
            ns = sum(g["self_ns"] for n, g in funcs.items() if n.startswith("cli."))
        else:
            ns = f["self_ns"] if stat == "self" else f["total_ns"] / f["calls"]
        out[name] = (ns * SCALE[unit], unit, f["calls"])
    writes = funcs.get("state_update.apply_update")
    if writes:
        grad = funcs.get("state_update.associative_gradient", {"total_ns": 0})
        ns = (writes["total_ns"] + grad["total_ns"]) / writes["calls"]
        out["state_update.write.us"] = (ns / 1e3, "us", writes["calls"])
    io = s["io"]
    if io["write_ns"]:
        out["io_formats.write_mb_per_s"] = (
            1e3 * io["write_bytes"] / io["write_ns"], "MB/s", io["write_bytes"])
    return out


def _summary(res: dict) -> tuple[dict, int]:
    wall = res["t_end_ns"] - res["t_start_ns"]
    spans = [s for s in res["spans"] if s[tr.T0] < res["t_end_ns"]]
    return tr.summarize(spans, wall, res["t_start_ns"]), wall


def traced(r: Runner, seconds: float, io_formats) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes in fresh child interpreters until
    `seconds` have passed; per-layer values are medians over traced passes."""
    stream = r.workload == "stream"
    jobs = {"stream": None} if stream else r.manifest["jobs"]
    first, first_traced = {}, {}
    walls = {False: [], True: []}
    passes, accounts = [], {}
    start = time.monotonic()
    while True:
        for tracing in (False, True):
            pass_wall, summaries = 0, []
            for job, argv in jobs.items():
                cfg = ({"mode": "stream", "trace": tracing,
                        "manifest": r.manifest, "passes": 1} if stream else
                       {"mode": "job", "trace": tracing, "job": job, "argv": argv})
                cwd = r.tmp if stream else r.job_cwd(job)
                res, _ = r.child(cfg, cwd)
                if stream:
                    record_stream(r, res)
                else:
                    seen = first_traced if tracing else first
                    problems = r.check_job(job, res["code"], res["stdout"],
                                           r.read_output(job, cwd), seen,
                                           io_formats, res["error"])
                    if tracing and first_traced[job][0] != first[job][0]:
                        problems.append(f"{job}: traced stdout differs")
                    r.record(problems)
                if tracing:
                    summary, wall = _summary(res)
                    summaries.append(summary)
                    accounts.setdefault(job, []).append((wall, summary))
                pass_wall += res["t_end_ns"] - res["t_start_ns"]
            walls[tracing].append(pass_wall)
            if tracing:
                passes.append(merge(summaries))
        if (time.monotonic() - start >= seconds
                or r.time_left() < 3.0 * (walls[False][-1] + walls[True][-1]) / 1e9 + 10):
            break

    per_pass = [layer_metrics(p) for p in passes]
    # median_low keeps counts whole: every value is one traced pass's
    metrics = {name: statistics.median_low(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(walls[True])
                                       / statistics.median(walls[False]) - 1.0)

    report = [f"traced passes: {len(passes)} (each with an untraced twin)"]
    report += [f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}"
               for m in PER_LAYER if m["name"] in metrics]
    fn = [function_metrics(p) for p in passes]
    for name in fn[0]:
        value = statistics.median(f[name][0] for f in fn)
        report.append(f"{name} {value:.6g} {fn[0][name][1]} (n={fn[0][name][2]})")
    for job, runs in accounts.items():
        wall, s = sorted(runs, key=lambda run: run[0])[len(runs) // 2]
        selfs = sum(v["self_ns"] for v in s["layers"].values())
        imp = s["layers"].get("cli", {}).get("import_ns", 0)
        calls = sum(f["self_ns"] for f in s["funcs"].values())
        report.append(
            f"account {job}: wall_s {wall / 1e9:.4f} = cli.import_s {imp / 1e9:.4f}"
            f" + calls_self_s {calls / 1e9:.4f}"
            f" + lazy_import_s {(selfs - imp - calls) / 1e9:.4f}"
            f" + remainder_s {s['unaccounted_ns'] / 1e9:.4f}")
    return metrics, report


# -- main -------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
        deadline: float) -> tuple[dict, list[str], dict]:
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[workload]
    r = Runner(workload, seed, tmp, deadline, reference)
    setup, where = r.probe_setup(0 if trace else SETUP_PROBES)
    sys.path.insert(0, str(SRC))
    from streamstab import io_formats

    if trace:
        metrics, report = traced(r, seconds, io_formats)
    elif workload == "stream":
        metrics, report = stream_untraced(r, seconds)
    else:
        metrics, report = cli_untraced(r, seconds, io_formats)
    if not trace:
        setup += r.probe_setup(SETUP_PROBES)[0]
        metrics["setup_s"] = statistics.median(setup)
        report.insert(0, f"setup_s {metrics['setup_s']:.4f} s (median of "
                         f"{len(setup)} fresh interpreters)")
        report.append(f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB")
    report.append(f"fail_ratio {r.failed / max(r.attempted, 1):.6g} ratio "
                  f"({r.failed} of {r.attempted} operations)")
    report += [f"problem: {p}" for p in r.problems[:20]]
    wanted = PER_LAYER if trace else END_TO_END
    result = {
        "correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, report, environment(where)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="streamstab benchmark")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "streamstab" / "__init__.py").is_file():
        print(f"error: no streamstab sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result, report, meta = run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), tmp, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    print(f"# why: {WORKLOADS[args.workload]}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
