"""Child interpreter for the in-process parts of the benchmark.

    python child.py CONFIG.json

CONFIG names a mode:

* ``stream``: the online per-frame loop over the generated frames, closed
  loop (each frame waits for the one before it, because the memory and the
  filter are causal recurrences). It runs whole passes from the initial
  state until ``seconds`` of frame time have been measured, or exactly
  ``passes`` passes.
* ``job``: one CLI job through ``streamstab.cli.main(argv)`` in-process,
  with its stdout captured.

With ``trace`` set, import spans are installed before ``streamstab`` is
imported and every layer is wrapped before any work runs; the spans are
written as JSON lines at the end. The results go to ``CONFIG["out"]``.

NumPy is imported only after ``streamstab.cli``, so the import spans see
the program pay for it.
"""

from __future__ import annotations

import time

T_START = time.perf_counter_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tr  # noqa: E402
from spec import LAYERS  # noqa: E402

SAMPLE_EVERY = 4  # frames of the first pass re-checked against an FFT oracle


def _features(pixels, depths, np):
    """64-d unit key from 8x8 block means of the frame, 64-d value from the
    depth map: the observation written into the memory."""
    h, w = pixels.shape
    key = pixels.reshape(8, h // 8, 8, w // 8).mean(axis=(1, 3)).reshape(-1)
    key = key / max(float(np.linalg.norm(key)), 1e-12)
    dh, dw = depths.shape
    value = depths.reshape(8, dh // 8, 8, dw // 8).mean(axis=(1, 3)).reshape(-1)
    return key, value


def _oracle_ratio(pgm: bytes, np) -> tuple[float, float]:
    """High-frequency ratio of a P5 8-bit frame from a masked sum of |fft2|,
    without fftshift: frequencies are folded to signed indices instead.
    Returns (ratio, radius)."""
    _, dims, maxval, payload = pgm.split(b"\n", 3)
    w, h = (int(x) for x in dims.split())
    img = np.frombuffer(payload, dtype=np.uint8).reshape(h, w) / int(maxval)
    mags = np.abs(np.fft.fft2(img))
    fy = np.fft.fftfreq(h, 1.0 / h)[:, None]
    fx = np.fft.fftfreq(w, 1.0 / w)[None, :]
    radius = float(min(h, w) // 8)
    # fftshift puts index h//2 at the centre; for even sizes the Nyquist row
    # lands at -h/2, which fftfreq already gives
    mask = fy * fy + fx * fx > radius * radius
    return float(mags[mask].sum()) / (float(mags.sum()) + 1e-8), radius


def run_stream(cfg: dict, tracer) -> dict:
    import streamstab.cli  # noqa: F401  (set-up cost users pay)
    if tracer is not None:
        tr.wrap_layers(tracer, LAYERS)
        tracer.job = "stream"
    import numpy as np
    from streamstab import (frame_scoring, io_formats, spatial,
                            stabilization, state_update)
    man = cfg["manifest"]
    poses = list(io_formats.read_trajectory_tum(Path(man["poses"]).read_text()))
    frames = man["frames"]
    scfg = frame_scoring.ScoreConfig()
    ocfg = stabilization.OneEuroConfig()
    bcfg = spatial.BilateralConfig()
    intr = spatial.Intrinsics(*man["intrinsics"])
    state0 = state_update.MemoryState.zeros(64, 64)
    filt0 = stabilization.FilterState()

    frame_ns, failures = [], []
    first = []  # per frame of the first pass: (weight, n_points, z_sum, t_sum)
    measured = 0
    passes = 0
    while True:
        state, filt, prev = state0, filt0, None
        for i, (frame, pose) in enumerate(zip(frames, poses)):
            t0 = time.perf_counter_ns()
            try:
                img = io_formats.read_pgm(Path(frame["pgm"]).read_bytes())
                depth = io_formats.read_pfm(Path(frame["pfm"]).read_bytes())
                weight = frame_scoring.score_frame(prev, pose, img, scfg)
                key, value = _features(img.pixels, depth.depths, np)
                obs = state_update.Observation(key, value)
                grad = state_update.associative_gradient(state, obs)
                state = state_update.apply_update(state, grad, weight)
                filt, smoothed = stabilization.filter_step(filt, pose, ocfg)
                refined = spatial.bilateral_depth(depth, bcfg)
                cloud = spatial.depth_to_points(refined, intr)
            except Exception:  # a frame that raises is a failed operation
                failures.append([f"frame {i}: {traceback.format_exc(limit=-2)}"])
                if passes == 0:
                    first.append(None)
                prev = pose
                continue
            t1 = time.perf_counter_ns()
            frame_ns.append(t1 - t0)
            measured += t1 - t0
            prev = pose
            # output checks, outside the timed region
            bad = []
            if not 0.0 <= weight <= 1.0:
                bad.append(f"weight {weight} outside [0, 1]")
            if not np.array_equal(refined.valid, depth.valid):
                bad.append("validity mask changed")
            inval = ~depth.valid
            if not np.array_equal(refined.depths[inval], depth.depths[inval]):
                bad.append("invalid depth pixels changed")
            if len(cloud) != frame["valid"]:
                bad.append(f"{len(cloud)} points for {frame['valid']} valid pixels")
            if not np.isfinite(cloud.points).all():
                bad.append("non-finite point")
            if not np.isfinite(state.values).all():
                bad.append("non-finite memory state")
            record = (weight, len(cloud), float(cloud.points[:, 2].sum()),
                      float(np.sum(smoothed.t)))
            if passes == 0:
                first.append(record)
            elif record != first[i]:
                bad.append(f"frame {i} differs from the first pass")
            failures.append(bad)
        passes += 1
        if "passes" in cfg:
            if passes >= cfg["passes"]:
                break
        elif measured >= cfg["seconds"] * 1e9:
            break

    t_end = time.perf_counter_ns()

    # sampled frames against an independent oracle: the quality ratio from a
    # masked sum of |fft2|, and the weight from the raw pose file
    tum = np.loadtxt(man["poses"])
    t_xyz = tum[:, 1:4]
    q = tum[:, [7, 4, 5, 6]] / np.linalg.norm(tum[:, 4:8], axis=1)[:, None]
    for i in range(1, len(frames), SAMPLE_EVERY):
        if first[i] is None:
            continue
        data = Path(frames[i]["pgm"]).read_bytes()
        want, radius = _oracle_ratio(data, np)
        got = frame_scoring.highfreq_ratio(
            frame_scoring.dft2_magnitude_centered(io_formats.read_pgm(data)),
            radius, scfg.epsilon)
        dx = float(np.linalg.norm(t_xyz[i] - t_xyz[i - 1]))
        dq = 2.0 * math.acos(min(1.0, abs(float(q[i] @ q[i - 1]))))
        s2 = 1.0 / (1.0 + math.exp(-20.0 * (want - 0.1)))
        want_w = min((dx + dq) * s2, 1.0)
        for name, a, b in (("ratio", got, want), ("weight", first[i][0], want_w)):
            if abs(a - b) > 1e-9 * abs(b):
                failures[i].append(f"frame {i} {name} {a} != oracle {b}")
    return {"frame_ns": frame_ns, "passes": passes,
            "frames_per_pass": len(frames), "first_pass": first,
            "failures": failures, "t_end_ns": t_end}


def run_job(cfg: dict, tracer) -> dict:
    import streamstab.cli
    if tracer is not None:
        tr.wrap_layers(tracer, LAYERS)
        tracer.job = cfg["job"]
    out, error = io.StringIO(), ""
    try:
        with contextlib.redirect_stdout(out):
            code = streamstab.cli.main(cfg["argv"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught exception is a failed job, not a crash
        code = 1
        error = traceback.format_exc(limit=-2)
    return {"code": code, "stdout": out.getvalue(), "error": error,
            "t_end_ns": time.perf_counter_ns()}


def main() -> None:
    cfg = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if cfg["trace"]:
        tracer = tr.Tracer()
        tr.install_import_spans(tracer, LAYERS)
    result = (run_stream if cfg["mode"] == "stream" else run_job)(cfg, tracer)
    result.update({
        "t_start_ns": T_START,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        tracer.dump(cfg["spans"])
    Path(cfg["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
