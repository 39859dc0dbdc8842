"""Seeded input generator for the benchmark.

Every input the program sees is written here, from ``--seed`` alone, with
writers independent of ``streamstab.io_formats`` so that a change to the
program's own writers cannot change its inputs. The same seed gives the same
files byte for byte.

    python3 perfbench/gen_inputs.py --seed 0 --out DIR [--workload NAME]

writes the files and ``manifest.json`` (file list, job argv, expected
counts and a one-line rationale per workload) into DIR.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from spec import WORKLOADS

FRAME_W, FRAME_H = 512, 384
DEPTH_W, DEPTH_H = 640, 480
STREAM_FRAMES = 24
SCORE_FRAMES = 100
TRAJ_POSES = 10_000
RECON_POINTS = 3_000
SIMULATE_FRAMES = 200
STREAM_INTRINSICS = (400.0, 400.0, 255.5, 191.5)
DEPTH_INTRINSICS = (525.0, 525.0, 319.5, 239.5)
HOLE_SHARE = 0.01  # per kind: NaN and non-positive, about 2% invalid in all


# -- independent writers ----------------------------------------------------

def _g(x: float) -> str:
    return "%.17g" % x


def write_tum(path: Path, ts, t, q_wxyz) -> None:
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for s, (x, y, z), (w, qx, qy, qz) in zip(ts, t, q_wxyz):
        lines.append(" ".join(_g(v) for v in (s, x, y, z, qx, qy, qz, w)))
    path.write_text("\n".join(lines) + "\n")


def write_pgm(path: Path, img: np.ndarray) -> None:
    h, w = img.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + img.astype(np.uint8).tobytes())


def write_pfm(path: Path, depth: np.ndarray) -> None:
    h, w = depth.shape
    payload = np.ascontiguousarray(depth[::-1]).astype("<f4").tobytes()
    path.write_bytes(f"Pf\n{w} {h}\n-1.0\n".encode() + payload)


def write_ply(path: Path, pts: np.ndarray) -> None:
    lines = ["ply", "format ascii 1.0", f"element vertex {len(pts)}",
             "property float x", "property float y", "property float z",
             "end_header"]
    lines += [" ".join(_g(v) for v in p) for p in pts]
    path.write_text("\n".join(lines) + "\n")


# -- content ---------------------------------------------------------------

def _timestamps(rng, n: int) -> np.ndarray:
    """Strictly increasing, about 30 Hz with jitter."""
    return np.cumsum(1.0 / 30.0 + rng.uniform(0.0, 2e-3, n))


def _quat_from_rotvec(rv: np.ndarray) -> np.ndarray:
    angle = np.linalg.norm(rv, axis=1, keepdims=True)
    axis = rv / np.maximum(angle, 1e-300)
    return np.hstack([np.cos(angle / 2), axis * np.sin(angle / 2)])


def _gt_trajectory(rng, n: int):
    ts = _timestamps(rng, n)
    ph = rng.uniform(0, 2 * np.pi, 6)
    t = np.stack([2.0 * np.sin(0.1 * ts + ph[0]),
                  1.5 * np.cos(0.13 * ts + ph[1]),
                  0.05 * ts + 0.2 * np.sin(0.07 * ts + ph[2])], axis=1)
    rv = np.stack([0.3 * np.sin(0.05 * ts + ph[3]),
                   0.2 * np.sin(0.11 * ts + ph[4]),
                   0.4 * np.sin(0.03 * ts + ph[5])], axis=1)
    return ts, t, _quat_from_rotvec(rv)


def _camera_path(rng, n: int):
    """A hand-held camera: about 1 cm and 0.3 degrees per frame."""
    ts = _timestamps(rng, n)
    t = np.cumsum(rng.normal([0.01, 0.0, 0.003], 2e-3, (n, 3)), axis=0)
    rv = np.cumsum(rng.normal(0.0, 0.005, (n, 3)), axis=0)
    return ts, t, _quat_from_rotvec(rv)


def _drifting(rng, t: np.ndarray, q: np.ndarray):
    """A prediction beside the ground truth: scale error, random-walk drift,
    per-pose noise, and perturbed rotations."""
    n = len(t)
    drift = np.cumsum(rng.normal(0.0, 2e-4, (n, 3)), axis=0)
    tp = 1.03 * t + np.array([0.1, -0.05, 0.02]) + drift + rng.normal(0, 5e-3, (n, 3))
    qp = q + rng.normal(0.0, 2e-3, q.shape)
    qp /= np.linalg.norm(qp, axis=1, keepdims=True)
    return tp, qp


def _smooth_noise(rng, h: int, w: int, cells: int) -> np.ndarray:
    """Bilinear upsampling of a coarse random grid: a smooth field in [0, 1]."""
    gh, gw = cells + 1, cells * w // h + 2
    grid = rng.uniform(0, 1, (gh, gw))
    y = np.linspace(0, gh - 1.001, h)
    x = np.linspace(0, gw - 1.001, w)
    y0, x0 = y.astype(int), x.astype(int)
    fy, fx = (y - y0)[:, None], (x - x0)[None, :]
    g0, g1 = grid[y0], grid[y0 + 1]
    return ((1 - fy) * ((1 - fx) * g0[:, x0] + fx * g0[:, x0 + 1])
            + fy * ((1 - fx) * g1[:, x0] + fx * g1[:, x0 + 1]))


def _box_blur(img: np.ndarray, r: int) -> np.ndarray:
    k = 2 * r + 1
    p = np.pad(img, r, mode="edge")
    c = np.cumsum(np.cumsum(np.pad(p, ((1, 0), (1, 0))), axis=0), axis=1)
    return (c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]) / (k * k)


def _scene(rng, h: int, w: int) -> np.ndarray:
    """Canvas with smooth shading and sharp-edged rectangles, in [0, 255]."""
    canvas = 60.0 + 120.0 * _smooth_noise(rng, h, w, 6)
    for _ in range(60):
        y, x = rng.integers(0, h - 8), rng.integers(0, w - 8)
        hh, ww = rng.integers(4, h // 4), rng.integers(4, w // 4)
        canvas[y:y + hh, x:x + ww] = rng.uniform(0, 255)
    return canvas


def _frames(rng, n: int):
    """Frames cropped from one moving scene; every third frame is blurred."""
    margin = 2 * n + 16
    scene = _scene(rng, FRAME_H + margin, FRAME_W + margin)
    for i in range(n):
        oy, ox = i // 2 + 4, i + 4
        img = scene[oy:oy + FRAME_H, ox:ox + FRAME_W]
        if i % 3 == 2:
            img = _box_blur(img, 3)
        img = img + rng.normal(0.0, 2.0, img.shape)
        yield np.clip(np.rint(img), 0, 255).astype(np.uint8), i % 3 == 2


def _surface(rng, h: int, w: int) -> np.ndarray:
    """Smooth positive depth surface: a slanted plane with bumps, 1 to 5 m."""
    ramp = np.linspace(0.0, 1.0, w)[None, :] + 0.5 * np.linspace(0.0, 1.0, h)[:, None]
    return 1.5 + 1.2 * ramp + 1.5 * _smooth_noise(rng, h, w, 5)


def _with_holes(rng, depth: np.ndarray) -> np.ndarray:
    """Punch invalid pixels of both kinds: NaN, and zero or negative."""
    d = depth.astype(np.float32)
    flat = d.reshape(-1)
    idx = rng.permutation(flat.size)[:2 * int(HOLE_SHARE * flat.size)]
    half = len(idx) // 2
    flat[idx[:half]] = np.nan
    flat[idx[half:]] = np.where(np.arange(len(idx) - half) % 2 == 0, 0.0, -1.0)
    return d


def _valid_count(depth: np.ndarray) -> int:
    return int(np.count_nonzero(np.isfinite(depth) & (depth > 0)))


def _cloud(rng, surface_rng_seed: int, noise: float) -> np.ndarray:
    """Points back-projected from a noisy depth map at continuous pixel
    positions, so no two distances tie."""
    surf = _surface(np.random.default_rng(surface_rng_seed), DEPTH_H, DEPTH_W)
    u = rng.uniform(0, DEPTH_W - 1, RECON_POINTS)
    v = rng.uniform(0, DEPTH_H - 1, RECON_POINTS)
    z = surf[v.astype(int), u.astype(int)] + rng.normal(0.0, noise, RECON_POINTS)
    fx, fy, cx, cy = DEPTH_INTRINSICS
    return np.stack([(u - cx) * z / fx, (v - cy) * z / fy, z], axis=1)


# -- workloads -------------------------------------------------------------

def _stream(rng, out: Path) -> dict:
    fdir = out / "frames"
    fdir.mkdir()
    write_tum(out / "poses.txt", *_camera_path(rng, STREAM_FRAMES))
    frames = []
    for i, (img, blurred) in enumerate(_frames(rng, STREAM_FRAMES)):
        depth = _with_holes(rng, _surface(rng, FRAME_H, FRAME_W)
                            * rng.normal(1.0, 0.01, (FRAME_H, FRAME_W)))
        pgm, pfm = fdir / f"frame_{i:04d}.pgm", fdir / f"depth_{i:04d}.pfm"
        write_pgm(pgm, img)
        write_pfm(pfm, depth)
        frames.append({"pgm": str(pgm), "pfm": str(pfm), "blurred": blurred,
                       "valid": _valid_count(depth)})
    return {"poses": str(out / "poses.txt"), "frames": frames,
            "intrinsics": list(STREAM_INTRINSICS)}


def _evaluate(rng, out: Path) -> dict:
    ts, t, q = _gt_trajectory(rng, TRAJ_POSES)
    tp, qp = _drifting(rng, t, q)
    gt, pred = out / "traj_gt.txt", out / "traj_pred.txt"
    write_tum(gt, ts, t, q)
    write_tum(pred, ts, tp, qp)
    surf = _surface(rng, DEPTH_H, DEPTH_W)
    dgt, dpred = out / "depth_gt.pfm", out / "depth_pred.pfm"
    write_pfm(dgt, _with_holes(rng, surf))
    write_pfm(dpred, _with_holes(rng, 0.95 * surf * rng.normal(1.0, 0.12, surf.shape) + 0.08))
    surface_seed = int(rng.integers(2**31))
    cgt, cpred = out / "cloud_gt.ply", out / "cloud_pred.ply"
    write_ply(cgt, _cloud(rng, surface_seed, 0.002))
    write_ply(cpred, _cloud(rng, surface_seed, 0.005))
    return {"jobs": {
        "eval-traj": ["eval-traj", "--pred", str(pred), "--gt", str(gt),
                      "--align", "sim3"],
        "eval-loss": ["eval-loss", "--pred", str(pred), "--gt", str(gt)],
        "eval-depth": ["eval-depth", "--pred", str(dpred), "--gt", str(dgt),
                       "--mode", "scale_and_shift"],
        "eval-recon": ["eval-recon", "--pred", str(cpred), "--gt", str(cgt)],
    }, "rows": {"eval-traj": 1, "eval-loss": 1, "eval-depth": 1, "eval-recon": 1},
        "outputs": {}, "poses": TRAJ_POSES}


def _produce(rng, out: Path) -> dict:
    fdir = out / "frames"
    fdir.mkdir()
    n = SCORE_FRAMES
    write_tum(out / "score_traj.txt", *_camera_path(rng, n))
    for i, (img, _) in enumerate(_frames(rng, n)):
        write_pgm(fdir / f"frame_{i:04d}.pgm", img)
    ts, t, q = _gt_trajectory(rng, TRAJ_POSES)
    tp, qp = _drifting(rng, t, q)
    write_tum(out / "noisy.txt", ts, tp, qp)
    depth = _with_holes(rng, _surface(rng, DEPTH_H, DEPTH_W)
                        * rng.normal(1.0, 0.01, (DEPTH_H, DEPTH_W)))
    write_pfm(out / "refine_in.pfm", depth)
    fx, fy, cx, cy = DEPTH_INTRINSICS
    return {"jobs": {
        "score": ["score", "--traj", str(out / "score_traj.txt"),
                  "--frames", str(fdir)],
        "stabilize": ["stabilize", "--in", str(out / "noisy.txt"),
                      "--out", "stabilized.txt"],
        "refine": ["refine", "--in", str(out / "refine_in.pfm"),
                   "--out", "refined.ply", "--fx", _g(fx), "--fy", _g(fy),
                   "--cx", _g(cx), "--cy", _g(cy)],
        "simulate": ["simulate", "--frames", str(SIMULATE_FRAMES),
                     "--seed", str(int(rng.integers(2**31)))],
    }, "rows": {"score": n, "stabilize": 0, "refine": 0,
                 "simulate": SIMULATE_FRAMES},
        "outputs": {"stabilize": "stabilized.txt", "refine": "refined.ply"},
        "poses": TRAJ_POSES, "refine_valid": _valid_count(depth)}


def _cli(rng, out: Path) -> dict:
    """Inputs of all eight CLI jobs: the readers first, then the writers."""
    ev, pr = _evaluate(rng, out), _produce(rng, out)
    return {"jobs": {**ev["jobs"], **pr["jobs"]},
            "rows": {**ev["rows"], **pr["rows"]}, "outputs": pr["outputs"],
            "poses": TRAJ_POSES, "refine_valid": pr["refine_valid"]}


_GENERATORS = {"stream": _stream, "cli": _cli}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs into `out` and return its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    # one independent stream per workload, so workloads never share draws
    rng = np.random.default_rng([seed, list(_GENERATORS).index(workload)])
    manifest = {"workload": workload, "seed": seed,
                "why": WORKLOADS[workload], **_GENERATORS[workload](rng, out)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", choices=list(_GENERATORS))
    args = ap.parse_args()
    for name in [args.workload] if args.workload else list(_GENERATORS):
        m = generate(name, args.seed, args.out / name)
        print(f"{name}: {m['why']}")


if __name__ == "__main__":
    main()
