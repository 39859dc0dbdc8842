"""Readers and writers for the on-disk interchange formats.

Trajectories use the TUM text layout (timestamp tx ty tz qx qy qz qw, one
pose per line, scalar-last quaternion on disk). Grayscale frames are PGM
(P2/P5), depth maps are single-channel PFM, and point clouds are ASCII PLY.
All readers reject trailing garbage and fail fast on truncated payloads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (MissingProperty, NonMonotonicTimestamps, ParseError,
                     UnsupportedMagic)
from .frame_scoring import GrayImage
from .geometry import PointSet, Pose, Quaternion, Trajectory, quat_normalize
from .spatial import DepthMap

_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FMT % x


# -- TUM trajectories ------------------------------------------------------

def read_trajectory_tum(text: str) -> Trajectory:
    poses = []
    last_ts = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 8:
            raise ParseError(f"expected 8 fields, got {len(fields)}", line=lineno)
        try:
            ts, tx, ty, tz, qx, qy, qz, qw = (float(f) for f in fields)
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", line=lineno)
        if not all(math.isfinite(v) for v in (ts, tx, ty, tz, qx, qy, qz, qw)):
            raise ParseError("non-finite value", line=lineno)
        if last_ts is not None and ts <= last_ts:
            raise NonMonotonicTimestamps(
                f"timestamp {ts} does not increase past {last_ts}", line=lineno)
        last_ts = ts
        q = quat_normalize(Quaternion(qw, qx, qy, qz))
        poses.append(Pose(np.array([tx, ty, tz]), q, ts))
    return Trajectory(poses)


def write_trajectory_tum(traj: Trajectory) -> str:
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for p in traj:
        lines.append(" ".join(_fmt(v) for v in (
            p.timestamp, p.t[0], p.t[1], p.t[2],
            p.q.x, p.q.y, p.q.z, p.q.w)))
    return "\n".join(lines) + "\n"


# -- PGM grayscale images --------------------------------------------------

def _pnm_header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace/comment-separated header tokens; return them
    and the offset one byte past the final token's trailing whitespace."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise ParseError("truncated header")
        c = data[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < len(data) and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    # single whitespace byte after the last header token
    if i < len(data) and data[i:i + 1].isspace():
        i += 1
    return tokens, i


def read_pgm(data: bytes) -> GrayImage:
    if len(data) < 2:
        raise ParseError("not a PGM file")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedMagic(f"unsupported magic {magic!r}")
    tokens, offset = _pnm_header_tokens(data[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ParseError("non-integer PGM header field")
    if width <= 0 or height <= 0 or not 0 < maxval <= 65535:
        raise ParseError("invalid PGM dimensions or maxval")
    offset += 2
    if magic == b"P5":
        bytes_per = 2 if maxval > 255 else 1
        need = width * height * bytes_per
        payload = data[offset:offset + need]
        if len(payload) < need:
            raise ParseError("truncated PGM payload")
        if len(data) > offset + need:
            raise ParseError("trailing garbage after PGM payload")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        values = np.frombuffer(payload, dtype=dtype).astype(float)
    else:
        text = data[offset:].decode("ascii", errors="strict")
        fields = text.split()
        if len(fields) != width * height:
            raise ParseError(
                f"expected {width * height} samples, got {len(fields)}")
        try:
            values = np.array([int(f) for f in fields], dtype=float)
        except ValueError:
            raise ParseError("non-integer PGM sample")
    if values.max(initial=0) > maxval:
        raise ParseError("sample exceeds maxval")
    return GrayImage((values / maxval).reshape(height, width))


def write_pgm(img: GrayImage, maxval: int = 255) -> bytes:
    """P5 writer used by fixtures and tests."""
    dtype = ">u2" if maxval > 255 else np.uint8
    values = np.clip(np.rint(img.pixels * maxval), 0, maxval).astype(dtype)
    header = f"P5\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    return header + values.tobytes()


# -- PFM depth maps --------------------------------------------------------

def read_pfm(data: bytes) -> DepthMap:
    tokens, offset = _pnm_header_tokens(data[2:], 3) if data[:2] == b"Pf" else (None, 0)
    if data[:2] == b"PF":
        raise UnsupportedMagic("color PFM ('PF') is not supported")
    if tokens is None:
        raise UnsupportedMagic(f"unsupported magic {data[:2]!r}")
    try:
        width, height = int(tokens[0]), int(tokens[1])
        scale = float(tokens[2])
    except ValueError:
        raise ParseError("invalid PFM header field")
    if width <= 0 or height <= 0 or scale == 0:
        raise ParseError("invalid PFM dimensions or scale")
    offset += 2
    need = width * height * 4
    payload = data[offset:offset + need]
    if len(payload) < need:
        raise ParseError("truncated PFM payload")
    if len(data) > offset + need:
        raise ParseError("trailing garbage after PFM payload")
    endian = "<" if scale < 0 else ">"
    depths = np.frombuffer(payload, dtype=endian + "f4").astype(float)
    depths = depths.reshape(height, width)[::-1]  # PFM rows are bottom-up
    valid = np.isfinite(depths) & (depths > 0)
    depths = np.where(valid, depths, 0.0)
    return DepthMap(depths, valid)


def write_pfm(depth_map: DepthMap) -> bytes:
    header = f"Pf\n{depth_map.width} {depth_map.height}\n-1.0\n".encode("ascii")
    depths = np.where(depth_map.valid, depth_map.depths, 0.0)
    payload = depths[::-1].astype("<f4").tobytes()
    return header + payload


# -- ASCII PLY point clouds ------------------------------------------------

def read_ply_ascii(data: bytes) -> PointSet:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise ParseError("PLY payload is not ASCII")
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise UnsupportedMagic("missing 'ply' magic")
    n_vertices = None
    properties = []
    i = 1
    in_vertex_element = False
    while i < len(lines):
        fields = lines[i].split()
        i += 1
        if not fields or fields[0] == "comment":
            continue
        if fields[0] == "format":
            if len(fields) < 2:
                raise ParseError("format line names no format", line=i)
            if fields[1] != "ascii":
                raise UnsupportedMagic("only ascii PLY is supported")
        elif fields[0] == "element":
            in_vertex_element = fields[1:2] == ["vertex"]
            if in_vertex_element:
                try:
                    n_vertices = int(fields[2])
                except (IndexError, ValueError):
                    raise ParseError("element vertex needs an integer count",
                                     line=i)
        elif fields[0] == "property" and in_vertex_element:
            properties.append(fields[-1])
        elif fields[0] == "end_header":
            break
    else:
        raise ParseError("missing end_header")
    if n_vertices is None:
        raise ParseError("missing vertex element")
    for name in ("x", "y", "z"):
        if name not in properties:
            raise MissingProperty(f"vertex property {name!r} missing")
    body = [ln for ln in lines[i:] if ln.strip()]
    if len(body) != n_vertices:
        raise ParseError(
            f"expected {n_vertices} vertex lines, got {len(body)}")
    rows = []
    for lineno, line in enumerate(body, start=i + 1):
        fields = line.split()
        if len(fields) != len(properties):
            raise ParseError("wrong number of vertex fields", line=lineno)
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise ParseError("non-numeric vertex field", line=lineno)
    table = np.array(rows, dtype=float).reshape(len(body), len(properties))
    cols = {name: table[:, j] for j, name in enumerate(properties)}
    points = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    conf = cols.get("confidence")
    return PointSet(points, conf)


def write_ply_ascii(cloud: PointSet) -> bytes:
    has_conf = cloud.confidences is not None
    header = ["ply", "format ascii 1.0",
              f"element vertex {len(cloud)}",
              "property float x", "property float y", "property float z"]
    if has_conf:
        header.append("property float confidence")
    header.append("end_header")
    table = cloud.points
    if has_conf:
        table = np.column_stack([table, cloud.confidences])
    row = " ".join([_FMT] * table.shape[1])
    body = "".join([row + "\n"] * len(table)) % tuple(table.ravel().tolist())
    return ("\n".join(header) + "\n" + body).encode("ascii")
