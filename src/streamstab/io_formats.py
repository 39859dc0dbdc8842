"""Readers and writers for the on-disk interchange formats.

Trajectories use the TUM text layout (timestamp tx ty tz qx qy qz qw, one
pose per line, scalar-last quaternion on disk). Grayscale frames are PGM
(P2/P5), depth maps are single-channel PFM, and point clouds are ASCII PLY.
All readers reject trailing garbage and fail fast on truncated payloads.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import (MissingProperty, NonMonotonicTimestamps, ParseError,
                     UnsupportedMagic)
from .frame_scoring import GrayImage
from .geometry import PointSet, Trajectory, squared
from .spatial import DepthMap

# vertex lines per np.array call: the split fields of a whole cloud would hold
# about 350 bytes per point, several times the float table they fill
_PLY_BLOCK_LINES = 4096


def format_rows(table, sep: str = " ") -> str:
    """One line per row of a 2D table, its fields as `%.17g` joined by `sep`."""
    table = np.asarray(table, dtype=float)
    row = sep.join(["%.17g"] * table.shape[1]) + "\n"
    return (row * len(table)) % tuple(table.ravel().tolist())


def _decimals(line: str) -> list[float]:
    """The fields of a text line as floats. Python's float also reads `_`
    between digits and non-ASCII digits, which no writer emits: a line that
    holds either is a ValueError."""
    if "_" in line or not line.isascii():
        raise ValueError(f"not a decimal number in {line!r}")
    return [float(f) for f in line.split()]


# -- TUM trajectories ------------------------------------------------------

def read_trajectory_tum(text: str) -> Trajectory:
    rows, linenos = [], []
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 8:
            raise ParseError(f"expected 8 fields, got {len(fields)}", line=lineno)
        try:
            row = _decimals(line)
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", line=lineno)
        if not all(map(math.isfinite, row)):
            raise ParseError("non-finite value", line=lineno)
        if rows and row[0] <= rows[-1][0]:
            raise NonMonotonicTimestamps(f"timestamp {row[0]} does not "
                                         f"increase past {rows[-1][0]}",
                                         line=lineno)
        rows.append(row)
        linenos.append(lineno)
    table = np.array(rows).reshape(-1, 8)
    q = table[:, [7, 4, 5, 6]]
    # Quaternion.norm's sum in its order, so that q / norm matches
    # quat_normalize bit for bit; a norm past 1.8e308 is an error below
    with np.errstate(over="ignore"):
        norm = np.sqrt(sum(map(squared, q.T)))
    bad = np.flatnonzero((norm < 1e-12) | (norm == np.inf))
    if bad.size:
        i = bad[0]
        raise ParseError("quaternion norm overflows" if norm[i] == np.inf else
                         "cannot normalize a zero quaternion", line=linenos[i])
    return Trajectory.from_arrays(table[:, 1:4], q / norm[:, None], table[:, 0])


def write_trajectory_tum(traj: Trajectory) -> str:
    table = np.column_stack([traj.ts, traj.t, traj.q[:, [1, 2, 3, 0]]])
    return "# timestamp tx ty tz qx qy qz qw\n" + format_rows(table)


# -- PGM grayscale images --------------------------------------------------

# the two magic bytes, then three header tokens, each after any whitespace
# and `#` comments (to the end of the line), then one optional whitespace
# byte; the lookaheads stop a match from ending a comment or token early
_PNM_HEADER = re.compile(
    rb".." + rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]\S*)(?!\S)" * 3 + rb"\s?",
    re.DOTALL)
_P2_SAMPLE = re.compile(rb"-?[0-9]+")


def _pnm_header(data: bytes) -> tuple[tuple[bytes, ...], int]:
    """The three header tokens after the magic and the payload offset."""
    match = _PNM_HEADER.match(data)
    if match is None:
        raise ParseError("truncated header")
    return match.groups(), match.end()


def _payload(data: bytes, offset: int, need: int, kind: str) -> bytes:
    """The `need` bytes at `offset`, which must end `data`."""
    if len(data) < offset + need:
        raise ParseError(f"truncated {kind} payload")
    if len(data) > offset + need:
        raise ParseError(f"trailing garbage after {kind} payload")
    return data[offset:]


def read_pgm(data: bytes) -> GrayImage:
    if len(data) < 2:
        raise ParseError("not a PGM file")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedMagic(f"unsupported magic {magic!r}")
    tokens, offset = _pnm_header(data)
    if not all(map(bytes.isdigit, tokens)):
        raise ParseError("non-integer PGM header field")
    width, height, maxval = map(int, tokens)
    if width <= 0 or height <= 0 or not 0 < maxval <= 65535:
        raise ParseError("invalid PGM dimensions or maxval")
    if magic == b"P5":
        bytes_per = 2 if maxval > 255 else 1
        payload = _payload(data, offset, width * height * bytes_per, "PGM")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        values = np.frombuffer(payload, dtype=dtype).astype(float)
    else:
        payload = data[offset:]
        if not payload.isascii():
            raise ParseError("non-ASCII byte in P2 payload")
        fields = payload.split()  # on ASCII whitespace only, as the header
        if len(fields) != width * height:
            raise ParseError(
                f"expected {width * height} samples, got {len(fields)}")
        if not all(map(_P2_SAMPLE.fullmatch, fields)):
            raise ParseError("non-integer PGM sample")
        values = np.array([int(f) for f in fields], dtype=float)
    if values.max(initial=0) > maxval:
        raise ParseError("sample exceeds maxval")
    if values.min(initial=0) < 0:
        raise ParseError("negative PGM sample")
    return GrayImage((values / maxval).reshape(height, width))


def write_pgm(img: GrayImage, maxval: int = 255) -> bytes:
    """P5 writer used by fixtures and tests."""
    dtype = ">u2" if maxval > 255 else np.uint8
    values = np.clip(np.rint(img.pixels * maxval), 0, maxval).astype(dtype)
    header = b"P5\n%d %d\n%d\n" % (*img.pixels.shape[::-1], maxval)
    return header + values.tobytes()


# -- PFM depth maps --------------------------------------------------------

def read_pfm(data: bytes) -> DepthMap:
    if data[:2] == b"PF":
        raise UnsupportedMagic("color PFM ('PF') is not supported")
    if data[:2] != b"Pf":
        raise UnsupportedMagic(f"unsupported magic {data[:2]!r}")
    tokens, offset = _pnm_header(data)
    if not (tokens[0].isdigit() and tokens[1].isdigit()):
        raise ParseError("invalid PFM header field")
    width, height = int(tokens[0]), int(tokens[1])
    try:
        scale = float(tokens[2])  # from bytes: ASCII only, but 1_0 reads 10
    except ValueError:
        raise ParseError("invalid PFM header field")
    if b"_" in tokens[2]:
        raise ParseError("invalid PFM header field")
    if width <= 0 or height <= 0 or scale == 0 or not math.isfinite(scale):
        raise ParseError("invalid PFM dimensions or scale")
    payload = _payload(data, offset, width * height * 4, "PFM")
    endian = "<" if scale < 0 else ">"
    depths = np.frombuffer(payload, dtype=endian + "f4").astype(float)
    depths = depths.reshape(height, width)[::-1]  # PFM rows are bottom-up
    valid = np.isfinite(depths) & (depths > 0)
    depths = np.where(valid, depths, 0.0)
    return DepthMap(depths, valid)


def write_pfm(depth_map: DepthMap) -> bytes:
    header = b"Pf\n%d %d\n-1.0\n" % depth_map.depths.shape[::-1]
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
    body = lines[i:]
    n_rows = sum(1 for line in body if line.strip())
    if n_rows != n_vertices:
        raise ParseError(f"expected {n_vertices} vertex lines, got {n_rows}")
    width = len(properties)
    # `_` belongs in no vertex field; one count over the text finds it in the
    # body without a copy of it
    if text.count("_") > sum(line.count("_") for line in lines[:i]):
        raise _vertex_line_error(lines, i, width)
    table = np.empty((n_vertices, width))
    filled = 0
    for start in range(0, len(body), _PLY_BLOCK_LINES):
        rows = [fields for fields in
                map(str.split, body[start:start + _PLY_BLOCK_LINES]) if fields]
        try:
            table[filled:filled + len(rows)] = np.array(
                rows, dtype=float).reshape(len(rows), width)
        except ValueError:  # a ragged, short or non-numeric row
            raise _vertex_line_error(lines, i, width)
        filled += len(rows)
    if not np.isfinite(table).all():
        raise _vertex_line_error(lines, i, width)
    cols = {name: table[:, j] for j, name in enumerate(properties)}
    points = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    conf = cols.get("confidence")
    return PointSet(points, conf)


def _vertex_line_error(lines: list[str], start: int, width: int) -> ParseError:
    """The error naming the first bad vertex line at or after lines[start]."""
    for lineno, line in enumerate(lines[start:], start=start + 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != width:
            return ParseError("wrong number of vertex fields", line=lineno)
        try:
            values = _decimals(line)
        except ValueError:
            return ParseError("non-numeric vertex field", line=lineno)
        if not all(map(math.isfinite, values)):
            return ParseError("non-finite vertex value", line=lineno)
    return ParseError("malformed vertex data")


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
    return ("\n".join(header) + "\n" + format_rows(table)).encode("ascii")
