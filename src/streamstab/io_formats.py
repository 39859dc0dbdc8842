"""Readers and writers for the on-disk interchange formats.

Trajectories use the TUM text layout (timestamp tx ty tz qx qy qz qw, one
pose per line, scalar-last quaternion on disk). Grayscale frames are PGM
(P2/P5), depth maps are single-channel PFM, and point clouds are ASCII PLY.
All readers reject trailing garbage and fail fast on truncated payloads.
"""

from __future__ import annotations

import functools
import io
import math
import re
from itertools import islice

import numpy as np

from .errors import (InvalidValue, MissingProperty, NonMonotonicTimestamps,
                     ParseError, UnsupportedMagic)
from .geometry import DepthMap, GrayImage, PointSet, Trajectory, _halves

# lines per np.array call in the TUM and PLY readers, and vertex lines per
# format_rows call in the PLY writer: a whole cloud's split fields would take
# about 350 bytes a point, and its formatted fields a Python float each,
# several times the float table; so each side holds only the table, one
# block and the payload
_PLY_BLOCK_LINES = 4096

# a table of fewer values is one `%.17g` template (a CSV row); a larger one is
# formatted from exact integer digits, _FORMAT_STEP_ROWS rows at a time, so
# that its temporaries stay small beside the text
_FORMAT_MIN_VALUES = 256
_FORMAT_STEP_ROWS = 1024

# 10^p, exact as a double for p <= 22, and its halves by Veltkamp's split;
# 10^p as an int64 for p <= 18
_POW10 = np.array([float(10 ** p) for p in range(22)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)


def format_rows(table, sep: str = " ") -> str:
    """One line per row of a 2D table, its fields as `%.17g` joined by `sep`."""
    table = np.asarray(table, dtype=float)
    if table.size < _FORMAT_MIN_VALUES:
        row = sep.join(["%.17g"] * table.shape[1]) + "\n"
        return (row * len(table)) % tuple(table.ravel().tolist())
    templates = _templates(sep)
    return "".join(_format_step(table[i:i + _FORMAT_STEP_ROWS], templates)
                   for i in range(0, len(table), _FORMAT_STEP_ROWS))


@functools.cache
def _templates(sep: str) -> np.ndarray:
    """The `%` template of each kind of field, ended by `sep` or, at the end
    of a row, by `\n`: one per sign, integer part (a digit, or `%d` for
    more) and width of the fraction (0 for none), then `%.17g`'s own."""
    bodies = [sign + lead + (f".%0{width}d" if width else "")
              for sign in ("", "-") for lead in [*"0123456789", "%d"]
              for width in range(21)] + ["%.17g"]
    return np.array([body + end for body in bodies for end in (sep, "\n")],
                    dtype=object)


def _digits(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a · 10^(16 − k) rounded half to even, as an exact int64, for
    1e-5 <= a < 1e17 and -5 <= k <= 16. 10^(16 − k) is an exact double, and
    the product is hi + lo exactly (T. J. Dekker, Numer. Math. 18, 1971);
    where the result has 17 digits, hi is past 2^53 and so an even integer."""
    p = 16 - k
    hi = a * _POW10[p]
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    lo = (((a_hi * _POW10_HI[p] - hi) + a_hi * _POW10_LO[p])
          + a_lo * _POW10_HI[p]) + a_lo * _POW10_LO[p]
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _format_step(table: np.ndarray, templates: np.ndarray) -> str:
    """The rows of `table`, each field as `%.17g` gives it. A field
    1e-5 <= |x| < 1e17 has 17 significant digits D·10^(k − 16), with D an
    exact int64 of 17 digits; where `%.17g` writes it without an exponent
    (k >= -4), `%` formats only D's integer part and its fraction, stripped
    of trailing zeros, in a template of that fraction's width. Every other
    field (0, subnormal, NaN, inf, exponent form) keeps `%.17g`."""
    x = table.ravel()
    a = np.abs(x)
    fast = (a >= 1e-5) & (a < 1e17)
    a[~fast] = 1.0
    # k from log10, then made exact by D's range: 10^16 <= D < 10^17
    k = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.int64)
    d = _digits(a, k)
    off = (d >= _POW10_INT[17]).astype(np.int64) - (d < _POW10_INT[16])
    fix = np.flatnonzero(off)
    k[fix] += off[fix]
    d[fix] = _digits(a[fix], k[fix])
    fast &= k >= -4
    # 16 − k fraction digits; D is below 10^17, so 10^18 divides as 10^20
    width = 16 - k
    lead, frac = np.divmod(d, _POW10_INT[np.minimum(width, 18)])
    # the trailing zeros (at most 19) of the fractions that end in one
    ends = np.flatnonzero(frac // 10 * 10 == frac)
    part, part_width = frac[ends], width[ends]
    for strip in (16, 8, 4, 2, 1):
        quotient = part // _POW10_INT[strip]
        zeros = quotient * _POW10_INT[strip] == part
        part[zeros] = quotient[zeros]
        part_width[zeros] -= strip
    frac[ends], width[ends] = part, np.maximum(part_width, 0)
    code = ((np.signbit(x) * 11 + np.minimum(lead, 10)) * 21 + width) * 2
    code[~fast] = len(templates) - 2
    code.reshape(table.shape)[:, -1] += 1
    # each field's arguments: a lead of more than one digit, the fraction,
    # or the float itself where the template is `%.17g`
    slots = np.flatnonzero(np.column_stack([(lead >= 10) | ~fast,
                                            fast & (width > 0)]))
    args = np.column_stack([lead, frac]).take(slots).tolist()
    slow = np.flatnonzero(~fast)
    for i, value in zip(np.searchsorted(slots, 2 * slow).tolist(),
                        x[slow].tolist()):
        args[i] = value
    return "".join(templates[code].tolist()) % tuple(args)


def _lf(data: bytes) -> bytes:
    """`data` with every line ended by `\n`: lines end at `\n`, `\r\n` or `\r`
    only (str.splitlines also ends lines at `\x0b`, `\x0c` and `\x1c`-`\x1e`).
    A payload with no `\r` is returned as it is, not copied."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _decimals(fields: list[bytes]) -> list[float]:
    """Fields split by bytes.split (on ASCII whitespace only) as floats. A
    field with `_`, which float reads between digits and no writer emits, or
    with a non-ASCII byte is a ValueError."""
    if b"_" in b"".join(fields):
        raise ValueError("not a decimal number")
    return [float(f) for f in fields]


def _integer(token: bytes, message: str, line: int | None = None) -> int:
    """`token`, ASCII digits, as an int; else ParseError(message, line)."""
    try:
        if token.isdigit():  # ASCII only; int() also reads `+3` and `1_0`
            return int(token)
    except ValueError:  # more digits than int() reads
        pass
    raise ParseError(message, line=line)


def _decimal_table(table: np.ndarray, lines):
    """Fill `table` with the rows of `lines`, an iterator of byte lines:
    its non-blank lines, each to be as many finite decimal fields
    (`_decimals`) as the table has columns. `_PLY_BLOCK_LINES` lines go to
    each np.array call, and only a block that fails is read again one row at
    a time. Returns None when the rows fill the table; else the index of the
    first row that is bad, missing or past the table's end, with every row
    before it in the table, and that row's floats (None when a field is not
    a number)."""
    filled = 0
    while block := list(islice(lines, _PLY_BLOCK_LINES)):
        rows = [fields for fields in map(bytes.split, block) if fields]
        part = table[filled:filled + len(rows)]
        try:  # np.array reads `1_0` as 10, as float does
            if len(part) < len(rows) or b"_" in b"".join(block):
                raise ValueError
            part[:] = np.array(rows, dtype=float).reshape(part.shape)
        except ValueError:  # a ragged, short, extra or non-numeric row
            part = None
        if part is None or not np.isfinite(part).all():
            for i, fields in enumerate(rows, start=filled):
                try:
                    values = _decimals(fields)
                except ValueError:
                    return i, None
                if (i == len(table) or len(values) != table.shape[1]
                        or not all(map(math.isfinite, values))):
                    return i, values
                table[i] = values
        filled += len(rows)
    return None if filled == len(table) else (filled, None)


def _line_of(lines, row: int, lineno: int = 1) -> tuple[int, bytes]:
    """The number and the text of the line of `lines` (the first of them
    line `lineno`) that holds row `row`, its row-th non-blank line: a
    rescan, made only for an error message."""
    rows = ((i, line) for i, line in enumerate(lines, start=lineno)
            if line.split())
    return next(islice(rows, row, None))


# -- TUM trajectories ------------------------------------------------------

def read_trajectory_tum(text: str) -> Trajectory:
    # stripped lines, `#` comments blanked: the rows are the non-blank lines
    lines = [b"" if line[:1] == b"#" else line for line in map(
        bytes.strip, _lf(text.encode("utf-8", "surrogatepass")).split(b"\n"))]
    table = np.empty((len(lines) - lines.count(b""), 8))
    bad = _decimal_table(table, iter(lines))
    ts = table[:len(table) if bad is None else bad[0], 0]
    # the rows before a bad one are checked first, as a line-by-line read does
    late = np.flatnonzero(ts[1:] <= ts[:-1])
    if late.size:
        i = late[0] + 1
        raise NonMonotonicTimestamps(f"timestamp {ts[i]} does not increase "
                                     f"past {ts[i - 1]}",
                                     line=_line_of(lines, i)[0])
    if bad is not None:
        lineno, line = _line_of(lines, bad[0])
        raise ParseError(
            f"non-numeric field in {line.decode('utf-8', 'surrogatepass')!r}"
            if bad[1] is None else f"expected 8 fields, got {len(bad[1])}"
            if len(bad[1]) != 8 else "non-finite value", line=lineno)
    q = table[:, [7, 4, 5, 6]]
    # Quaternion.norm's sum in its order, so that q / norm matches
    # quat_normalize bit for bit; a norm past 1.8e308 is an error below
    with np.errstate(over="ignore"):
        norm = np.sqrt(sum(map(np.square, q.T)))
    bad = np.flatnonzero((norm < 1e-12) | (norm == np.inf))
    if bad.size:
        i = bad[0]
        raise ParseError("quaternion norm overflows" if norm[i] == np.inf else
                         "cannot normalize a zero quaternion",
                         line=_line_of(lines, i)[0])
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
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedMagic(f"unsupported magic {magic!r}")
    tokens, offset = _pnm_header(data)
    width, height, maxval = (_integer(t, "non-integer PGM header field")
                             for t in tokens)
    if width <= 0 or height <= 0 or not 0 < maxval <= 65535:
        raise ParseError("invalid PGM dimensions or maxval")
    if magic == b"P5":
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        payload = _payload(data, offset, width * height * dtype.itemsize, "PGM")
        values = np.frombuffer(payload, dtype=dtype)
    else:
        payload = data[offset:]
        if not payload.isascii():
            raise ParseError("non-ASCII byte in P2 payload")
        fields = payload.split()  # on ASCII whitespace only, as the header
        if len(fields) != width * height:
            raise ParseError(
                f"expected {width * height} samples, got {len(fields)}")
        # `-0` is 0; other negatives, and ints past float's range, fail below
        sample = "non-integer PGM sample"
        values = np.array([-_integer(f[1:], sample) if f[:1] == b"-"
                           else _integer(f, sample) for f in fields])
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
    width, height = (_integer(t, "invalid PFM header field")
                     for t in tokens[:2])
    try:
        scale = _decimals(tokens[2:])[0]
    except ValueError:
        raise ParseError("invalid PFM header field")
    if width <= 0 or height <= 0 or scale == 0 or not math.isfinite(scale):
        raise ParseError("invalid PFM dimensions or scale")
    payload = _payload(data, offset, width * height * 4, "PFM")
    endian = "<" if scale < 0 else ">"
    raw = np.frombuffer(payload, dtype=endian + "f4").reshape(height, width)
    raw = raw[::-1]  # PFM rows are bottom-up
    # cast, tested and zeroed by row halves, into arrays the caller allocates
    depths = np.empty((height, width))
    valid = np.empty((height, width), dtype=bool)
    invalid = np.empty_like(valid)

    def rows(r0, r1):
        d, ok, bad = depths[r0:r1], valid[r0:r1], invalid[r0:r1]
        np.copyto(d, raw[r0:r1])
        np.less(d, math.inf, out=bad)  # finite and > 0: NaN fails both
        np.greater(d, 0.0, out=ok)
        np.logical_and(ok, bad, out=ok)
        np.logical_not(ok, out=bad)
        np.copyto(d, 0.0, where=bad)

    _halves(rows, height, height)
    return DepthMap(depths, valid)


def write_pfm(depth_map: DepthMap) -> bytes:
    header = b"Pf\n%d %d\n-1.0\n" % depth_map.depths.shape[::-1]
    depths = np.where(depth_map.valid, depth_map.depths, 0.0)
    with np.errstate(over="ignore"):  # checked below, as a non-finite value
        depths = depths[::-1].astype("<f4")
    kept = np.isfinite(depths) & (depths > 0)
    if not kept[depth_map.valid[::-1]].all():
        raise InvalidValue("a valid depth is not a finite positive float32")
    return header + depths.tobytes()


# -- ASCII PLY point clouds ------------------------------------------------

def read_ply_ascii(data: bytes) -> PointSet:
    if not data.isascii():
        raise ParseError("PLY payload is not ASCII")
    data = _lf(data)
    stream = io.BytesIO(data)
    if stream.readline().strip() != b"ply":
        raise UnsupportedMagic("missing 'ply' magic")
    n_vertices = None
    properties = []
    in_vertex_element = False
    for i, line in enumerate(stream, start=2):
        fields = line.split()
        if not fields or fields[0] == b"comment":
            continue
        if fields[0] == b"format":
            if len(fields) < 2:
                raise ParseError("format line names no format", line=i)
            if fields[1] != b"ascii":
                raise UnsupportedMagic("only ascii PLY is supported")
        elif fields[0] == b"element":
            in_vertex_element = fields[1:2] == [b"vertex"]
            if in_vertex_element:
                n_vertices = _integer(fields[2] if len(fields) > 2 else b"",
                                      "element vertex needs an integer count",
                                      line=i)
        elif fields[0] == b"property" and in_vertex_element:
            properties.append(fields[-1].decode())
        elif fields[0] == b"end_header":
            break
    else:
        raise ParseError("missing end_header")
    if n_vertices is None:
        raise ParseError("missing vertex element")
    for name in ("x", "y", "z"):
        if name not in properties:
            raise MissingProperty(f"vertex property {name!r} missing")
    start, width = stream.tell(), len(properties)
    # make no table that the lines cannot fill
    table = (np.empty((n_vertices, width))
             if n_vertices <= data.count(b"\n", start) + 1 else None)
    bad = (0, None) if table is None else _decimal_table(table, stream)
    if bad is not None:  # a count that is not n_vertices, then the bad line
        stream.seek(start)
        n_rows = sum(1 for line in stream if line.split())
        if n_rows != n_vertices:
            raise ParseError(f"expected {n_vertices} vertex lines, got {n_rows}")
        stream.seek(start)
        lineno, line = _line_of(stream, bad[0], i + 1)
        raise ParseError("wrong number of vertex fields"
                         if len(line.split()) != width else
                         "non-numeric vertex field" if bad[1] is None else
                         "non-finite vertex value", line=lineno)
    cols = {name: j for j, name in enumerate(properties)}
    x, y, z = cols["x"], cols["y"], cols["z"]
    # adjacent x y z columns are a view of the table, not a copy of them
    points = (table[:, x:x + 3] if (y, z) == (x + 1, x + 2)
              else table[:, [x, y, z]])
    conf = cols.get("confidence")
    return PointSet(points, None if conf is None else table[:, conf])


def write_ply_ascii(cloud: PointSet) -> bytes:
    conf = cloud.confidences
    header = ["ply", "format ascii 1.0",
              f"element vertex {len(cloud)}",
              "property double x", "property double y", "property double z"]
    if conf is not None:
        header.append("property double confidence")
    header.append("end_header")
    # each block goes into the buffer as soon as it is formatted, and
    # getvalue() hands that buffer over: no list of the encoded blocks and
    # no joined copy of them
    out = io.BytesIO()
    out.write(("\n".join(header) + "\n").encode("ascii"))
    for start in range(0, len(cloud), _PLY_BLOCK_LINES):
        block = cloud.points[start:start + _PLY_BLOCK_LINES]
        if conf is not None:
            block = np.column_stack([block,
                                     conf[start:start + _PLY_BLOCK_LINES]])
        out.write(format_rows(block).encode("ascii"))
    return out.getvalue()
