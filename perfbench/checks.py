"""Output checks for the CLI jobs.

Each check returns a list of problems; an empty list means the output is
correct. A job run with any problem counts as one failed operation.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
# values at round-off scale (recall of an exactly stored pair is ~1e-17)
# can only agree absolutely
ABS_TOL = 1e-12


def _nonneg(v):
    return v >= 0.0


def _unit(v):
    return 0.0 <= v <= 1.0


def _percent(v):
    return 0.0 <= v <= 100.0


def _any(v):
    return True


# job -> (header, {column: range rule}); columns not listed must be finite
CSV = {
    "eval-traj": ("frames,ate,rpe_trans,rpe_rot",
                  {"ate": _nonneg, "rpe_trans": _nonneg, "rpe_rot": _nonneg}),
    "eval-loss": ("ate,rpe,acc,pose,conf,rgb,total",
                  {c: _nonneg for c in ("ate", "rpe", "acc", "pose", "total")}),
    "eval-depth": ("abs_rel,delta_125", {"abs_rel": _nonneg, "delta_125": _percent}),
    "eval-recon": ("acc,comp,nc", {"acc": _nonneg, "comp": _nonneg, "nc": _unit}),
    "score": ("index,delta_x,delta_q,s1,R,s2,weight",
              {"delta_x": _nonneg, "delta_q": _nonneg, "s1": _nonneg,
               "R": _unit, "s2": _unit, "weight": _unit}),
    "stabilize": ("", {}),
    "refine": ("", {}),
    "simulate": ("step,beta,recall_first,recall_latest",
                 {"beta": _unit, "recall_first": _nonneg,
                  "recall_latest": _nonneg}),
}


def parse_csv(text: str) -> tuple[str, list[list[float]]]:
    lines = text.splitlines()
    if not lines:
        return "", []
    return lines[0], [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def check_csv(job: str, text: str, manifest: dict) -> list[str]:
    header, rules = CSV[job]
    try:
        got_header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"{job}: unparsable CSV ({exc})"]
    problems = []
    if got_header != header:
        return [f"{job}: header {got_header!r}, expected {header!r}"]
    if len(rows) != manifest["rows"][job]:
        problems.append(f"{job}: {len(rows)} rows, expected "
                        f"{manifest['rows'][job]}")
    columns = header.split(",") if header else []
    for r, row in enumerate(rows):
        if len(row) != len(columns):
            problems.append(f"{job}: row {r} has {len(row)} fields")
            continue
        for col, v in zip(columns, row):
            if not math.isfinite(v):
                problems.append(f"{job}: row {r} {col}={v} not finite")
            elif not rules.get(col, _any)(v):
                problems.append(f"{job}: row {r} {col}={v} out of range")
        if columns[0] in ("index", "step") and row[0] != r:
            problems.append(f"{job}: row {r} numbered {row[0]}")
    if job == "eval-traj" and rows and rows[0][0] != manifest["poses"]:
        problems.append(f"eval-traj: {rows[0][0]} frames, expected "
                        f"{manifest['poses']}")
    return problems


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_reference(job: str, rows, reference) -> list[str]:
    """Every value against the stored reference for the default seed."""
    if reference is None:
        return []
    if len(rows) != len(reference):
        return [f"{job}: {len(rows)} rows, reference has {len(reference)}"]
    for r, (row, ref) in enumerate(zip(rows, reference)):
        if len(row) != len(ref):
            return [f"{job}: row {r} has {len(row)} fields, reference {len(ref)}"]
        for c, (a, b) in enumerate(zip(row, ref)):
            if not close(a, b):
                return [f"{job}: row {r} field {c} = {a!r}, reference {b!r}"]
    return []


def check_output_file(job: str, data: bytes, manifest: dict, io_formats) -> list[str]:
    """Written files parse back through the program's own readers."""
    try:
        if job == "stabilize":
            n = len(io_formats.read_trajectory_tum(data.decode("ascii")))
            want = manifest["poses"]
            return [] if n == want else [f"stabilize: {n} poses, expected {want}"]
        if job == "refine":
            cloud = io_formats.read_ply_ascii(data)
            want = manifest["refine_valid"]
            problems = [] if len(cloud) == want else [
                f"refine: {len(cloud)} points for {want} valid pixels"]
            z = cloud.points[:, 2]
            if not ((z > 0) & (z < float("inf"))).all():
                problems.append("refine: a point has non-positive or "
                                "non-finite depth")
            return problems
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"{job}: output does not parse back ({exc})"]
    return []
