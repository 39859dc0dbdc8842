"""Command-line interface.

Deterministic, scriptable subcommands: CSV goes to stdout, diagnostics to
stderr. Exit codes: 0 success, 2 usage or parse error, 3 numerical
precondition failure. An optional flat key=value config file supplies
defaults; explicit flags override it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import CountMismatch, ParseError, ToolkitError
from .frame_scoring import ScoreConfig, score_terms
from .io_formats import (_fmt, read_pfm, read_pgm, read_ply_ascii,
                         read_trajectory_tum, write_pfm, write_ply_ascii,
                         write_trajectory_tum)
from .losses import (LossWeights, loss_acc, loss_ate, loss_pose, loss_rpe,
                     loss_total)
from .metrics import (DepthEvalMode, metric_ate, metric_depth, metric_recon,
                      metric_rpe)
from .simulate import simulate_stream
from .spatial import BilateralConfig, Intrinsics, bilateral_depth, depth_to_points
from .stabilization import OneEuroConfig, stabilize_trajectory

# real defaults live here; parser defaults are None so that config-file
# values can slot in underneath explicitly given flags
_DEFAULTS = {
    "score": {"w1": 1.0, "w2": 1.0, "radius": None, "epsilon": 1e-8,
              "clip_max": 1.0, "initial_weight": 1.0},
    "stabilize": {"fmin": 1.0, "beta_gain": 0.007},
    "refine": {"window": 2, "sigma_s": 2.0, "sigma_r": None,
               "fx": None, "fy": None, "cx": None, "cy": None},
    "eval-traj": {"prefix_frames": None, "align": "se3"},
    "eval-depth": {"mode": "original"},
    "eval-recon": {"k_normals": 16},
    "eval-loss": {"wa": 1.0, "wr": 1.0, "ws": 1.0, "lambda1": 1.0,
                  "lambda2": 1.0, "lambda3": 1.0, "conf_loss": 0.0,
                  "rgb_loss": 0.0},
    "simulate": {"frames": 100, "state_dim": 64, "seed": 0,
                 "policy": "adaptive"},
}


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options from the config file, then from defaults.

    A config value is converted and checked with the type and choices of the
    flag that has the same dest; a bad value is a ParseError with its line.
    """
    defaults = dict(_DEFAULTS[args.command])
    flags = {action.dest: action for action in args.parser._actions}
    config_path = getattr(args, "config", None)
    if config_path:
        for lineno, line in enumerate(
                Path(config_path).read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError("config line is not key=value", line=lineno)
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in defaults:
                raise ParseError(
                    f"unknown config key {key!r} for {args.command}",
                    line=lineno)
            flag = flags[key]
            value = value.strip()
            try:
                value = flag.type(value) if flag.type else value
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ParseError(f"invalid value for {key}: {exc}",
                                 line=lineno)
            if flag.choices is not None and value not in flag.choices:
                raise ParseError(
                    f"invalid value for {key}: {value!r} is not one of "
                    f"{', '.join(flag.choices)}", line=lineno)
            defaults[key] = value
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    return args


def _number(kind: type = float, low: float = -math.inf, above: bool = False):
    """argparse type: a finite `kind` no smaller than `low`, and greater
    than `low` if `above`."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}")
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if value < low or above and value == low:
            raise argparse.ArgumentTypeError(
                f"must be {'above' if above else 'at least'} {low}, "
                f"got {value}")
        return value
    return parse


def _policy(text: str) -> str | float:
    """argparse type: 'adaptive', or the finite beta of 'constant:<beta>'."""
    if text == "adaptive":
        return text
    if not text.startswith("constant:"):
        raise argparse.ArgumentTypeError(
            f"expected 'adaptive' or 'constant:<beta>', got {text!r}")
    return _number()(text[len("constant:"):])


def _add_command(subs, name: str, func, help: str) -> argparse.ArgumentParser:
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(func=func, parser=sub)
    sub.add_argument("--config", help="flat key=value config file; "
                                      "explicit flags take precedence")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamstab",
        description="Streaming trajectory stabilization and evaluation toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    finite, nonneg = _number(), _number(low=0)
    positive = _number(low=0, above=True)

    p = _add_command(subs, "score", _cmd_score,
                     "per-frame adaptive update weights")
    p.add_argument("--traj", required=True, help="TUM trajectory file")
    p.add_argument("--frames", required=True,
                   help="directory of PGM frames in lexicographic order")
    p.add_argument("--w1", type=nonneg, help="translation weight (default 1.0)")
    p.add_argument("--w2", type=nonneg, help="rotation weight (default 1.0)")
    p.add_argument("--radius", type=nonneg,
                   help="high-pass radius in pixels (default min(H,W)//8)")
    p.add_argument("--epsilon", type=positive,
                   help="ratio denominator epsilon (default 1e-8)")
    p.add_argument("--clip-max", type=nonneg, dest="clip_max",
                   help="weight clip (default 1.0)")
    p.add_argument("--initial-weight", type=nonneg, dest="initial_weight",
                   help="weight of the first frame (default 1.0)")

    p = _add_command(subs, "stabilize", _cmd_stabilize,
                     "smooth a trajectory online")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--fmin", type=positive,
                   help="minimum cutoff frequency in Hz (default 1.0)")
    p.add_argument("--beta-gain", type=nonneg, dest="beta_gain",
                   help="cutoff gain per unit speed (default 0.007)")

    p = _add_command(subs, "refine", _cmd_refine, "bilateral depth refinement")
    p.add_argument("--in", dest="infile", required=True, help="input PFM")
    p.add_argument("--out", dest="outfile", required=True,
                   help="output .pfm or .ply")
    p.add_argument("--window", type=_number(int, 0),
                   help="window half-width (default 2)")
    p.add_argument("--sigma-s", type=positive,
                   help="spatial sigma in pixels (default 2.0)")
    p.add_argument("--sigma-r", type=positive,
                   help="range sigma in depth units "
                        "(default 0.05 x median valid depth)")
    p.add_argument("--fx", type=positive,
                   help="focal length x (PLY output)")
    p.add_argument("--fy", type=positive,
                   help="focal length y (PLY output)")
    p.add_argument("--cx", type=finite, help="principal point x (PLY output)")
    p.add_argument("--cy", type=finite, help="principal point y (PLY output)")

    p = _add_command(subs, "eval-traj", _cmd_eval_traj,
                     "ATE / RPE trajectory metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--prefix-frames", type=_number(int, 1),
                   dest="prefix_frames",
                   help="evaluate only the first k frames")
    p.add_argument("--align", choices=["se3", "sim3"],
                   help="ATE alignment class (default se3)")

    p = _add_command(subs, "eval-depth", _cmd_eval_depth, "depth metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mode", choices=["original", "scale", "scale_and_shift"],
                   help="alignment mode (default original)")

    p = _add_command(subs, "eval-recon", _cmd_eval_recon,
                     "point-cloud reconstruction metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--k-normals", type=_number(int, 1), dest="k_normals",
                   help="neighbors for normal estimation (default 16)")

    p = _add_command(subs, "eval-loss", _cmd_eval_loss,
                     "trajectory loss components")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    for flag, what in [("--wa", "ATE term weight"), ("--wr", "RPE term weight"),
                       ("--ws", "acceleration term weight"),
                       ("--lambda1", "confidence loss weight"),
                       ("--lambda2", "RGB loss weight"),
                       ("--lambda3", "pose loss weight"),
                       ("--conf-loss", "precomputed confidence loss value"),
                       ("--rgb-loss", "precomputed RGB loss value")]:
        default = _DEFAULTS["eval-loss"][flag[2:].replace("-", "_")]
        p.add_argument(flag, type=finite, help=f"{what} (default {default})")

    p = _add_command(subs, "simulate", _cmd_simulate,
                     "synthetic memory-state stream")
    p.add_argument("--frames", type=_number(int, 1),
                   help="steps to run (default 100)")
    p.add_argument("--state-dim", type=_number(int, 1), dest="state_dim",
                   help="state dimension (default 64)")
    p.add_argument("--seed", type=_number(int, 0), help="RNG seed (default 0)")
    p.add_argument("--policy", type=_policy,
                   help="'adaptive' or 'constant:<beta>' (default adaptive)")

    return parser


def _cmd_score(args) -> None:
    traj = read_trajectory_tum(Path(args.traj).read_text())
    frame_files = sorted(Path(args.frames).glob("*.pgm"))
    if len(frame_files) != len(traj):
        raise CountMismatch(
            f"{len(frame_files)} frames for {len(traj)} poses")
    cfg = ScoreConfig(w1=args.w1, w2=args.w2, radius=args.radius,
                      epsilon=args.epsilon, clip_max=args.clip_max,
                      initial_weight=args.initial_weight)
    print("index,delta_x,delta_q,s1,R,s2,weight")
    prev = None
    for i, (pose, path) in enumerate(zip(traj, frame_files)):
        try:
            img = read_pgm(path.read_bytes())
        except FileNotFoundError:
            raise ParseError(f"missing frame file {path}")
        terms = score_terms(prev, pose, img, cfg)
        print(",".join([str(i)] + [_fmt(v) for v in terms]))
        prev = pose


def _cmd_stabilize(args) -> None:
    traj = read_trajectory_tum(Path(args.infile).read_text())
    cfg = OneEuroConfig(f_min=args.fmin, beta_gain=args.beta_gain)
    Path(args.outfile).write_text(write_trajectory_tum(stabilize_trajectory(traj, cfg)))


def _cmd_refine(args) -> None:
    depth_map = read_pfm(Path(args.infile).read_bytes())
    cfg = BilateralConfig(window=args.window, sigma_s=args.sigma_s,
                          sigma_r=args.sigma_r)
    refined = bilateral_depth(depth_map, cfg)
    out = Path(args.outfile)
    if out.suffix.lower() == ".pfm":
        out.write_bytes(write_pfm(refined))
    elif out.suffix.lower() == ".ply":
        if None in (args.fx, args.fy, args.cx, args.cy):
            args.parser.error("PLY output requires --fx --fy --cx --cy")
        intr = Intrinsics(args.fx, args.fy, args.cx, args.cy)
        out.write_bytes(write_ply_ascii(depth_to_points(refined, intr)))
    else:
        args.parser.error(f"unsupported output extension {out.suffix!r}")


def _load_pair(args):
    pred = read_trajectory_tum(Path(args.pred).read_text())
    gt = read_trajectory_tum(Path(args.gt).read_text())
    return pred, gt


def _prefix(traj, k):
    if k is not None and k > len(traj):
        print(f"warning: --prefix-frames {k} exceeds trajectory length "
              f"{len(traj)}; clamping", file=sys.stderr)
    return traj[:k]


def _cmd_eval_traj(args) -> None:
    pred, gt = _load_pair(args)
    pred = _prefix(pred, args.prefix_frames)
    gt = _prefix(gt, args.prefix_frames)
    ate = metric_ate(pred, gt, with_scale=args.align == "sim3")
    rpe_trans, rpe_rot = metric_rpe(pred, gt)
    print("frames,ate,rpe_trans,rpe_rot")
    print(",".join([str(len(pred))] + [_fmt(v) for v in (ate, rpe_trans, rpe_rot)]))


def _cmd_eval_depth(args) -> None:
    pred = read_pfm(Path(args.pred).read_bytes())
    gt = read_pfm(Path(args.gt).read_bytes())
    abs_rel, delta = metric_depth(pred, gt, DepthEvalMode(args.mode))
    print("abs_rel,delta_125")
    print(",".join(_fmt(v) for v in (abs_rel, delta)))


def _cmd_eval_recon(args) -> None:
    pred = read_ply_ascii(Path(args.pred).read_bytes())
    gt = read_ply_ascii(Path(args.gt).read_bytes())
    acc, comp, nc = metric_recon(pred, gt, k_normals=args.k_normals)
    print("acc,comp,nc")
    print(",".join(_fmt(v) for v in (acc, comp, nc)))


def _cmd_eval_loss(args) -> None:
    pred, gt = _load_pair(args)
    w = LossWeights(w_a=args.wa, w_r=args.wr, w_s=args.ws,
                    lambda1=args.lambda1, lambda2=args.lambda2,
                    lambda3=args.lambda3)
    ate = loss_ate(pred, gt)
    rpe = loss_rpe(pred, gt)
    acc = loss_acc(pred)
    pose = loss_pose(pred, gt, w)
    total = loss_total(args.conf_loss, args.rgb_loss, pose, w)
    print("ate,rpe,acc,pose,conf,rgb,total")
    print(",".join(_fmt(v) for v in (ate, rpe, acc, pose,
                                     args.conf_loss, args.rgb_loss, total)))


def _cmd_simulate(args) -> None:
    constant_beta = None if args.policy == "adaptive" else args.policy
    rows = simulate_stream(args.frames, args.state_dim, args.seed,
                           constant_beta)
    print("step,beta,recall_first,recall_latest")
    for step, beta, r_first, r_latest in rows:
        print(",".join([str(step)] + [_fmt(v) for v in (beta, r_first, r_latest)]))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args = _apply_config(args)
        args.func(args)
    except (ParseError, CountMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
