"""Command-line interface.

Deterministic, scriptable subcommands: CSV goes to stdout, diagnostics to
stderr. Exit codes: 0 success, 2 usage or parse error, 3 numerical
precondition failure. An optional flat key=value config file supplies
defaults; explicit flags override it.

The algorithm modules are lazy (see the package's __init__): each body runs
when a subcommand first uses it, so `--help` and a usage error load neither
NumPy nor any algorithm module.
"""

from __future__ import annotations

import argparse
import math
import re
import string
import sys
from pathlib import Path

from . import (frame_scoring, io_formats, losses, metrics, simulate, spatial,
               stabilization)
from .config import (BilateralConfig, DepthEvalMode, LossWeights,
                     OneEuroConfig, ScoreConfig)
from .errors import CountMismatch, ParseError, ToolkitError


def _text(path) -> str:
    """The text of the file at `path`, read as UTF-8 whatever the locale."""
    return Path(path).read_text(encoding="utf-8")


def _read_config(args: argparse.Namespace) -> dict:
    """The values of the config file, keyed by the subcommand's optional
    flags and checked with each flag's type and choices; a bad line is a
    ParseError with its line number."""
    flags = {action.dest: action for action in args.parser._actions
             if action.option_strings and not action.required
             and action.dest not in ("help", "config")}
    values = {}
    # lines end at \n only (read_text maps \r\n and \r to it), and only ASCII
    # whitespace is stripped, as the file readers do; not str.splitlines/strip
    for lineno, line in enumerate(_text(args.config).split("\n"), start=1):
        line = line.strip(string.whitespace)
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("config line is not key=value", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip(string.whitespace).replace("-", "_")
        if key not in flags:
            raise ParseError(
                f"unknown config key {key!r} for {args.command}", line=lineno)
        flag = flags[key]
        value = value.strip(string.whitespace)
        try:
            value = flag.type(value) if flag.type else value
        except argparse.ArgumentTypeError as exc:
            raise ParseError(f"invalid value for {key}: {exc}", line=lineno)
        if flag.choices is not None and value not in flag.choices:
            raise ParseError(
                f"invalid value for {key}: {value!r} is not one of "
                f"{', '.join(flag.choices)}", line=lineno)
        values[key] = value
    return values


def _number(kind: type = float, low: float = -math.inf, above: bool = False,
            high: float = math.inf):
    """argparse type: a finite `kind` from `low` (exclusive if `above`) to
    `high`, spelled as the file readers' integer or decimal fields."""
    def parse(text: str):
        token = text.encode("utf-8", "surrogatepass")
        try:
            value = (io_formats._integer(token, "") if kind is int
                     else io_formats._decimals([token])[0])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if value < low or above and value == low:
            raise argparse.ArgumentTypeError(
                f"must be {'above' if above else 'at least'} {low}, "
                f"got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
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
    # Python 3.13's test for a negative number: before it, argparse takes an
    # exponent form such as `--wa -1e-3` for an option
    sub._negative_number_matcher = re.compile(r"-\.?\d")
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
    p.add_argument("--w1", type=nonneg, default=ScoreConfig.w1,
                   help="translation weight (default %(default)s)")
    p.add_argument("--w2", type=nonneg, default=ScoreConfig.w2,
                   help="rotation weight (default %(default)s)")
    p.add_argument("--radius", type=nonneg, default=ScoreConfig.radius,
                   help="high-pass radius in pixels (default min(H,W)//8)")
    p.add_argument("--epsilon", type=positive, default=ScoreConfig.epsilon,
                   help="ratio denominator epsilon (default %(default)s)")
    p.add_argument("--clip-max", type=nonneg, default=ScoreConfig.clip_max,
                   help="weight clip (default %(default)s)")
    p.add_argument("--initial-weight", type=nonneg,
                   default=ScoreConfig.initial_weight,
                   help="weight of the first frame (default %(default)s)")

    p = _add_command(subs, "stabilize", _cmd_stabilize,
                     "smooth a trajectory online")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--fmin", type=positive, default=OneEuroConfig.f_min,
                   help="minimum cutoff frequency in Hz (default %(default)s)")
    p.add_argument("--beta-gain", type=nonneg, default=OneEuroConfig.beta_gain,
                   help="cutoff gain per unit speed (default %(default)s)")

    p = _add_command(subs, "refine", _cmd_refine, "bilateral depth refinement")
    p.add_argument("--in", dest="infile", required=True, help="input PFM")
    p.add_argument("--out", dest="outfile", required=True,
                   help="output .pfm or .ply")
    p.add_argument("--window", type=_number(int, 0),
                   default=BilateralConfig.window,
                   help="window half-width (default %(default)s)")
    p.add_argument("--sigma-s", type=positive, default=BilateralConfig.sigma_s,
                   help="spatial sigma in pixels (default %(default)s)")
    p.add_argument("--sigma-r", type=positive, default=BilateralConfig.sigma_r,
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
                   help="evaluate only the first k frames")
    p.add_argument("--align", choices=["se3", "sim3"], default="se3",
                   help="ATE alignment class (default %(default)s)")

    p = _add_command(subs, "eval-depth", _cmd_eval_depth, "depth metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mode", choices=[mode.value for mode in DepthEvalMode],
                   default="original",
                   help="alignment mode (default %(default)s)")

    p = _add_command(subs, "eval-recon", _cmd_eval_recon,
                     "point-cloud reconstruction metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--k-normals", type=_number(int, 1), default=16,
                   help="neighbors for normal estimation (default %(default)s)")

    p = _add_command(subs, "eval-loss", _cmd_eval_loss,
                     "trajectory loss components")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    for flag, default, what in [
            ("--wa", LossWeights.w_a, "ATE term weight"),
            ("--wr", LossWeights.w_r, "RPE term weight"),
            ("--ws", LossWeights.w_s, "acceleration term weight"),
            ("--lambda1", LossWeights.lambda1, "confidence loss weight"),
            ("--lambda2", LossWeights.lambda2, "RGB loss weight"),
            ("--lambda3", LossWeights.lambda3, "pose loss weight"),
            ("--conf-loss", 0.0, "precomputed confidence loss value"),
            ("--rgb-loss", 0.0, "precomputed RGB loss value")]:
        p.add_argument(flag, type=finite, default=default,
                       help=f"{what} (default %(default)s)")

    p = _add_command(subs, "simulate", _cmd_simulate,
                     "synthetic memory-state stream")
    p.add_argument("--frames", type=_number(int, 1), default=100,
                   help="steps to run (default %(default)s)")
    p.add_argument("--state-dim", type=_number(int, 1, high=4096), default=64,
                   help="state dimension, at most 4096 (default %(default)s)")
    p.add_argument("--seed", type=_number(int, 0), default=0,
                   help="RNG seed (default %(default)s)")
    p.add_argument("--policy", type=_policy, default="adaptive",
                   help="'adaptive' or 'constant:<beta>' "
                        "(default %(default)s)")

    return parser


def _cmd_score(args):
    traj = io_formats.read_trajectory_tum(_text(args.traj))
    frame_files = sorted(Path(args.frames).glob("*.pgm"))
    if len(frame_files) != len(traj):
        raise CountMismatch(
            f"{len(frame_files)} frames for {len(traj)} poses")
    cfg = ScoreConfig(w1=args.w1, w2=args.w2, radius=args.radius,
                      epsilon=args.epsilon, clip_max=args.clip_max,
                      initial_weight=args.initial_weight)

    # one untouched 16 MiB block, allocated and freed: glibc then raises its
    # mmap threshold to 16 MiB and its trim threshold to 32 MiB (mallopt(3)),
    # so that each frame's ~7 MB of temporaries reuse the last frame's heap
    # rather than being trimmed off it and faulted in again
    bytes(16 << 20)

    def rows():  # a generator: each row is written as its frame is scored
        prev = None
        for i, (pose, path) in enumerate(zip(traj, frame_files)):
            yield (i, *frame_scoring.score_terms(
                prev, pose, io_formats.read_pgm(path.read_bytes()), cfg))
            prev = pose
    return "index,delta_x,delta_q,s1,R,s2,weight", rows()


def _cmd_stabilize(args) -> None:
    traj = io_formats.read_trajectory_tum(_text(args.infile))
    cfg = OneEuroConfig(f_min=args.fmin, beta_gain=args.beta_gain)
    Path(args.outfile).write_text(io_formats.write_trajectory_tum(
        stabilization.stabilize_trajectory(traj, cfg)), encoding="utf-8")


def _cmd_refine(args) -> None:
    # the output's flags are checked before the map is read and filtered
    out = Path(args.outfile)
    if out.suffix.lower() == ".ply":
        if None in (args.fx, args.fy, args.cx, args.cy):
            args.parser.error("PLY output requires --fx --fy --cx --cy")
        intr = spatial.Intrinsics(args.fx, args.fy, args.cx, args.cy)
    elif out.suffix.lower() != ".pfm":
        args.parser.error(f"unsupported output extension {out.suffix!r}")
    depth_map = io_formats.read_pfm(Path(args.infile).read_bytes())
    cfg = BilateralConfig(window=args.window, sigma_s=args.sigma_s,
                          sigma_r=args.sigma_r)
    if out.suffix.lower() == ".pfm":
        out.write_bytes(io_formats.write_pfm(
            spatial.bilateral_depth(depth_map, cfg)))
    else:
        out.write_bytes(io_formats.write_ply_ascii(
            spatial.refine_cloud(depth_map, intr, cfg)))


def _load_pair(args, read, load=_text):
    """`read` of the --pred and of the --gt file, as `load` gives them."""
    return read(load(Path(args.pred))), read(load(Path(args.gt)))


def _cmd_eval_traj(args):
    pred, gt = _load_pair(args, io_formats.read_trajectory_tum)
    k, shortest = args.prefix_frames, min(len(pred), len(gt))
    if k is not None and k > shortest:
        print(f"warning: --prefix-frames {k} exceeds trajectory length "
              f"{shortest}; clamping", file=sys.stderr)
        k = shortest
    pred, gt = pred[:k], gt[:k]
    ate = metrics.metric_ate(pred, gt, with_scale=args.align == "sim3")
    rpe_trans, rpe_rot = metrics.metric_rpe(pred, gt)
    return "frames,ate,rpe_trans,rpe_rot", [(len(pred), ate, rpe_trans, rpe_rot)]


def _cmd_eval_depth(args):
    pred, gt = _load_pair(args, io_formats.read_pfm, Path.read_bytes)
    return "abs_rel,delta_125", [
        metrics.metric_depth(pred, gt, DepthEvalMode(args.mode))]


def _cmd_eval_recon(args):
    pred, gt = _load_pair(args, io_formats.read_ply_ascii, Path.read_bytes)
    return "acc,comp,nc", [
        metrics.metric_recon(pred, gt, k_normals=args.k_normals)]


def _cmd_eval_loss(args):
    pred, gt = _load_pair(args, io_formats.read_trajectory_tum)
    w = LossWeights(w_a=args.wa, w_r=args.wr, w_s=args.ws,
                    lambda1=args.lambda1, lambda2=args.lambda2,
                    lambda3=args.lambda3)
    ate = losses.loss_ate(pred, gt)
    rpe, acc = losses.loss_rpe(pred, gt), losses.loss_acc(pred)
    pose = losses._pose_sum(w, ate, rpe, acc)
    total = losses.loss_total(args.conf_loss, args.rgb_loss, pose, w)
    return "ate,rpe,acc,pose,conf,rgb,total", [
        (ate, rpe, acc, pose, args.conf_loss, args.rgb_loss, total)]


def _cmd_simulate(args):
    constant_beta = None if args.policy == "adaptive" else args.policy
    return "step,beta,recall_first,recall_latest", simulate.simulate_stream(
        args.frames, args.state_dim, args.seed, constant_beta)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults, so that the
            # flags given on the command line still win
            args.parser.set_defaults(**_read_config(args))
            args = parser.parse_args(argv)
        table = args.func(args)
        if table is not None:  # a CSV header and its rows, for stdout
            header, rows = table
            print(header)
            for row in rows:
                print(io_formats.format_rows([row], sep=","), end="")
    except (ToolkitError, UnicodeDecodeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        usage = (ParseError, CountMismatch, OSError, UnicodeDecodeError)
        return 2 if isinstance(exc, usage) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
