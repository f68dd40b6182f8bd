"""Command-line pipeline: simulate scenes, track predictions, evaluate output.

Exit codes: 0 on success, 2 for input problems (missing or malformed files,
repeated (frame, id) rows, bad config), 3 for evaluation-domain errors (no
ground truth to score).
Output files are written atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Sequence

from .association import FILTER_FORMS, FILTER_RATIONALE, Strategy
from .formats import (
    GtEntry,
    ParseError,
    TrackRecord,
    parse_mot,
    parse_predictions,
    parse_track_file,
    write_gt,
    write_mot,
    write_predictions,
)
from .heatmap import DEFAULT_OUTPUT_THRESHOLD
from .metrics import DEFAULT_IOU_THRESHOLD, check_iou_threshold, clear_mot, idf1
from .objectives import gradient_check_report
from .simulator import (
    AgentSpec,
    NoiseConfig,
    ScenarioConfig,
    crossing_scenario,
    exit_scenario,
    generate,
    occluded_crossing_scenario,
    perturb,
)
from .tracker import DEFAULT_LIFETIME, TrackerConfig, run_sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EVAL_DOMAIN = 3

GRAD_CHECK_TOLERANCE = 1e-4


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class InputError(Exception):
    """Input-level failure; the CLI maps it to exit code 2."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None


def cmd_track(args: argparse.Namespace) -> int:
    preds = parse_predictions(_read_text(args.predictions))
    if args.variant is not None and args.variant != preds.variant:
        raise InputError(
            f"prediction file declares variant {preds.variant!r}, but --variant {args.variant!r} was requested"
        )
    cfg = TrackerConfig(
        strategy=Strategy(args.strategy),
        variant=preds.variant,
        lifetime=args.lifetime,
        out_threshold=args.theta,
        iou_filter_form=args.iou_filter_form,
    )
    frames = preds.dense_frames()
    records = run_sequence(frames, cfg)
    text = write_mot(records)
    n_dets = sum(len(dets) for _, dets in frames)
    n_tracks = len({r.track_id for r in records})
    summary = f"frames={len(frames)} detections={n_dets} tracks={n_tracks}"
    if args.out:
        _atomic_write(Path(args.out), text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return EXIT_OK


def _reject_repeated_row(text: str, rows: Sequence[GtEntry | TrackRecord], kind: str) -> None:
    """Raise :class:`ParseError` at the first scored row whose (frame, id) an earlier one has.

    Rows are the file's non-blank lines, in order; ground-truth rows with the
    consider flag 0 are not scored, so they repeat nothing.
    """
    line_nos = (n for n, raw in enumerate(text.splitlines(), start=1) if raw.strip())
    seen: set[tuple[int, int]] = set()
    for line_no, row in zip(line_nos, rows):
        if not getattr(row, "consider", True):
            continue
        key = (row.frame, row.track_id)
        if key in seen:
            raise ParseError(line_no, f"duplicate {kind} entry for frame {row.frame}, id {row.track_id}")
        seen.add(key)


def cmd_eval(args: argparse.Namespace) -> int:
    check_iou_threshold(args.iou_thresh)
    gt_text, hyp_text = _read_text(args.gt), _read_text(args.hyp)
    gt = parse_mot(gt_text)
    hyp = parse_track_file(hyp_text)
    try:
        clear = clear_mot(gt, hyp, args.iou_thresh)
    except ValueError as exc:
        # clear_mot also refuses repeated (frame, id) rows; those are malformed
        # input, so name the line. Only then is it no ground truth to score.
        _reject_repeated_row(gt_text, gt, "ground-truth")
        _reject_repeated_row(hyp_text, hyp, "hypothesis")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL_DOMAIN
    ident = idf1(gt, hyp, args.iou_thresh)
    if args.json:
        payload = {
            "mota": clear.mota,
            "idf1": ident.idf1,
            "ids": clear.ids,
            "fp": clear.fp,
            "fn": clear.fn,
            "num_gt": clear.num_gt,
            "idtp": ident.idtp,
            "idfp": ident.idfp,
            "idfn": ident.idfn,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{'MOTA':>8} {'IDF1':>8} {'IDs':>6} {'FP':>6} {'FN':>6}")
        print(
            f"{clear.mota:8.3f} {ident.idf1:8.3f} {clear.ids:6d} {clear.fp:6d} {clear.fn:6d}"
        )
    return EXIT_OK


def _parse_scenario_config(text: str, path: str) -> tuple[ScenarioConfig, NoiseConfig]:
    values: dict[str, str] = {}
    agent_lines: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "agent":
            agent_lines.append(value)
        else:
            values[key] = value

    def take(key: str, default: str) -> str:
        return values.pop(key, default)

    try:
        scenario = take("scenario", "custom")
        frames = int(take("frames", "60"))
        width = int(take("width", "200"))
        height = int(take("height", "200"))
        variant = take("variant", "ltrb")
        seed = int(take("seed", "0"))
        noise = NoiseConfig(
            center_noise_sigma=float(take("center_noise", "0")),
            size_noise_sigma=float(take("size_noise", "0")),
            disp_noise_sigma=float(take("disp_noise", "0")),
            ts_noise_sigma=float(take("ts_noise", "0")),
            iou_pred_bias=float(take("iou_bias", "0")),
            fp_rate=float(take("fp_rate", "0")),
            fn_rate=float(take("fn_rate", "0")),
        )
        if values:
            raise InputError(f"{path}: unknown keys: {', '.join(sorted(values))}")

        if scenario == "crossing":
            cfg = crossing_scenario(frames=frames, width=width, height=height, variant=variant, seed=seed)
        elif scenario == "occluded-crossing":
            cfg = occluded_crossing_scenario(frames=frames, width=width, height=height, variant=variant)
        elif scenario == "exit":
            cfg = exit_scenario(frames=frames, width=width, height=height, variant=variant)
        elif scenario == "custom":
            if not agent_lines:
                raise InputError(f"{path}: scenario 'custom' needs at least one 'agent =' line")
            agents = []
            for spec in agent_lines:
                parts = spec.split()
                if len(parts) < 4:
                    raise InputError(
                        f"{path}: agent line needs 'depth w h frame:x:y ...', got {spec!r}"
                    )
                depth, w, h = int(parts[0]), float(parts[1]), float(parts[2])
                waypoints = []
                for wp in parts[3:]:
                    f, x, y = wp.split(":")
                    waypoints.append((int(f), float(x), float(y)))
                agents.append(AgentSpec(width=w, height=h, waypoints=tuple(waypoints), depth=depth))
            cfg = ScenarioConfig(
                width=width, height=height, frames=frames, agents=tuple(agents), variant=variant, seed=seed
            )
        else:
            raise InputError(f"{path}: unknown scenario {scenario!r}")
    except InputError:
        raise
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from None
    return cfg, noise


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg, noise = _parse_scenario_config(_read_text(args.config), args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    gt, oracle = generate(cfg)
    dets = perturb(oracle, noise, seed, image_size=(cfg.width, cfg.height), variant=cfg.variant)
    out_dir = Path(args.out_dir)
    _atomic_write(out_dir / "gt.txt", write_gt(gt))
    _atomic_write(out_dir / "preds.csv", write_predictions(cfg.variant, dets))
    n_dets = sum(len(d) for _, d in dets)
    print(f"wrote {out_dir / 'gt.txt'} ({len(gt)} rows) and {out_dir / 'preds.csv'} ({n_dets} detections)")
    return EXIT_OK


def cmd_check_losses(args: argparse.Namespace) -> int:
    report = gradient_check_report(seed=args.seed)
    failed = False
    for name, value in report.items():
        ok = value <= GRAD_CHECK_TOLERANCE if name.endswith("rel_err") else value == 0.0
        failed |= not ok
        print(f"{name}: {value:.3e} .. {'ok' if ok else 'FAIL'}")
    if failed:
        print("gradient checks failed", file=sys.stderr)
        return 1
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motkit", description="Track, simulate, and evaluate box-association pipelines."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="associate a prediction file into identity tracks")
    p_track.add_argument("predictions", help="prediction CSV with a 'variant:' header")
    p_track.add_argument("--strategy", default="iou", choices=[s.value for s in Strategy])
    p_track.add_argument(
        "--variant",
        default=None,
        choices=["wh", "ltrb"],
        help="expected tracked-size variant; must match the file header (default: take from file)",
    )
    p_track.add_argument("--lifetime", type=int, default=DEFAULT_LIFETIME)
    p_track.add_argument(
        "--theta", type=float, default=DEFAULT_OUTPUT_THRESHOLD, help="output confidence threshold"
    )
    p_track.add_argument("--iou-filter-form", default=FILTER_RATIONALE, choices=list(FILTER_FORMS))
    p_track.add_argument("--out", default=None, help="output MOT file (default: stdout)")
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("eval", help="score a track file against ground truth")
    p_eval.add_argument("gt")
    p_eval.add_argument("hyp")
    p_eval.add_argument("--iou-thresh", type=float, default=DEFAULT_IOU_THRESHOLD)
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scene with gt and predictions")
    p_sim.add_argument("config", help="flat key = value scenario file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--out-dir", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check-losses", help="run the loss gradient-check suite")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check_losses)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())
