"""Command-line pipeline: simulate scenes, track predictions, evaluate output.

Exit codes: 0 on success, 2 for input problems (missing or malformed files,
unwritable output paths, repeated (frame, id) rows, bad config), 3 for
evaluation-domain errors (no ground truth to score).
Output files are written atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .association import FILTER_FORMS, Strategy
from .formats import VARIANTS, ParseError, parse_mot, parse_predictions, parse_track_file, write_gt
from .formats import write_mot, write_predictions
from .metrics import DEFAULT_IOU_THRESHOLD, _RepeatedRow, _scored, check_iou_threshold, clear_mot, idf1
from .objectives import gradient_check_report
from .simulator import generate, parse_scene, perturb
from .tracker import TrackerConfig, run_sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EVAL_DOMAIN = 3

GRAD_CHECK_TOLERANCE = 1e-4


class InputError(Exception):
    """Input-level failure; the CLI maps it to exit code 2."""


def _atomic_write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)  # a failed write or rename leaves it behind
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


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
    records = run_sequence(preds.by_frame.items(), cfg)
    text = write_mot(records)
    numbers = preds.by_frame.keys()
    n_frames = max(numbers) - min(numbers) + 1 if numbers else 0
    n_dets = sum(map(len, preds.by_frame.values()))
    n_tracks = len(set(records.values("id")))
    summary = f"frames={n_frames} detections={n_dets} tracks={n_tracks}"
    if args.out:
        _atomic_write(Path(args.out), text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return EXIT_OK


def _line_of(text: str, row: int) -> int:
    """The 1-based line number of the ``row``-th non-blank line of ``text``."""
    return [n for n, raw in enumerate(text.splitlines(), start=1) if raw.strip()][row]


def cmd_eval(args: argparse.Namespace) -> int:
    check_iou_threshold(args.iou_thresh)
    texts = {"ground-truth": _read_text(args.gt), "hypothesis": _read_text(args.hyp)}
    gt = parse_mot(texts["ground-truth"])
    hyp = parse_track_file(texts["hypothesis"])
    try:
        # each table is scored once for both scorers, refusing gt repeats, then hyp repeats, then no gt
        gt, hyp = _scored(gt, "ground-truth"), _scored(hyp, "hypothesis")
        clear = clear_mot(gt, hyp, args.iou_thresh)
    except _RepeatedRow as exc:
        # a repeated (frame, id) row is malformed input, so name its line;
        # only other refusals mean there is no ground truth to score
        raise ParseError(_line_of(texts[exc.kind], exc.row), str(exc)) from None
    except ValueError as exc:
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


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg, noise = parse_scene(_read_text(args.config))
    except ValueError as exc:
        raise InputError(f"{args.config}: {exc}") from None
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    gt, oracle = generate(cfg)
    dets = perturb(oracle, noise, cfg.seed, image_size=(cfg.width, cfg.height), variant=cfg.variant)
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
    # the defaults are TrackerConfig's class attributes: cheaper than an instance per parser
    p_track.add_argument("--strategy", default=TrackerConfig.strategy.value, choices=[s.value for s in Strategy])
    p_track.add_argument(
        "--variant",
        default=None,
        choices=list(VARIANTS),
        help="expected tracked-size variant; must match the file header (default: take from file)",
    )
    p_track.add_argument("--lifetime", type=int, default=TrackerConfig.lifetime)
    p_track.add_argument(
        "--theta", type=float, default=TrackerConfig.out_threshold, help="output confidence threshold"
    )
    p_track.add_argument("--iou-filter-form", default=TrackerConfig.iou_filter_form, choices=list(FILTER_FORMS))
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
