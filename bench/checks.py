"""Output checks that do not trust the package: plain parsing and arithmetic only.

Each check returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import json
import math

TOL = 1e-6
OUT_THRESHOLD = 0.4  # the CLI's default --theta, which the benchmark never overrides
EVAL_KEYS = {"mota", "idf1", "ids", "fp", "fn", "num_gt", "idtp", "idfp", "idfn"}


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line.strip()]


def scene_spec(config: str) -> dict:
    """The keys of a scene config plus its agents as (w, h, waypoints)."""
    spec: dict = {"agents": []}
    for line in config.splitlines():
        key, value = (p.strip() for p in line.split("=", 1))
        if key == "agent":
            parts = value.split()
            wps = [tuple(float(v) for v in wp.split(":")) for wp in parts[3:]]
            spec["agents"].append((float(parts[1]), float(parts[2]), wps))
        else:
            spec[key] = value
    return spec


def _position(wps, frame):
    if len(wps) == 1 or frame <= wps[0][0]:
        return wps[0][1], wps[0][2]
    for (f0, x0, y0), (f1, x1, y1) in zip(wps, wps[1:]):
        if frame <= f1:
            break
    t = (frame - f0) / (f1 - f0)
    return x0 + t * (x1 - x0), y0 + t * (y1 - y0)


def check_gt(text: str, spec: dict) -> list[str]:
    """Rows unique per (frame, id), boxes inside the image; custom agents where their path says."""
    width, height, frames = float(spec["width"]), float(spec["height"]), int(spec["frames"])
    agents = spec["agents"]
    problems, seen = [], set()
    for n, row in enumerate(_rows(text), start=1):
        if len(row) != 9:
            return [f"gt line {n}: {len(row)} fields"]
        frame, tid = int(row[0]), int(row[1])
        left, top, w, h = (float(v) for v in row[2:6])
        if (frame, tid) in seen or not 1 <= frame <= frames:
            problems.append(f"gt line {n}: duplicate or out-of-range frame {frame} id {tid}")
        seen.add((frame, tid))
        if left < -TOL or top < -TOL or left + w > width + TOL or top + h > height + TOL:
            problems.append(f"gt line {n}: box outside the image")
        if agents:
            aw, ah, wps = agents[tid - 1]
            cx, cy = _position(wps, frame)
            if max(abs(w - aw), abs(h - ah), abs(left + w / 2 - cx), abs(top + h / 2 - cy)) > TOL:
                problems.append(f"gt line {n}: box of agent {tid} is not on its path")
        if len(problems) > 5:
            break
    if not seen:
        problems.append("gt is empty")
    return problems


def kept_detections(preds: str, variant: str) -> tuple[list[list[str]], int]:
    """Prediction rows above the output threshold, and the number of tracked frames."""
    lines = preds.splitlines()
    if not lines or lines[0].strip() != f"variant: {variant}":
        raise ValueError(f"prediction header is not 'variant: {variant}'")
    rows = _rows("\n".join(lines[1:]))
    n_fields = 12 if variant == "wh" else 14
    if any(len(r) != n_fields for r in rows):
        raise ValueError(f"prediction row without {n_fields} fields")
    frames = [int(r[0]) for r in rows]
    n_frames = max(frames) - min(frames) + 1 if frames else 0
    return [r for r in rows if float(r[5]) > OUT_THRESHOLD], n_frames


def check_tracks(text: str, kept: list[list[str]]) -> list[str]:
    """One output row per kept detection, carrying that detection's box; ids unique per frame."""
    rows = _rows(text)
    if len(rows) != len(kept):
        return [f"{len(rows)} track rows for {len(kept)} detections above the threshold"]
    if len({(r[0], r[1]) for r in rows}) != len(rows):
        return ["a track id appears twice in one frame"]
    got = sorted((int(r[0]), float(r[2]), float(r[3]), float(r[4]), float(r[5]), float(r[6])) for r in rows)
    want = []
    for r in kept:
        cx, cy, w, h, conf = (float(v) for v in r[1:6])
        want.append((int(r[0]), cx - w / 2, cy - h / 2, w, h, conf))
    want.sort()
    for a, b in zip(got, want):
        if a[0] != b[0] or any(abs(x - y) > TOL for x, y in zip(a[1:], b[1:])):
            return [f"track row {a} matches no detection (expected {b})"]
    return []


def check_eval(stdout: str, gt_rows: int, track_rows: int) -> tuple[dict, list[str]]:
    """The eval --json payload, and violated identities between its fields and the inputs."""
    try:
        res = json.loads(stdout)
    except ValueError:
        return {}, [f"eval output is not JSON: {stdout[:80]!r}"]
    if set(res) != EVAL_KEYS:
        return res, [f"eval keys {sorted(res)}"]
    problems = []
    ints = ("ids", "fp", "fn", "num_gt", "idtp", "idfp", "idfn")
    if any(not isinstance(res[k], int) or res[k] < 0 for k in ints):
        problems.append("eval counts must be non-negative integers")
    elif res["num_gt"] != gt_rows or res["idtp"] + res["idfn"] != gt_rows:
        problems.append(f"eval num_gt/idtp+idfn disagree with {gt_rows} gt rows")
    elif res["idtp"] + res["idfp"] != track_rows or res["fp"] > track_rows or res["fn"] > gt_rows:
        problems.append(f"eval idtp+idfp/fp/fn disagree with {track_rows} track rows")
    else:
        mota = 1.0 - (res["fp"] + res["fn"] + res["ids"]) / res["num_gt"]
        f1 = 2 * res["idtp"] / (2 * res["idtp"] + res["idfp"] + res["idfn"])
        if not math.isclose(res["mota"], mota, abs_tol=1e-9) or not math.isclose(res["idf1"], f1, abs_tol=1e-9):
            problems.append("eval mota or idf1 disagrees with its counts")
    return res, problems
