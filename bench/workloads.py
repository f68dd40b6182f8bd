"""Seeded scene generation for the benchmark workloads.

Each workload is a set of scene config files (the ``motkit simulate`` input)
and the tracking strategies each scene is run under. Everything is derived
from the benchmark seed with the benchmark's own random generator, so the
program under test only ever sees the generated files. Noise levels are
written out here rather than read from the package so that a change to the
package's defaults cannot silently change the benchmark inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALL_STRATEGIES = ("dis", "iou", "combined", "iou-dis", "dis-iou")

# The values of motkit.simulator.MODERATE_NOISE, under the config-file keys.
MODERATE_NOISE = {
    "center_noise": 0.8,
    "size_noise": 0.4,
    "disp_noise": 2.2,
    "ts_noise": 0.7,
    "iou_bias": -0.3,
    "fp_rate": 0.02,
    "fn_rate": 0.04,
}

# churn: the same channel noise, but a detector that misses often and fires
# a false alarm in about every other frame.
CHURN_NOISE = {**MODERATE_NOISE, "fp_rate": 0.5, "fn_rate": 0.2}

CROWD_AGENTS = 200
CROWD_FRAMES = 20
CROWD_SIZE = 1920

SWEEP_SCENES = 50

CHURN_AGENTS = 110
CHURN_FRAMES = 600
CHURN_WIDTH = 640
CHURN_HEIGHT = 480
CHURN_LIFE = (100, 161)  # frames an agent takes to cross, as a randrange


@dataclass(frozen=True)
class Workload:
    """Scene configs by scene name, and the strategies every scene is tracked with.

    Why each workload exists is recorded next to its name in BENCHMARK.json.
    """

    name: str
    scenes: dict[str, str]
    strategies: tuple[str, ...]
    # Strategies replayed frame by frame for the latency view. crowd replays
    # only iou: dis frames are 3-4x cheaper there, and a median over both
    # would sit on the gap between the two.
    online: tuple[str, ...]


def _config(head: dict, noise: dict, agents: list[str] = ()) -> str:
    lines = [f"{k} = {v}" for k, v in head.items()]
    lines += [f"{k} = {v!r}" for k, v in noise.items()]
    lines += [f"agent = {a}" for a in agents]
    return "\n".join(lines) + "\n"


def _agent(depth: int, w: float, h: float, waypoints: list[tuple[int, float, float]]) -> str:
    wps = " ".join(f"{f}:{x:.3f}:{y:.3f}" for f, x, y in waypoints)
    return f"{depth} {w:.3f} {h:.3f} {wps}"


def crowd(seed: int) -> Workload:
    rng = random.Random(f"crowd-{seed}")
    size, frames = CROWD_SIZE, CROWD_FRAMES
    depths = list(range(CROWD_AGENTS))
    rng.shuffle(depths)
    agents = []
    for depth in depths:
        w = rng.uniform(20.0, 60.0)
        h = w * rng.uniform(1.6, 2.4)
        # start and end inside the image, at 1-4 px per frame
        speed = rng.uniform(1.0, 4.0)
        travel = speed * (frames - 1)
        mx, my = w / 2 + 1 + travel, h / 2 + 1 + travel
        x0, y0 = rng.uniform(mx, size - mx), rng.uniform(my, size - my)
        dx, dy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        norm = max((dx * dx + dy * dy) ** 0.5, 1e-6)
        x1, y1 = x0 + travel * dx / norm, y0 + travel * dy / norm
        agents.append(_agent(depth, w, h, [(1, x0, y0), (frames, x1, y1)]))
    head = {"scenario": "custom", "frames": frames, "width": size, "height": size,
            "variant": "ltrb", "seed": rng.randrange(2**31)}
    return Workload(
        "crowd",
        {"crowd": _config(head, MODERATE_NOISE, agents)},
        ("iou", "dis"),
        ("iou",),
    )


def sweep(seed: int) -> Workload:
    # Scene seeds seed*50 .. seed*50+49; seed 0 is exactly acceptance test c6's sweep.
    scenes = {}
    for k in range(SWEEP_SCENES):
        scene_seed = seed * SWEEP_SCENES + k
        head = {"scenario": "crossing", "frames": 60, "width": 200, "height": 200,
                "variant": "ltrb", "seed": scene_seed}
        scenes[f"crossing-{scene_seed}"] = _config(head, MODERATE_NOISE)
    return Workload(
        "sweep",
        scenes,
        ALL_STRATEGIES,
        ("iou", "dis"),  # the pair the quality claim compares; the others add no new frame shape
    )


def churn(seed: int) -> Workload:
    rng = random.Random(f"churn-{seed}")
    width, height, frames = CHURN_WIDTH, CHURN_HEIGHT, CHURN_FRAMES
    depths = list(range(CHURN_AGENTS))
    rng.shuffle(depths)
    agents = []
    # Entries are evenly staggered and directions follow a fixed cycle, so the
    # number of agents on screen, and with it the work, varies little between
    # seeds; sizes, lanes and walking times are random.
    spacing = (frames - CHURN_LIFE[1]) / CHURN_AGENTS
    for k, depth in enumerate(depths):
        w = rng.uniform(16.0, 40.0)
        h = w * rng.uniform(1.6, 2.4)
        life = rng.randrange(*CHURN_LIFE)
        start = 1 + round(k * spacing + rng.uniform(0.0, spacing))
        # walk from just outside one edge to just outside the opposite one
        if k % 5 < 3:
            xa, xb = -w / 2 - 1, width + w / 2 + 1
            ya, yb = rng.uniform(h, height - h), rng.uniform(h, height - h)
        else:
            ya, yb = -h / 2 - 1, height + h / 2 + 1
            xa, xb = rng.uniform(w, width - w), rng.uniform(w, width - w)
        if k % 2:
            xa, xb, ya, yb = xb, xa, yb, ya
        agents.append(_agent(depth, w, h, [(start, xa, ya), (start + life, xb, yb)]))
    head = {"scenario": "custom", "frames": frames, "width": width, "height": height,
            "variant": "wh", "seed": rng.randrange(2**31)}
    return Workload(
        "churn",
        {"churn": _config(head, CHURN_NOISE, agents)},
        ("iou-dis", "dis-iou"),
        ("iou-dis", "dis-iou"),
    )


WORKLOADS = {"crowd": crowd, "sweep": sweep, "churn": churn}
