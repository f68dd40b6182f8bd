"""The scene-file reader ``simulator.parse_scene``, and the ``simulate`` command around it."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import motkit
from motkit.cli import main
from motkit.formats import ParseError, write_predictions
from motkit.simulator import (
    AgentSpec,
    NoiseConfig,
    ScenarioConfig,
    exit_scenario,
    generate,
    occluded_crossing_scenario,
    parse_scene,
    perturb,
)
from oracles import parse_scenario_config

BUILT_IN = ("crossing", "occluded-crossing", "exit")
NOISE_KEYS = ("center_noise", "size_noise", "disp_noise", "ts_noise", "iou_bias", "fp_rate", "fn_rate")

#: Each key's values a scene may hold, then values that are malformed or out of range.
GOOD = {
    "scenario": st.sampled_from(["crossing", "occluded-crossing", "exit", "custom"]),
    "frames": st.integers(20, 90).map(str),
    "width": st.integers(150, 400).map(str),
    "height": st.sampled_from(["200", "+150", " 320"]),
    "variant": st.sampled_from(["ltrb", "wh"]),
    "seed": st.integers(-5, 2**40).map(str),
    **dict.fromkeys(NOISE_KEYS, st.sampled_from(["0", "0.3", "1", "0.05"])),
    "agent": st.sampled_from(["0 10 12 1:30:50 5:38:50", "1 14.5 20 1:70:50", "2 8 9 3:10:10 9:80:60 20:120:90"]),
}
BAD = {
    "scenario": st.sampled_from(["flying", "", "Crossing"]),
    "frames": st.sampled_from(["-2", "0", "1", "abc", "1e3", "1_0", str(10**11)]),
    "width": st.sampled_from(["-2", "0", "2.5", "1" + "0" * 400]),
    "height": st.sampled_from(["x", "0", "1" + "0" * 400]),
    "variant": st.sampled_from(["xywh", "LTRB"]),
    "seed": st.just("seven"),
    **dict.fromkeys(NOISE_KEYS, st.sampled_from(["1.5", "-0.2", "nan", "inf", "-inf", "1e400", "low"])),
    "agent": st.sampled_from(
        ["0 10 10 1:2", "0 nan 12 1:30:50", "0 10 -1 1:30:50", "a 10 12 1:30:50", "0 10 12 5:1:1 3:1:1", "0 10 12"]
    ),
}


@st.composite
def scene_line(draw):
    """Mostly settings and agents, some blank or comment lines; one in ten is malformed."""
    bad = draw(st.integers(0, 9)) == 0
    kind = draw(st.integers(0, 3))
    if kind == 0:
        bare = ["bogus = 1", "oops", "= 5", "agent", "seed", "frames"]
        return draw(st.sampled_from(bare if bad else ["", "   ", "# a = 1"]))
    key = draw(st.sampled_from([*sorted(GOOD), "agent", "agent", "agent", "agent"]))  # custom needs agents
    line = f"{key} = {draw((BAD if bad else GOOD)[key])}"
    return draw(st.sampled_from([line, f"  {line}  ", f"{line}  # note", line.replace(" = ", "=")]))


SCENE_FILES = st.lists(scene_line(), max_size=14).map("\n".join)


def last_setting(text, key):
    """The value of ``key`` on the last line that sets it, or None."""
    value = None
    for line in text.splitlines():
        k, eq, v = line.split("#", 1)[0].partition("=")
        if eq and k.strip() == key:
            value = v.strip()
    return value


class TestParseScene:
    @settings(max_examples=600, deadline=None)
    @given(SCENE_FILES)
    def test_equals_the_hand_written_reader(self, text):
        scenario = last_setting(text, "scenario")
        if scenario in BUILT_IN and last_setting(text, "agent") is not None:
            # the hand-written reader ignored the agent lines of a built-in scene
            with pytest.raises(ParseError):
                parse_scene(text)
            return
        try:
            want = parse_scenario_config(text, "scene.cfg")
        except (ValueError, OverflowError):  # a built-in scene past the float range overflowed
            with pytest.raises(ValueError):
                parse_scene(text)
            return
        want_cfg, want_noise = want
        if scenario in ("occluded-crossing", "exit"):
            # the hand-written reader dropped these scenes' seed, a negative one too
            seed = int(last_setting(text, "seed") or 0)
            if seed < 0:
                with pytest.raises(ParseError, match="seed must be >= 0"):
                    parse_scene(text)
                return
            want_cfg = replace(want_cfg, seed=seed)
        assert parse_scene(text) == (want_cfg, want_noise)

    def test_settings_a_file_leaves_out_keep_the_dataclass_defaults(self):
        cfg, noise = parse_scene("scenario = crossing\n")
        assert (cfg.frames, cfg.width, cfg.height, cfg.variant, cfg.seed) == (60, 200, 200, "ltrb", 0)
        assert noise == NoiseConfig()

    def test_last_of_repeated_settings_wins_even_after_a_bad_value(self):
        cfg, noise = parse_scene("frames = abc\nframes = 12\nfp_rate = 2\nfp_rate = 0.5\nagent = 0 10 12 1:30:50\n")
        assert cfg.frames == 12 and noise.fp_rate == 0.5

    @pytest.mark.parametrize(
        "text, line",
        [
            ("scenario = custom\nframes = abc\n", 2),
            ("# scene\n\nnot a setting\n", 3),
            ("frames\nframes = 12\nagent = 0 10 12 1:30:50\n", 1),  # a later setting does not mend it
            ("bogus = 1\n", 1),
            ("scenario = flying\n", 1),
            ("agent = 0 10 12 1:30:50\nagent = 0 10 10 1:2\n", 2),
            ("frames = 5\n\nagent = 0 nan 12 1:30:50\n", 3),
        ],
    )
    def test_a_bad_line_is_named(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: ") as info:
            parse_scene(text)
        assert info.value.line_no == line


class TestSimulateSceneErrors:
    @pytest.mark.parametrize(
        "setting",
        ["frames = abc", "no equals sign", "bogus = 1", "agent = 0 10 10 1:2", "agent = 0 nan 12 1:30:50"],
    )
    def test_bad_line_exits_2_with_path_and_line(self, tmp_path, capsys, setting):
        config = tmp_path / "scene.cfg"
        config.write_text(f"# a scene\nscenario = custom\n{setting}\nagent = 0 10 12 1:30:50\n")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {config}: line 3: ")
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["crossing", "occluded-crossing", "exit", "custom"])
    def test_scene_too_large_to_simulate_exits_2(self, tmp_path, capsys, scenario):
        # numpy refuses this size without allocating; the bound refuses it before numpy sees it
        config = tmp_path / "scene.cfg"
        agent = "agent = 0 10 12 1:30:50\n" if scenario == "custom" else ""
        config.write_text(f"scenario = {scenario}\nframes = {10**11}\n{agent}")
        assert main(["simulate", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and str(10**11) in err and str(2**22) in err

    def test_agent_frames_bound_names_both_numbers(self):
        agents = tuple(AgentSpec(width=4, height=4, waypoints=((1, 9.0, 9.0),)) for _ in range(3))
        with pytest.raises(ValueError, match=f"{3 * 10**11}.*{2**22}"):
            ScenarioConfig(width=50, height=50, frames=10**11, agents=agents)

    @pytest.mark.parametrize(
        "scenario, side",
        [
            ("crossing", "width"),
            ("crossing", "height"),
            ("crossing", "frames"),
            ("occluded-crossing", "height"),  # its width takes no arithmetic
            ("occluded-crossing", "frames"),
            ("exit", "width"),
            ("exit", "height"),
            ("exit", "frames"),
        ],
    )
    def test_built_in_scene_past_the_float_range_exits_2(self, tmp_path, capsys, scenario, side):
        # was an OverflowError traceback from the builder's arithmetic
        config = tmp_path / "scene.cfg"
        config.write_text(f"scenario = {scenario}\n{side} = 1{'0' * 400}\n")
        assert main(["simulate", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and side in err


class TestSettingsNameTheirLine:
    @pytest.mark.parametrize(
        "setting, message",
        [
            ("width = -5", "width: width must be finite and >= 1, got -5"),
            ("fp_rate = 2", "fp_rate: fp_rate must lie in [0, 1]"),
            ("variant = xywh", "variant: unknown variant: 'xywh'"),
            ("seed = -1", "seed: seed must be >= 0, got -1"),
        ],
    )
    def test_refused_setting_exits_2_with_path_and_line(self, tmp_path, capsys, setting, message):
        config = tmp_path / "scene.cfg"
        config.write_text(f"scenario = crossing\n{setting}\nframes = 20\n")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {config}: line 2: {message}\n"
        assert not out.exists()

    def test_negative_seed_option_exits_2(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text("scenario = crossing\nseed = 4\n")
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--seed", "-3", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("scenario", BUILT_IN)
    def test_agent_line_in_a_built_in_scene_exits_2(self, tmp_path, capsys, scenario):
        # the scenario may follow the agent lines: the first one is named
        config = tmp_path / "scene.cfg"
        config.write_text(f"# a scene\nagent = 0 10 10 1:5:5\nagent = 0 10 10 1:9:9\nscenario = {scenario}\n")
        assert main(["simulate", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        want = f"error: {config}: line 2: agent lines need scenario 'custom', not '{scenario}'\n"
        assert capsys.readouterr().err == want

    def test_scene_refused_only_as_a_whole_names_the_path(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        frames = 2**21 + 1  # allowed alone, too many for two agents
        config.write_text(f"frames = {frames}\nagent = 0 10 12 1:30:50\nagent = 1 10 12 1:60:50\n")
        assert main(["simulate", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        want = f"error: {config}: {2 * frames} agent-frames exceed the {2**22} a scene may hold\n"
        assert capsys.readouterr().err == want


NOISY = "center_noise = 2\nsize_noise = 0.5\nfn_rate = 0.3\nfp_rate = 0.1\n"


class TestSeedReachesEveryScenario:
    @pytest.mark.parametrize(
        "scenario, build", [("occluded-crossing", occluded_crossing_scenario), ("exit", exit_scenario)]
    )
    def test_file_seed_drives_the_noise(self, tmp_path, scenario, build):
        texts = {}
        for seed in (1, 5):
            config = tmp_path / f"{seed}.cfg"
            config.write_text(f"scenario = {scenario}\nseed = {seed}\n{NOISY}")
            out = tmp_path / str(seed)
            assert main(["simulate", str(config), "--out-dir", str(out)]) == 0
            texts[seed] = (out / "preds.csv").read_text()
            cfg = build(frames=60)
            _, oracle = generate(cfg)
            noise = NoiseConfig(center_noise_sigma=2, size_noise_sigma=0.5, fn_rate=0.3, fp_rate=0.1)
            dets = perturb(oracle, noise, seed, image_size=(cfg.width, cfg.height), variant=cfg.variant)
            assert texts[seed] == write_predictions(cfg.variant, dets)
        assert texts[1] != texts[5]


SCIPY_FREE = """
import json, sys
from motkit.cli import main
out = sys.argv[1]
loaded = ["scipy" in sys.modules]
assert main(["simulate", out + "/scene.cfg", "--out-dir", out]) == 0
loaded.append("scipy" in sys.modules)
assert main(["track", out + "/preds.csv", "--out", out + "/tracks.txt"]) == 0
loaded.append("scipy" in sys.modules)
assert main(["eval", out + "/gt.txt", out + "/tracks.txt", "--json"]) == 0
loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_scipy_loads_only_when_eval_scores(tmp_path, capsys):
    (tmp_path / "scene.cfg").write_text("scenario = crossing\nseed = 3\n" + NOISY)
    src = Path(motkit.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE, str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    *_, scores, loaded = result.stdout.splitlines()
    assert json.loads(loaded) == [False, False, False, True]
    # the same scores as an in-process run, where the test modules import scipy up front
    assert "scipy" in sys.modules
    assert main(["eval", str(tmp_path / "gt.txt"), str(tmp_path / "tracks.txt"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(scores)
