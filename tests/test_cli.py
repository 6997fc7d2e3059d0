import hashlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
import typing
from dataclasses import is_dataclass, replace
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavecap import cli, storage
from wavecap.calibrate import calibrate
from wavecap.cli import main
from wavecap.chain import ChainSpec, RegisterSpec
from wavecap.storage import load_dataset, parse_config_text
from wavecap.sweep import SweepDataset, SweepSpec
from wavecap.waveform import PllOutputSpec

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    return main(list(argv))


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_unknown_preset_fails(tmp_path, capsys):
    code = run("sweep", "--config", "preset:nope", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "no preset named" in capsys.readouterr().err


def test_sweep_preset_writes_dataset(tmp_path):
    out = tmp_path / "run"
    assert run("sweep", "--config", "preset:fig3c", "--out", str(out), "--quiet") == 0
    ds = load_dataset(out)
    assert ds.n_frames == 256
    assert (out / "frames.pgm").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "sweep"


def test_sweep_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("sweep", "--config", "preset:fig3c", "--out", str(out), "--quiet") == 0
    ha = hashlib.sha256((a / "frames.csv").read_bytes()).hexdigest()
    hb = hashlib.sha256((b / "frames.csv").read_bytes()).hexdigest()
    assert ha == hb


# sha256 of preset outputs, recorded before sweeps captured the unshifted
# source at t0 - n*dt and before frame bits were written in bulk
GOLDEN = [
    ("sweep", "fig3a", "frames.csv",
     "1c476209e98c8c9f204b228f81f6589edf4ca4361e69997a81b8f8d113ec431d"),
    ("sweep", "fig3c", "frames.csv",
     "6ebbfe10b9dea53da0a6ceebe1452dc5fe1d1f2b4d2f4296647c626c7208c080"),
    ("ro", "appendix-ro19", "node_0/frames.csv",
     "534a72bbd79309e40fb69a9bc4d738e8cf19e1d0c6ecd869f8391548a47b4672"),
    ("ro", "appendix-ro19", "node_0_stitched.csv",
     "b093dc24ea25f454f2c360914e1e941683bbf3057e2644b149fd26112c345725"),
    # recorded before specs were written and read from their dataclass fields
    ("sweep", "fig3a", "spec.config",
     "b8ec0dbf96c63a2211be0e26246ecae16490b608621159200dbb061364b93535"),
    ("sweep", "fig3c", "spec.config",
     "7b036cdba07c34a4cf6ebe5fe34e9dd56ef2666642f51a29ac5f052deb9cb9ce"),
    ("ro", "appendix-ro19", "node_0/spec.config",
     "e5d064d042c3e010a97179d777b9726a1e2a227b758b36701f735ea0345ed5b5"),
    # recorded before capture grouped the frames of a call by edge window
    ("correct", "fig6", "frames.csv",
     "4aa11eb9e39bd10d71d478beacc45437bc6b12c3620acf31d7cc5b69b9c63bd6"),
    ("ro", "fig7", "node_0/frames.csv",
     "266b00fc51298c0724672f0343bc8294a2508b8f710eceb05036f3fc6a840259"),
    ("ro", "fig7", "node_1/frames.csv",
     "4fd9b087413c8112d2fbefe77461e544f2d8f399bbe5b8334f114548a1bb6503"),
    ("ro", "fig7", "node_2/frames.csv",
     "fc6df5c07d0fc871060d48690aaa1b708cac1da0ce830fa82467cab944d40b25"),
    # recorded before a dataset was held as one bits matrix
    ("sweep", "fig3a", "times.csv",
     "4a152a806c1fd5f2af51774c92c0fae711e39ff4f6bbf22f7017e4139f9bca6e"),
    ("ro", "appendix-ro19", "node_0/times.csv",
     "a6ad040e45d3d70b376eb77bb3780a80ab787d78fea120807c2aaa6cb6a2f5e8"),
    # recorded before the transfer function grouped the pooled index matrix
    ("calibrate", "fig4", "transfer.csv",
     "75af167655edaa64613dad97b3fe5106780f1d6a82377212a7814b46dfe2d173"),
    # recorded before a jitter-free sweep drew its dead cycles in one call
    ("sweep", "fig3c", "times.csv",
     "c6e3943909ed0f09ca1353fdb984dd3e1c8f2c7d2447a67de830f399b7e789d8"),
    ("correct", "fig6", "times.csv",
     "c6e3943909ed0f09ca1353fdb984dd3e1c8f2c7d2447a67de830f399b7e789d8"),
    # recorded before the edge list was formatted in whole-array passes
    ("ro", "appendix-ro19", "node_0_edges.csv",
     "76428a28ee8040e0f3a7deb27f36bb2f836ce0899aa65f22fc97cc3aec70cd74"),
    ("ro", "fig7", "node_0_edges.csv",
     "f7a6d3ca109f9fba99b00127e90f25fb803a877c3428a826d0fdbca04fc180fd"),
    ("ro", "fig7", "node_1_edges.csv",
     "914491cbcecaac8a489ae449ea9ef533a6fc88d4d0935e89f5e1174a36f249e6"),
    ("ro", "fig7", "node_2_edges.csv",
     "04380394ed4e078755ee0d0cceaa9eee17d86cb92e27bc27c48f3819ba6b52ce"),
]


@pytest.mark.parametrize("command,preset,name,sha", GOLDEN)
def test_preset_output_is_pinned(tmp_path, command, preset, name, sha):
    out = tmp_path / "run"
    assert run(command, "--config", f"preset:{preset}", "--out", str(out), "--quiet") == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha


def test_calibrate_report_is_pinned(tmp_path):
    # recorded before the transfer function grouped the pooled index matrix;
    # single_shot_fall_ps is the only output of the falling transfer function
    out = tmp_path / "cal"
    assert run("calibrate", "--config", "preset:fig4", "--out", str(out), "--quiet") == 0
    assert json.loads((out / "report.json").read_text())["recovered"] == {
        "tau_rise_ps": 4.905101015209875,
        "tau_rise_err_ps": 0.0039363565800153025,
        "tau_fall_ps": 4.541659658192305,
        "tau_fall_err_ps": 0.0041584828707085485,
        "single_shot_rise_ps": 29.69213359854559,
        "single_shot_fall_ps": 28.972013635666713,
    }


def preset_text(name):
    return (resources.files("wavecap.presets") / f"{name}.config").read_text()


def ro19_on_fig4_chain(tmp_path):
    """appendix-ro19's ring on fig4's chain (k 1300, tau 4.91/4.54 ps, sigma
    0.02 ps), whose stitched pulses spread in width."""
    ring = [ln for ln in preset_text("appendix-ro19").splitlines() if not ln.startswith("chain.")]
    chain = [ln for ln in preset_text("fig4").splitlines() if ln.startswith("chain.")]
    cfg = tmp_path / "ro19-fig4.config"
    cfg.write_text("\n".join(ring + chain) + "\n")
    return str(cfg)


# recorded, without runtime_s, before ro stitched each node once and the
# pulse rules of shrink_analysis and measure_node_timescale became constants
PINNED_REPORTS = [
    ("shrink", "preset:fig3c", {
        "kind": "shrink",
        "truth": {"rate": 0.07535641547861509},
        "recovered": {"rate": 0.07537536174118771, "n_pulses": 831},
    }),
    ("correct", "preset:fig6", {
        "kind": "correct",
        "alpha": 0.9246246382588122,
        "measured_rate": 0.07537536174118771,
        "recovered": {
            "uncorrected_mean_abs_err": 43.06298449612403,
            "corrected_mean_abs_err": 0.627906976744186,
            "improvement": 0.9854188699624221,
        },
    }),
    ("ro", "preset:appendix-ro19", {
        "kind": "ro",
        "truth": {"tau_gate_ps": 240.0, "n": 19},
        "recovered": {"node_0_per_inverter_ps": 240.0, "node_0_err_ps": 0.0},
    }),
    ("ro", ro19_on_fig4_chain, {
        "kind": "ro",
        "truth": {"tau_gate_ps": 240.0, "n": 19},
        "recovered": {
            "node_0_per_inverter_ps": 215.83615667074665,
            "node_0_err_ps": 5.539205873153572,
        },
    }),
]


@pytest.mark.parametrize(
    "command,config,want",
    PINNED_REPORTS,
    ids=["shrink-fig3c", "correct-fig6", "ro-appendix-ro19", "ro-ro19-on-fig4-chain"],
)
def test_report_is_pinned(tmp_path, command, config, want):
    config = config if isinstance(config, str) else config(tmp_path)
    out = tmp_path / "run"
    assert run(command, "--config", config, "--out", str(out), "--quiet") == 0
    report = json.loads((out / "report.json").read_text())
    del report["runtime_s"]
    assert report == want


def test_ro_stitches_each_captured_node_once(tmp_path, monkeypatch):
    from wavecap import ringosc

    calls, stitch = [], ringosc.stitch_frames

    def counted(*args):
        calls.append(args)
        return stitch(*args)

    # both bindings: cmd_ro's import and ringosc's own module global
    monkeypatch.setattr(cli, "stitch_frames", counted)
    monkeypatch.setattr(ringosc, "stitch_frames", counted)
    cfg = tmp_path / "ring.config"
    cfg.write_text(
        preset_text("appendix-ro19").replace("ro.capture_nodes = 0", "ro.capture_nodes = 0,7")
    )
    assert run("ro", "--config", str(cfg), "--out", str(tmp_path / "ring"), "--quiet") == 0
    assert len(calls) == 2


def test_seed_override_changes_frames(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("sweep", "--config", "preset:fig3a", "--out", str(a), "--quiet") == 0
    assert (
        run("sweep", "--config", "preset:fig3a", "--out", str(b), "--seed", "7", "--quiet")
        == 0
    )
    assert not np.array_equal(load_dataset(a).bits, load_dataset(b).bits)


def test_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WAVECAP_OUT_ROOT", str(tmp_path))
    assert run("sweep", "--config", "preset:fig3c", "--out", "rel", "--quiet") == 0
    assert (tmp_path / "rel" / "frames.csv").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    text = (resources.files("wavecap.presets") / "fig3c.config").read_text()
    cfg = tmp_path / "bad.config"
    cfg.write_text(text + "sweep.bogus_knob = 1\n")
    code = run("sweep", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_removed_shrink_key_rejected(tmp_path, capsys):
    text = (resources.files("wavecap.presets") / "fig3c.config").read_text()
    cfg = tmp_path / "old.config"
    cfg.write_text(text + "shrink.min_run = 15\n")
    assert run("shrink", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("chain.entry_delay_ps", "inf"),
        ("chain.tau_rise_ps", "nan"),
        ("source.phase_offset_ps", "inf"),
        ("source.period_jitter_sigma_ps", "inf"),
        ("source.frequency_hz", "0"),
        ("regs.clock_jitter_sigma_ps", "inf"),
        ("sweep.dt_ps", "inf"),
        ("chain.entry_min_pulse_ps", "1e308"),
        ("source.phase_offset_ps", "1e308"),
        ("source.period_jitter_sigma_ps", "1e17"),
        *(("chain.dnl_ramp", v) for v in ("nan", "inf", "-inf", "-1", "1e308")),
        *((f"{spec}.seed", "-1") for spec in ("chain", "regs", "sweep", "ring")),
    ],
)
def test_non_finite_or_zero_config_value_exits_2(tmp_path, capsys, key, value):
    command, preset = ("ro", "fig7") if key.startswith("ring.") else ("correct", "fig6")
    cfg = set_config_values(tmp_path, preset, {key: value})
    # an escaping exception would fail the test instead of returning
    assert run(command, "--config", cfg, "--out", str(tmp_path / "x")) == 2
    assert key.split(".")[1] in capsys.readouterr().err


def set_config_values(tmp_path, preset, edits):
    text = (resources.files("wavecap.presets") / f"{preset}.config").read_text()
    for key, value in edits.items():
        text, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1
    cfg = tmp_path / "bad.config"
    cfg.write_text(text)
    return str(cfg)


@pytest.mark.parametrize(
    "key,value",
    [
        ("ring.tau_gate_ps", "inf"),
        ("ro.t_start_ps", "1e308"),
        ("ring.tau_gate_ps", "1e300"),
        ("ring.tau_sigma_ps", "1e300"),
        ("ring.tau_fall_extra_ps", "1e300"),
    ],
)
def test_ring_time_beyond_femtoseconds_exits_2(tmp_path, capsys, key, value):
    cfg = set_config_values(tmp_path, "fig7", {key: value})
    assert run("ro", "--config", cfg, "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert key.split(".")[1] in err and "finite" in err


def test_ring_duration_beyond_int64_femtoseconds_exits_2(tmp_path, capsys):
    # a 1e12 ps gate keeps the event count small, so only the int64 bound on
    # the 1e16 ps duration can stop the run
    text = (resources.files("wavecap.presets") / "fig7.config").read_text()
    cfg = tmp_path / "ring.config"
    cfg.write_text(
        text.replace("ring.tau_gate_ps = 240.0", "ring.tau_gate_ps = 1e12")
        .replace("ro.t_start_ps = 15000.0", "ro.t_start_ps = 1e16")
    )
    assert run("ro", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
    assert "duration" in capsys.readouterr().err


def never_called(*args, **kwargs):
    raise AssertionError("called on a config that should have been rejected")


@pytest.mark.parametrize("command,preset", [("sweep", "fig3a"), ("correct", "fig6"), ("ro", "fig7")])
def test_chain_past_the_device_bound_exits_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                             command, preset):
    from wavecap import sweep
    from wavecap.chain import MAX_CHAIN_LEN

    for module in (cli, sweep):
        monkeypatch.setattr(module, "sample_chain", never_called)
        monkeypatch.setattr(module, "sample_registers", never_called)
    cfg = set_config_values(tmp_path, preset, {"chain.k": MAX_CHAIN_LEN + 1})
    out = tmp_path / "x"
    assert run(command, "--config", cfg, "--out", str(out)) == 2
    assert "device bound: " in capsys.readouterr().err
    assert not out.exists()


# fig4 sweeps 512 steps per channel, so 1,954 channels are the first past the bound
@pytest.mark.parametrize("n_channels", [1954, 99999999999])
def test_channels_past_the_frame_bound_exit_2_before_sweeping(tmp_path, capsys, monkeypatch,
                                                             n_channels):
    monkeypatch.setattr(cli, "run_sweep", never_called)
    cfg = set_config_values(tmp_path, "fig4", {"calibrate.n_channels": n_channels})
    out = tmp_path / "x"
    assert run("calibrate", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "calibrate.n_channels * sweep.n_steps > 1000000, the frame bound" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["calibrate.n_channels", "calibrate.min_run"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_calibrate_options_exit_2_before_sweeping(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.setattr(cli, "run_sweep", never_called)
    cfg = set_config_values(tmp_path, "fig4", {key: value})
    out = tmp_path / "x"
    assert run("calibrate", "--config", cfg, "--out", str(out)) == 2
    assert f"error: {key} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edits,key",
    [
        ({"ro.t_capture_ps": "0"}, "ro.t_capture_ps"),
        ({"ro.t_capture_ps": "-5000.0"}, "ro.t_capture_ps"),
        ({"ro.n_frames": "0"}, "ro.n_frames"),
        ({"ro.n_frames": "1000001"}, "ro.n_frames"),  # MAX_FRAMES + 1
        ({"ro.n_frames": "100000000000", "ro.t_capture_ps": "0"}, "ro.t_capture_ps"),
    ],
)
def test_ro_frame_options_exit_2_before_the_ring_is_simulated(tmp_path, capsys, monkeypatch,
                                                              edits, key):
    monkeypatch.setattr(cli, "simulate_ring", never_called)
    cfg = set_config_values(tmp_path, "appendix-ro19", edits)
    out = tmp_path / "x"
    assert run("ro", "--config", cfg, "--out", str(out)) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edits,messages",
    [
        # a 1e15 ps phase step stretches the source past int64 fs
        ({"source.frequency_hz": "0.001", "sweep.dt_ps": "1e15", "sweep.n_steps": "10000"},
         ("a 9.999", "does not fit int64")),
        # relock dead cycles of 1e15 ps frames carry the last frame time past it
        ({"chain.tau_rise_ps": "1e12", "chain.tau_fall_ps": "1e12", "source.frequency_hz": "1.0",
          "sweep.t_capture_ps": "1e15", "sweep.n_steps": "8"},
         ("a frame time of 1.893", "does not fit int64")),
        ({"source.frequency_hz": "1.0", "source.phase_offset_ps": "-1e16"},
         ("phase_offset_ps -1e+16", "does not fit int64")),
        ({"sweep.relock_dead_cycles": "2,9223372036854775806"},
         ("a frame time of 1.2", "does not fit int64")),
        # the dead-cycle draw itself is int64
        ({"sweep.relock_dead_cycles": "2,9223372036854775808"}, ("dead-cycle range",)),
    ],
    ids=["source-duration", "dead-cycles", "phase-offset", "dead-cycle-sum", "dead-cycle-range"],
)
def test_sweep_beyond_int64_exits_2(tmp_path, capsys, edits, messages):
    cfg = set_config_values(tmp_path, "fig3a", edits)
    out = tmp_path / "x"
    assert run("sweep", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("chain.entry_delay_ps", "1e300", "does not fit int64"),
        ("chain.tau_sigma_ps", "99999999", "edges"),
        ("sweep.crystal_jitter_sigma_ps", "99999999", "edges"),
        ("source.period_jitter_sigma_ps", "1e9", "no ordered jitter draw"),
        ("chain.tau_sigma_ps", "1e300", "does not fit int64 femtoseconds"),
    ],
)
def test_unbounded_source_exits_2(tmp_path, capsys, key, value, message):
    # each edit once made the source generator run without bound
    cfg = set_config_values(tmp_path, "fig6", {key: value})
    assert run("correct", "--config", cfg, "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert message in err
    if value == "99999999":  # the run_sweep look-back names the term behind it
        assert "look-back" in err and key.split(".")[1] in err


# ROADMAP item 10's sizing guard: each key that sizes a run's work, set far
# past its bound, exits 2 with a message.  The cases run in one child
# interpreter whose address space is capped, so a regression that allocates
# without bound fails there instead of exhausting the host.
SIZING_KEYS = ("chain.k", "sweep.n_steps", "calibrate.n_channels", "ro.n_frames", "ring.n",
               "ro.t_capture_ps", "source.frequency_hz")
PRESET_COMMANDS = {"fig3a": "sweep", "fig3c": "shrink", "fig4": "calibrate", "fig6": "correct",
                   "fig7": "ro", "appendix-ro19": "ro"}

SIZING_CHILD = """
import contextlib, io, json, resource, sys, tempfile
sys.path.insert(0, sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from wavecap.cli import main
outcomes = []
for command, cfg in json.loads(sys.argv[2]):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        try:
            code = main([command, "--config", cfg, "--out", tmp + "/out", "--quiet"])
        except Exception as exc:  # not a WavecapError, so a bug: named in the outcome
            code = f"{type(exc).__name__}: {exc}"
    outcomes.append([code, err.getvalue()])
print(json.dumps(outcomes))
"""


def test_sizing_keys_past_their_bounds_exit_2(tmp_path):
    cases = {}
    for preset, command in PRESET_COMMANDS.items():
        keys = [k for k in SIZING_KEYS if re.search(rf"^{re.escape(k)} = ", preset_text(preset), re.M)]
        for key in keys:
            for value in ("99999999999", "1e30"):
                d = tmp_path / str(len(cases))
                d.mkdir()
                cases[preset, key, value] = command, set_config_values(d, preset, {key: value})
    assert len(cases) == 42
    done = subprocess.run(
        [sys.executable, "-B", "-c", SIZING_CHILD, str(ROOT / "src"), json.dumps(list(cases.values()))],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    outcomes = dict(zip(cases, json.loads(done.stdout)))
    bad = {case: out for case, out in outcomes.items()
           if not (out[0] == 0 or (out[0] == 2 and out[1].startswith("error: ")))}
    assert bad == {}


def test_shrink_and_report(tmp_path, capsys):
    out = tmp_path / "sh"
    assert run("shrink", "--config", "preset:fig3c", "--out", str(out), "--quiet") == 0
    assert run("report", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS") for line in lines if line)


def test_report_flags_failures(tmp_path, capsys):
    out = tmp_path / "sh"
    assert run("shrink", "--config", "preset:fig3c", "--out", str(out), "--quiet") == 0
    rep = json.loads((out / "report.json").read_text())
    rep["recovered"]["rate"] = 0.5
    (out / "report.json").write_text(json.dumps(rep))
    assert run("report", str(out)) == 1
    assert "FAIL" in capsys.readouterr().out


def set_recovered(**values):
    return lambda rep: rep.setdefault("recovered", {}).update(values)


# each verdict branch of `wavecap report`: the preset's line, then one edit that fails it
@pytest.mark.parametrize(
    "command,preset,edits,line,tamper",
    [
        ("calibrate", "fig4", {}, "vs 30 ps +-20%", set_recovered(single_shot_rise_ps=40.0)),
        ("calibrate", "fig4", {"sweep.crystal_jitter_sigma_ps": "0.0"},
         "vs quantization floor 2 ps", set_recovered(single_shot_rise_ps=2.5)),
        ("correct", "fig6", {}, "need 50%", set_recovered(improvement=0.4)),
        ("ro", "fig7", {}, "no timescale measurement",
         set_recovered(node_0_per_inverter_ps=250.0)),
        # a sweep has at least two steps
        ("sweep", "fig3a", {}, "512 frames", lambda rep: rep.update(n_frames=1)),
    ],
    ids=["calibrate-jitter", "calibrate-floor", "correct-recovery", "ro-trace", "sweep"],
)
def test_report_verdicts(tmp_path, capsys, command, preset, edits, line, tamper):
    out = tmp_path / "run"
    cfg = set_config_values(tmp_path, preset, edits)
    assert run(command, "--config", cfg, "--out", str(out), "--quiet") == 0
    assert run("report", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(v.startswith(f"PASS  {out} [{command}] ") for v in lines)
    assert any(line in v for v in lines)
    if tamper is None:
        return
    rep = json.loads((out / "report.json").read_text())
    tamper(rep)
    (out / "report.json").write_text(json.dumps(rep))
    assert run("report", str(out)) == 1
    assert [v[:4] for v in capsys.readouterr().out.splitlines()].count("FAIL") == 1


def test_correct_recovery_mode(tmp_path):
    out = tmp_path / "corr"
    assert run("correct", "--config", "preset:fig6", "--out", str(out), "--quiet") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["recovered"]["improvement"] >= 0.5
    # output dataset has the corrected frames on disk
    ds = load_dataset(out)
    assert ds.n_frames == 256


def test_correct_recovery_report_is_pinned(tmp_path):
    # recorded before correction and fidelity became one pass per dataset
    out = tmp_path / "corr"
    assert run("correct", "--config", "preset:fig6", "--out", str(out), "--quiet") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["alpha"] == 0.9246246382588122
    assert rep["recovered"]["uncorrected_mean_abs_err"] == 43.06298449612403
    assert rep["recovered"]["corrected_mean_abs_err"] == 0.627906976744186


def test_correct_filter_mode_preserves_phase_index(tmp_path):
    raw = tmp_path / "raw"
    out = tmp_path / "fixed"
    assert run("sweep", "--config", "preset:fig3c", "--out", str(raw), "--quiet") == 0
    assert (
        run("correct", "--config", "preset:fig6", "--out", str(out), str(raw), "--quiet")
        == 0
    )
    def index_column(d):
        return [row.partition(b",")[0] for row in (d / "frames.csv").read_bytes().splitlines()]

    assert index_column(raw) == index_column(out)
    assert (raw / "times.csv").read_bytes() == (out / "times.csv").read_bytes()
    assert np.any(load_dataset(raw).bits != load_dataset(out).bits)


def test_ro_fig7_artifacts(tmp_path):
    out = tmp_path / "ring"
    assert run("ro", "--config", "preset:fig7", "--out", str(out), "--quiet") == 0
    for node in (0, 1, 2):
        assert (out / f"node_{node}_edges.csv").exists()
        assert (out / f"node_{node}_stitched.csv").exists()
        assert (out / f"node_{node}_stitched.pgm").read_bytes().startswith(b"P5")
        assert load_dataset(out / f"node_{node}").n_frames == 16


def test_ro_appendix_recovers_gate_delay(tmp_path):
    out = tmp_path / "ro19"
    assert run("ro", "--config", "preset:appendix-ro19", "--out", str(out), "--quiet") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["recovered"]["node_0_per_inverter_ps"] == pytest.approx(240.0, abs=6.0)
    assert run("report", str(out)) == 0


# 1,740 taps of 9 ps read 15,660 ps back: past 15,000 ps, the old fixed start
LONG_CHAIN_RING = """format_version = 1
ring.n = 19
ring.initial_state = pulse
ro.n_frames = 8
chain.k = 1740
chain.tau_rise_ps = 9.0
chain.tau_fall_ps = 9.0
"""


def test_ro_default_start_covers_the_chain(tmp_path, capsys):
    cfg = tmp_path / "ring.config"
    cfg.write_text(LONG_CHAIN_RING)
    assert run("ro", "--config", str(cfg), "--out", str(tmp_path / "auto"), "--quiet") == 0
    assert load_dataset(tmp_path / "auto" / "node_0").capture_time_fs[0] == 15_660_000
    # an explicit start is kept, and one too early still names the uncovered window
    cfg.write_text(LONG_CHAIN_RING + "ro.t_start_ps = 1000.0\n")
    assert run("ro", "--config", str(cfg), "--out", str(tmp_path / "early")) == 2
    assert "waveform does not cover [-14660.0, 1000.0] ps" in capsys.readouterr().err
    assert not (tmp_path / "early").exists()


def test_calibrate_accepts_existing_datasets(tmp_path):
    dirs = []
    for ch in range(2):
        d = tmp_path / f"ch{ch}"
        assert (
            run(
                "sweep",
                "--config",
                "preset:fig3c",
                "--out",
                str(d),
                "--seed",
                str(1000 * ch),
                "--quiet",
            )
            == 0
        )
        dirs.append(str(d))
    out = tmp_path / "cal"
    assert (
        run("calibrate", "--config", "preset:fig4", "--out", str(out), *dirs, "--quiet")
        == 0
    )
    rep = json.loads((out / "report.json").read_text())
    assert rep["recovered"]["tau_rise_ps"] == pytest.approx(4.91, abs=0.05)
    # the report renders the calibration as the library does, and only so
    assert rep["recovered"] == calibrate(map(load_dataset, dirs), 15).summary()
    assert (out / "transfer.csv").read_text().startswith("index,t_ps,dt_ps")



@pytest.mark.parametrize("reorder", ["shuffled", "halved", "reversed"])
def test_calibrate_rejects_frames_out_of_phase_order(tmp_path, capsys, reorder):
    # a sweep whose frames.csv rows are out of phase order, its hashes valid
    good, bad, out = (tmp_path / name for name in ("good", "bad", "cal"))
    for d, seed in ((good, "0"), (bad, "1000")):
        assert run("sweep", "--config", "preset:fig3a", "--out", str(d), "--seed", seed, "--quiet") == 0
    header, *rows = (bad / "frames.csv").read_bytes().splitlines(keepends=True)
    if reorder == "halved":  # every index twice
        rows = [b"%d," % (n // 2) + row.partition(b",")[2] for n, row in enumerate(rows)]
    else:
        order = np.arange(len(rows))[::-1]
        if reorder == "shuffled":
            order = np.random.default_rng(5).permutation(len(rows))
        rows = [rows[n] for n in order]
    first = next(n for n, row in enumerate(rows) if not row.startswith(b"%d," % n))
    data = header + b"".join(rows)
    (bad / "frames.csv").write_bytes(data)
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest["hashes"]["frames.csv"] = hashlib.sha256(data).hexdigest()
    (bad / "manifest.json").write_text(json.dumps(manifest))
    assert run("calibrate", "--config", "preset:fig4", "--out", str(out), str(good), str(bad),
               "--quiet") == 2
    # row 1 is the header, so frame n is on row n + 2
    assert f"error: frames.csv row {first + 2}, byte " in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_makes_each_channel_only_when_it_is_reached(tmp_path, capsys, monkeypatch):
    # the second channel fails, so neither the third nor the fourth is made
    made = []

    def made_off_grid(make, *args):
        made.append(args)
        ds = make(*args)
        off_grid = replace(ds.sweep_spec, dt_ps=ds.sweep_spec.dt_ps + 1)
        return replace(ds, sweep_spec=off_grid) if len(made) == 2 else ds

    dirs = [str(tmp_path / f"ch{ch}") for ch in range(4)]
    for d in dirs:
        assert run("sweep", "--config", "preset:fig3a", "--out", d, "--quiet") == 0
    cfg = set_config_values(tmp_path, "fig4", {"calibrate.n_channels": "4"})
    monkeypatch.setattr(cli, "run_sweep", partial(made_off_grid, cli.run_sweep))
    assert run("calibrate", "--config", cfg, "--out", str(tmp_path / "cal"), "--quiet") == 2
    assert "dataset 2: sweep.dt_ps differs from dataset 1" in capsys.readouterr().err
    assert [sweep.seed for sweep, _, _ in made] == [0, 1000]

    made.clear()
    monkeypatch.setattr(cli, "load_dataset", partial(made_off_grid, cli.load_dataset))
    assert run("calibrate", "--config", cfg, "--out", str(tmp_path / "cal"), *dirs, "--quiet") == 2
    assert "dataset 2: sweep.dt_ps differs from dataset 1" in capsys.readouterr().err
    assert made == [(dirs[0],), (dirs[1],)]
    assert not (tmp_path / "cal").exists()


def test_calibrate_pools_channels_whose_wraps_start_one_apart(tmp_path, capsys):
    # at 105 MHz half of fig4's channels first see a rising edge at step 0 and
    # the rest 42 steps later, so their wrap counts differ by one
    cfg = set_config_values(tmp_path, "fig4", {"source.frequency_hz": "105000000.0"})
    out = str(tmp_path / "cal")
    assert run("calibrate", "--config", cfg, "--out", out, "--quiet") == 0
    assert run("report", out) == 0  # every check passes, each tau within 0.1 ps among them
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[3] for line in lines if "] tau_" in line] == ["tau_rise", "tau_fall"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mhz=st.integers(60, 200))
@example(mhz=63)
@example(mhz=105)
def test_calibrate_pools_at_any_source_frequency(mhz):
    # fig4 at two channels and --seed 0: the wrap bands of 63 and 105 MHz are
    # under 0.05 MHz wide, so they are given as examples
    with tempfile.TemporaryDirectory() as tmp:
        cfg = set_config_values(Path(tmp), "fig4", {"calibrate.n_channels": "2",
                                                    "source.frequency_hz": f"{mhz}e6"})
        assert run("calibrate", "--config", cfg, "--out", f"{tmp}/cal", "--quiet") == 0


def test_missing_config_file(tmp_path, capsys):
    code = run("sweep", "--config", str(tmp_path / "nope.config"), "--out", str(tmp_path))
    assert code == 2


def test_impossible_ring_config_exits_2(tmp_path, capsys):
    from importlib import resources

    text = (resources.files("wavecap.presets") / "appendix-ro19.config").read_text()
    cfg = tmp_path / "ring.config"
    cfg.write_text(text.replace("ring.min_pulse_ps = 50.0", "ring.min_pulse_ps = 300.0"))
    assert run("ro", "--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet") == 2
    assert "min_pulse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "report, message",
    [
        ({"kind": "calibrate"}, "truth"),
        ({"kind": "ro", "recovered": {"a": 1.0}, "truth": "x"}, "malformed ro report"),
        ([1], "unknown report kind"),
        (b"{not json", "not a readable JSON report"),
        ({"kind": "correct", "alpha": "x"}, "malformed correct report"),
        (
            {
                "kind": "calibrate",
                "truth": {"tau_rise_ps": 4.91, "tau_fall_ps": 4.54},
                "recovered": {"tau_rise_ps": 9.0, "tau_rise_err_ps": "e"},
            },
            "malformed calibrate report",
        ),
        ({"kind": "ro", "recovered": [1], "truth": {"tau_gate_ps": 240.0}}, "malformed ro report"),
        # a measured ro report with no per-inverter delay has nothing to check
        (
            {"kind": "ro", "truth": {"tau_gate_ps": 240, "n": 19}, "recovered": {"node_0_err_ps": 1.0}},
            "malformed ro report",
        ),
        # an unhashable kind is no kind at all
        ({"kind": []}, "unknown report kind"),
        ({"kind": {}}, "unknown report kind"),
    ],
)
def test_malformed_report_exits_2(tmp_path, capsys, report, message):
    data = report if isinstance(report, bytes) else json.dumps(report).encode()
    (tmp_path / "report.json").write_bytes(data)
    assert run("report", str(tmp_path)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper",
    [
        lambda hashes, outside: {k: v for k, v in hashes.items() if k != "spec.config"},
        lambda hashes, outside: {**hashes, "../outside.csv": outside},
        lambda hashes, outside: sorted(hashes.items()),
        # a dataset saved when the raster was a fourth payload
        lambda hashes, outside: {**hashes, "frames.pgm": outside},
    ],
    ids=["missing-spec", "outside-name", "list", "legacy-pgm"],
)
def test_tampered_manifest_exits_2(tmp_path, capsys, tamper):
    raw = tmp_path / "raw"
    assert run("sweep", "--config", "preset:fig3c", "--out", str(raw), "--quiet") == 0
    outside = tmp_path / "outside.csv"
    outside.write_bytes(b"x")
    manifest = json.loads((raw / "manifest.json").read_text())
    manifest["hashes"] = tamper(
        manifest["hashes"], hashlib.sha256(outside.read_bytes()).hexdigest()
    )
    (raw / "manifest.json").write_text(json.dumps(manifest))
    code = run("correct", "--config", "preset:fig6", "--out", str(tmp_path / "y"), str(raw))
    assert code == 2
    assert "hashes must name exactly" in capsys.readouterr().err


def test_unreadable_dataset_file_exits_2(tmp_path, capsys, raw_sweep):
    out = tmp_path / "y"
    for name in ("manifest.json", "times.csv"):
        path = tmp_path / "raw" / name
        kept = path.read_bytes()
        path.unlink()
        path.mkdir()  # a directory where the file should be
        assert run("correct", "--config", "preset:fig6", "--out", str(out), raw_sweep) == 2
        assert f"cannot read {path}" in capsys.readouterr().err
        assert not out.exists()
        path.rmdir()
        path.write_bytes(kept)
    assert run("correct", "--config", "preset:fig6", "--out", str(out), raw_sweep, "--quiet") == 0


def preset_config(tmp_path, preset, old="", new="", extra=""):
    from importlib import resources

    text = (resources.files("wavecap.presets") / f"{preset}.config").read_text()
    assert old in text
    cfg = tmp_path / f"{preset}-edited.config"
    cfg.write_text(text.replace(old, new) + extra)
    return str(cfg)


@pytest.mark.parametrize(
    "command, preset, old, new, key",
    [
        ("ro", "appendix-ro19", "ro.measure_timescale = true", "ro.measure_timescale = yes",
         "'ro.measure_timescale': expected true/false"),
        ("sweep", "fig3c", "chain.k = 1300", "chain.k = abc", "'chain.k': invalid literal"),
        ("ro", "fig7", "ro.capture_nodes = 0,1,2", "ro.capture_nodes = 5",
         "ro.capture_nodes [5] must lie in [0, 3)"),
        ("ro", "fig7", "ro.capture_nodes = 0,1,2", "ro.capture_nodes = -1",
         "ro.capture_nodes [-1] must lie in [0, 3)"),
        ("ro", "fig7", "ring.initial_state = zeros", "ring.initial_state = 1,x,0",
         "'ring.initial_state': invalid literal"),
        ("correct", "fig6", "correct.dilation_factor = auto", "correct.dilation_factor = big",
         "'correct.dilation_factor': could not convert"),
    ],
    ids=["measure-yes", "k-abc", "nodes-5", "nodes-minus-1", "initial-state", "dilation-big"],
)
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, command, preset, old, new, key):
    cfg = preset_config(tmp_path, preset, old, new)
    out = tmp_path / "x"
    assert run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# one config per domain error that no other test raises
@pytest.mark.parametrize(
    "command, preset, edits, extra, message",
    [
        ("calibrate", "fig4", {"kind": "continuous"}, "",
         "calibrate needs a config with kind = sweep"),
        ("sweep", "fig3a", {}, "chain.k 1300\n", "expected 'key = value'"),
        ("sweep", "fig3a", {"chain.k": "2", "chain.dnl_ramp": "1,1,1"}, "",
         "dnl_ramp longer than the chain"),
        # a 0.4 fs carry time would sample to 0 fs
        ("ro", "fig7", {"chain.tau_rise_ps": "0.0004", "chain.tau_fall_ps": "0.0004"}, "",
         "tau_rise_ps times the smallest dnl_ramp multiplier must be >= 1 fs"),
        # a run that ends past int64 fs; a period as long would fail first, as past the chain
        ("ro", "fig7", {"ro.t_start_ps": "1e305"}, "",
         "duration 1e+305 ps after release is not finite in int64 fs: ring.release_time_ps = 0.0 ps, "
         "ro.t_start_ps = 1e+305 ps, ro.n_frames = 16 frames of ro.t_capture_ps = 5000.0 ps"),
        ("ro", "appendix-ro19", {"ro.n_frames": "1"}, "",
         "node 0: not enough pulses to estimate a timescale in ro.n_frames = 1 frames of "
         "ro.t_capture_ps = 5000.0 ps"),
        # a valid 5 ms capture of a ring with more events than the simulator's budget
        ("ro", "appendix-ro19", {"ro.n_frames": "1000000"}, "",
         "error: event budget exceeded; runaway configuration: ring.n = 19 nodes over "
         "ro.n_frames = 1000000 frames of ro.t_capture_ps = 5000.0 ps\n"),
        # a 0.01 fs high level, which would round to a rise and fall at one femtosecond
        ("sweep", "fig3a", {"chain.tau_fall_ps": "4.91", "source.duty_cycle": "1e-9"}, "",
         "duty_cycle 1e-09 leaves a level of 1 fs or less"),
        # the frequency, not the preset's duty cycle, shrinks this level
        ("sweep", "fig3a", {"source.frequency_hz": "1e30"}, "",
         "duty_cycle 0.25 leaves a level of 1 fs or less at frequency_hz 1e+30"),
        # the chain's design constraints name their config keys
        ("sweep", "fig3a", {"chain.k": "99999999999"}, "",
         "invalid configuration: pulse survival: chain.k*(chain.tau_rise_ps-chain.tau_fall_ps) = "
         "36999999999.6 ps >= min(source.duty_cycle, 1-source.duty_cycle)/source.frequency_hz = "
         "2500.0 ps; device bound: chain.k = 99999999999 > 1740\n"),
        ("sweep", "fig3a", {"chain.k": "100"}, "",
         "invalid configuration: coverage: chain.k*chain.tau_fall_ps = 454.0 ps < "
         "sweep.t_capture_ps = 5000.0 ps\n"),
        # one 2.5 ns pulse, fixed in every frame, fills one 25-carry bin
        ("shrink", "fig3c", {"sweep.dt_ps": "0", "source.frequency_hz": "100000000.0",
                             "source.duty_cycle": "0.25", "source.phase_offset_ps": "3000.0"},
         "", "fewer than two populated bins"),
        # ro names the keys behind each error of its ring, its capture and its stitching;
        # a period the chain cannot span fails before the ring is simulated
        ("ro", "appendix-ro19", {"ro.t_start_ps": "0"}, "",
         "node 0: waveform does not cover [-5120.0, 0.0] ps in ro.n_frames = 150 frames of "
         "ro.t_capture_ps = 5000.0 ps from ro.t_start_ps = 0.0 ps (auto picks 5120.0 ps)"),
        ("ro", "appendix-ro19", {"ro.t_start_ps": "-1e9"}, "",
         "duration must exceed release_time: ring.release_time_ps = 0.0 ps, "
         "ro.t_start_ps = -1000000000.0 ps, ro.n_frames = 150 frames of ro.t_capture_ps"),
        ("ro", "fig7", {"ring.release_time_ps": "1e9"}, "",
         "duration must exceed release_time: ring.release_time_ps = 1000000000.0 ps"),
        ("ro", "appendix-ro19", {"ro.t_capture_ps": "1e30"}, "",
         "error: chain too short to cover the capture period: ro.t_capture_ps = 1e+30 ps on "
         "chain.k = 1024 taps of chain.tau_fall_ps = 5.0 ps\n"),
        ("ro", "appendix-ro19", {"chain.k": "10"}, "",
         "error: chain too short to cover the capture period: ro.t_capture_ps = 5000.0 ps on "
         "chain.k = 10 taps of chain.tau_fall_ps = 5.0 ps\n"),
        ("ro", "appendix-ro19", {"ro.t_capture_ps": "100000"}, "",
         "error: chain too short to cover the capture period: ro.t_capture_ps = 100000.0 ps on "
         "chain.k = 1024 taps of chain.tau_fall_ps = 5.0 ps\n"),
        ("ro", "appendix-ro19", {"ro.t_capture_ps": "1"}, "",
         "error: capture period shorter than one carry: ro.t_capture_ps = 1.0 ps on "
         "chain.k = 1024 taps of chain.tau_fall_ps = 5.0 ps\n"),
        ("ro", "fig7", {"ro.capture_nodes": "0,0"}, "", "ro.capture_nodes [0, 0] repeats a node"),
    ],
    ids=["kind", "no-equals", "dnl-ramp", "zero-delay", "ring-duration", "one-frame", "event-budget",
         "sub-fs-level", "frequency-1e30", "chain-keys", "coverage-keys", "one-bin",
         "start-too-early", "run-ends-before-release", "release-after-run", "period-past-int64",
         "chain-too-short", "period-past-chain", "period-under-a-carry", "repeated-node"],
)
def test_config_reaching_a_domain_error_exits_2(tmp_path, capsys, command, preset, edits, extra,
                                                message):
    cfg = set_config_values(tmp_path, preset, edits)
    with open(cfg, "a") as f:
        f.write(extra)
    out = tmp_path / "x"
    assert run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edits", [{"chain.k": "10"}, {"ro.t_capture_ps": "100000"},
                                   {"ro.t_capture_ps": "1"}],
                         ids=["chain-too-short", "period-past-chain", "period-under-a-carry"])
def test_ro_checks_the_chain_spans_the_period_before_simulating_the_ring(tmp_path, capsys,
                                                                          monkeypatch, edits):
    def never(*args):
        pytest.fail("simulate_ring ran on a capture period the chain cannot span")

    monkeypatch.setattr(cli, "simulate_ring", never)
    cfg = set_config_values(tmp_path, "appendix-ro19", edits)
    out = tmp_path / "x"
    assert run("ro", "--config", cfg, "--out", str(out), "--quiet") == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("ro.t_capture_ps = ", "chain.k = ", "chain.tau_fall_ps = "))
    assert not out.exists()


def flat_sweep(d):
    """A sweep whose first frame holds one pulse and every later frame that
    pulse plus one above it: both edge tracks hold still, a zero slope."""
    bits = np.zeros((6, 128), dtype=np.uint8)
    bits[:, 40:60] = 1
    bits[1:, 80:100] = 1
    spec = SweepSpec(PllOutputSpec(100e6), n_steps=6)
    chain = ChainSpec(128, 5.0, 5.0)
    storage.save_dataset(SweepDataset(bits, np.arange(6), chain, RegisterSpec(), spec), d)


def continuous_run(d):
    bits = np.ones((4, 128), dtype=np.uint8)
    storage.save_dataset(SweepDataset(bits, np.arange(4), ChainSpec(128, 5.0, 5.0), RegisterSpec(),
                                      t_capture_ps=5_000.0), d)


def rekind(d):
    continuous_run(d)
    text = (d / "spec.config").read_bytes().replace(b"kind = continuous", b"kind = burst")
    (d / "spec.config").write_bytes(text)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["hashes"]["spec.config"] = hashlib.sha256(text).hexdigest()
    (d / "manifest.json").write_text(json.dumps(manifest))


def manifest_not_json(d):
    continuous_run(d)
    (d / "manifest.json").write_text("{")


def fig3a_sweep(d):
    assert run("sweep", "--config", "preset:fig3a", "--out", str(d), "--quiet") == 0


def other_chain_sweep(d):
    # fig3a on a shorter, slower-rising chain: a dataset of another device
    cfg = set_config_values(d.parent, "fig3a", {"chain.k": "1200", "chain.tau_rise_ps": "5.50"})
    assert run("sweep", "--config", cfg, "--out", str(d), "--quiet") == 0


@pytest.mark.parametrize(
    "command, preset, makes, message",
    [
        ("calibrate", "fig4", [flat_sweep], "degenerate trajectory: zero slope"),
        ("calibrate", "fig4", [continuous_run],
         "datasets must be sweeps on one shared grid to be pooled"),
        ("correct", "fig6", [rekind], "unknown dataset kind 'burst'"),
        ("correct", "fig6", [manifest_not_json], "is not a valid manifest"),
        # two chains pool into no one truth, in either order
        ("calibrate", "fig4", [fig3a_sweep, other_chain_sweep],
         "error: dataset 2: chain.k differs from dataset 1\n"),
        ("calibrate", "fig4", [other_chain_sweep, fig3a_sweep],
         "error: dataset 2: chain.k differs from dataset 1\n"),
    ],
    ids=["zero-slope", "not-a-sweep", "unknown-kind", "manifest-not-json", "mixed-chains",
         "mixed-chains-reversed"],
)
def test_dataset_reaching_a_domain_error_exits_2(tmp_path, capsys, command, preset, makes,
                                                 message):
    dirs = [tmp_path / f"ds{i}" for i in range(len(makes))]
    for make, d in zip(makes, dirs):
        make(d)
    out = tmp_path / "x"
    code = run(command, "--config", f"preset:{preset}", "--out", str(out), *map(str, dirs))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_correct_takes_one_dataset(tmp_path, capsys, raw_sweep):
    out = tmp_path / "x"
    assert run("correct", "--config", "preset:fig6", "--out", str(out), raw_sweep, raw_sweep) == 2
    assert "correct takes at most one input dataset" in capsys.readouterr().err
    assert not out.exists()


def test_report_needs_existing_reports(tmp_path, capsys):
    assert run("report") == 2
    assert "report needs at least one result directory" in capsys.readouterr().err
    assert run("report", str(tmp_path)) == 2
    assert f"{tmp_path / 'report.json'} does not exist" in capsys.readouterr().err


@pytest.fixture()
def raw_sweep(tmp_path):
    raw = tmp_path / "raw"
    assert run("sweep", "--config", "preset:fig3c", "--out", str(raw), "--quiet") == 0
    return str(raw)


@pytest.mark.parametrize("command, preset", [("correct", "fig6"), ("calibrate", "fig4")])
def test_filter_mode_rejects_stray_spec_keys(tmp_path, capsys, raw_sweep, command, preset):
    cfg = preset_config(tmp_path, preset, extra="chain.bogus = 1\n")
    assert run(command, "--config", cfg, "--out", str(tmp_path / "y"), raw_sweep) == 2
    assert "unknown config keys: ['chain.bogus']" in capsys.readouterr().err


def test_filter_mode_needs_a_complete_config(tmp_path, capsys, raw_sweep):
    cfg = tmp_path / "only-correct.config"
    cfg.write_text("format_version = 1\ncorrect.gap_threshold = 15\n")
    assert run("correct", "--config", str(cfg), "--out", str(tmp_path / "y"), raw_sweep) == 2
    assert "missing config key 'chain.k'" in capsys.readouterr().err


def test_bad_config_and_out_paths_exit_2(tmp_path, capsys):
    assert run("sweep", "--config", str(tmp_path), "--out", str(tmp_path / "x")) == 2
    assert "cannot read config file" in capsys.readouterr().err
    (tmp_path / "latin-1.config").write_bytes("# caf\xe9\n".encode("latin-1"))
    assert run("sweep", "--config", str(tmp_path / "latin-1.config"), "--out", str(tmp_path / "x")) == 2
    assert "cannot read config file" in capsys.readouterr().err
    (tmp_path / "taken").write_text("")
    assert run("sweep", "--config", "preset:fig3c", "--out", str(tmp_path / "taken")) == 2
    assert "cannot make output directory" in capsys.readouterr().err


# -- one config schema: every key a command reads is a spec field -----------


def command_keys(command):
    """(config key, field default) of every key the command's specs read."""

    def walk(cls, prefix):
        for _, key, hint, default in storage._spec_keys(cls, prefix):
            yield from walk(hint, key) if is_dataclass(hint) else [(key, default)]

    return [kd for prefix, cls in cli._SPECS[command].items() for kd in walk(cls, prefix)]


def output_digests(out):
    """sha256 of every file under out, report.json without its runtime."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            del report["runtime_s"]
            data = json.dumps(report, sort_keys=True).encode()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize(
    "command, preset",
    [("sweep", "fig3a"), ("calibrate", "fig4"), ("shrink", "fig3c"), ("correct", "fig6"),
     ("ro", "fig7"), ("ro", "appendix-ro19")],
)
def test_preset_without_its_default_values_is_unchanged(tmp_path, command, preset):
    defaults = {
        key: storage._fmt(default)
        for key, default in command_keys(command)
        if default is not storage._REQUIRED
    }
    text = (resources.files("wavecap.presets") / f"{preset}.config").read_text()
    kept = [
        line for line in text.splitlines()
        if defaults.get(line.partition("=")[0].strip()) != line.partition("=")[2].strip()
    ]
    assert len(kept) < len(text.splitlines())
    cfg = tmp_path / "short.config"
    cfg.write_text("\n".join(kept) + "\n")
    full, short = tmp_path / "full", tmp_path / "short"
    assert run(command, "--config", f"preset:{preset}", "--out", str(full), "--quiet") == 0
    assert run(command, "--config", str(cfg), "--out", str(short), "--quiet") == 0
    assert output_digests(full) == output_digests(short)


# small configs on which every command exits 0 unedited
SMALL_SWEEP = """format_version = 1
kind = sweep
chain.k = 160
chain.tau_rise_ps = 5.0
chain.tau_fall_ps = 4.5
source.frequency_hz = 2000000000.0
sweep.t_capture_ps = 700.0
sweep.dt_ps = 20.0
sweep.n_steps = 40
"""
SMALL_RING = """format_version = 1
ring.n = 3
ro.t_capture_ps = 500.0
ro.n_frames = 4
ro.t_start_ps = 2000.0
chain.k = 128
chain.tau_rise_ps = 5.0
chain.tau_fall_ps = 5.0
"""
FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "abc", "", "1e308", "1e300", "2.5", "1,2"]


@pytest.mark.parametrize("command", sorted(cli._SPECS))
def test_every_config_key_fails_cleanly_on_bad_values(tmp_path, capsys, command):
    base = parse_config_text(SMALL_RING if command == "ro" else SMALL_SWEEP)
    cfg, out = tmp_path / "fuzz.config", tmp_path / "out"
    argv = (command, "--config", str(cfg), "--out", str(out), "--quiet")
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    assert run(*argv) == 0
    failures = []
    for key, _ in command_keys(command):
        for value in FUZZ_VALUES:
            shutil.rmtree(out, ignore_errors=True)
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items()))
            try:
                code = run(*argv)
            except Exception as exc:  # an exception escaping main fails the case
                code = repr(exc)
            if code not in (0, 2) or (code == 2 and out.exists()):
                failures.append((key, value, code))
    capsys.readouterr()
    assert not failures


@pytest.mark.parametrize("name", ["frames.csv", "times.csv"])
def test_correct_rejects_a_dataset_not_in_the_written_form(tmp_path, capsys, raw_sweep, name):
    # row 3's phase index (frames.csv) or time (times.csv) spelled with a
    # "+", which reads as the saved value, and the manifest rehashed: filter
    # mode exits 2 and writes nothing
    path = tmp_path / "raw" / name
    lines = path.read_bytes().split(b"\n")
    at = 0 if name == "frames.csv" else lines[2].index(b",") + 1
    lines[2] = lines[2][:at] + b"+" + lines[2][at:]
    path.write_bytes(b"\n".join(lines))
    manifest = json.loads((tmp_path / "raw" / "manifest.json").read_text())
    manifest["hashes"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (tmp_path / "raw" / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "y"
    assert run("correct", "--config", "preset:fig6", "--out", str(out), raw_sweep) == 2
    assert f"{name} row 3, byte {at + 1}: b'+' where save_dataset writes" in capsys.readouterr().err
    assert not out.exists()


def test_mutated_dataset_fails_cleanly(tmp_path):
    """Random byte edits of one payload of a saved sweep, non-UTF-8 bytes
    included and the manifest rehashed on some draws: filter-mode correct and
    calibrate each exit 0 or 2, and leave no --out on exit 2."""
    cfg, raw, ds, out = (tmp_path / name for name in ("small.config", "raw", "ds", "out"))
    cfg.write_text(SMALL_SWEEP)
    assert run("sweep", "--config", str(cfg), "--out", str(raw), "--quiet") == 0
    saved = {path.name: path.read_bytes() for path in raw.iterdir()}

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        name=st.sampled_from(sorted(storage._PAYLOAD_FILES)),
        edits=st.lists(
            st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        ),
        rehash=st.booleans(),
    )
    def case(name, edits, rehash):
        files = dict(saved)
        data = bytearray(saved[name])
        for where, byte in edits:
            data[int(where * len(data))] = byte
        files[name] = bytes(data)
        if rehash:
            manifest = json.loads(saved["manifest.json"])
            manifest["hashes"][name] = hashlib.sha256(data).hexdigest()
            files["manifest.json"] = json.dumps(manifest).encode()
        shutil.rmtree(ds, ignore_errors=True)
        ds.mkdir()
        for file, content in files.items():
            (ds / file).write_bytes(content)
        for command in ("correct", "calibrate"):
            shutil.rmtree(out, ignore_errors=True)
            code = run(command, "--config", str(cfg), "--out", str(out), str(ds), "--quiet")
            assert code in (0, 2) and (code == 0 or not out.exists()), (command, code)

    case()


def test_a_plain_value_error_is_a_bug_and_escapes(tmp_path, monkeypatch):
    def broken(*args):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "run_sweep", broken)
    out = tmp_path / "x"
    with pytest.raises(ValueError, match="not an input error"):
        run("sweep", "--config", "preset:fig3c", "--out", str(out), "--quiet")
    assert not out.exists()


# -- per-process work is done once, and main stays re-entrant ---------------


def test_parser_and_spec_field_tables_are_built_once():
    assert cli.build_parser() is cli.build_parser()
    keys = storage._spec_keys(cli.SweepSpec, "sweep")
    assert isinstance(keys, tuple) and keys is storage._spec_keys(cli.SweepSpec, "sweep")


def test_spec_type_hints_are_resolved_once_per_class(tmp_path, monkeypatch):
    seen = []
    get_type_hints = typing.get_type_hints

    def counting(cls, *args, **kwargs):
        seen.append(cls)
        return get_type_hints(cls, *args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counting)
    storage._spec_keys.cache_clear()
    for out in ("a", "b"):
        assert run("sweep", "--config", "preset:fig3a", "--out", str(tmp_path / out), "--quiet") == 0
    spec_classes = {cli.ChainSpec, cli.RegisterSpec, cli.SweepSpec, PllOutputSpec}
    assert spec_classes <= set(seen)
    assert all(seen.count(cls) == 1 for cls in spec_classes)


def test_main_is_reentrant_after_a_failed_run(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("sweep", "--config", "preset:fig3a", "--out", str(a), "--quiet") == 0
    cfg = preset_config(tmp_path, "fig3a", extra="sweep.bogus_knob = 1\n")
    assert run("sweep", "--config", cfg, "--out", str(tmp_path / "x"), "--quiet") == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert run("sweep", "--config", "preset:fig3a", "--out", str(b), "--quiet") == 0
    assert "manifest.json" in output_digests(a)
    assert output_digests(a) == output_digests(b)
