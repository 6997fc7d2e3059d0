"""The public surface of wavecap, pinned name by name.

The public API is what the CLI, the demos, the README and the acceptance
tests call.  A name marked ``# perfbench`` is public only because the
benchmark binds it (``TRACED``, its set-up code, its tracer test); a change
to the benchmark can free it.
"""

import dataclasses
import importlib
import inspect
import types

import numpy as np
import pytest

import wavecap
from wavecap.calibrate import TransferFunction
from wavecap.chain import CaptureFrame, ChainSpec, RegisterSpec, sample_chain, sample_registers
from wavecap.correct import FidelityStats
from wavecap.ringosc import RingTrace
from wavecap.sweep import SweepDataset
from wavecap.waveform import DigitalWaveform

PACKAGE = [
    "CalibrationResult",
    "CaptureFrame",
    "CarryTimeFit",
    "ChainInstance",
    "ChainSpec",
    "CorrectionSpec",
    "DigitalWaveform",
    "FidelityStats",
    "NodeTimescale",
    "PllOutputSpec",
    "RegisterBank",
    "RegisterSpec",
    "RingSpec",
    "RingTrace",
    "ShrinkResult",
    "SweepDataset",
    "SweepSpec",
    "TransferFunction",
    "WavecapError",
    "build_transfer_function",  # perfbench
    "calibrate",
    "capture",
    "capture_at",
    "capture_oracle",
    "correct_dataset",
    "correct_frame",
    "correction_fidelity",  # perfbench
    "dataset_fidelity",
    "extract_edges",  # perfbench
    "fit_carry_times",  # perfbench
    "load_dataset",
    "make_pll_output",
    "measure_node_timescale",
    "run_continuous",
    "run_sweep",
    "sample_chain",
    "sample_registers",
    "save_dataset",
    "shift_phase",  # perfbench
    "shrink_analysis",
    "simulate_ring",
    "single_shot_precision",  # perfbench
    "smooth_bits",  # perfbench
    "spec_to_config",
    "stable_pulse_state",
    "stitch_frames",
    "validate_config",
    "write_report",
]

MODULE_ALL = {
    "waveform": [
        "DigitalWaveform",
        "PllOutputSpec",
        "make_pll_output",
        "shift_phase",  # perfbench
        "reject_short_pulses",  # perfbench: its tracer test reads wavecap.chain's binding
    ],
    "chain": [
        "MAX_CHAIN_LEN",
        "ChainSpec",
        "ChainInstance",
        "RegisterSpec",
        "RegisterBank",
        "CaptureFrame",
        "ConfigReport",
        "validate_config",
        "sample_chain",
        "sample_registers",
        "capture_at",
        "capture",
        "capture_oracle",
    ],
    "sweep": ["SweepSpec", "SweepDataset", "run_sweep", "run_continuous"],
    "calibrate": [
        "EdgeObservation",  # perfbench, as extract_edges' result
        "TransferFunction",
        "CarryTimeFit",
        "CalibrationResult",
        "ShrinkResult",
        "smooth_bits",  # perfbench
        "extract_edges",  # perfbench
        "fit_carry_times",  # perfbench
        "build_transfer_function",  # perfbench
        "single_shot_precision",  # perfbench
        "shrink_analysis",
        "calibrate",
    ],
    "correct": [
        "CorrectionSpec",
        "FidelityStats",
        "correct_frame",
        "correct_dataset",
        "correction_fidelity",  # perfbench
        "dataset_fidelity",
    ],
    "ringosc": [
        "RingSpec",
        "RingTrace",
        "RingError",
        "simulate_ring",
        "stable_pulse_state",
        "stitch_frames",
        "NodeTimescale",
        "measure_node_timescale",
    ],
    "storage": [
        "StorageError",
        "CorruptFileError",
        "HashMismatchError",
        "VersionSkewError",
        "spec_to_config",
        "config_to_specs",
        "chain_from_config",  # perfbench
        "regs_from_config",  # perfbench
        "spec_from_config",
        "check_format_version",
        "parse_config_text",
        "take",
        "reject_unknown_keys",
        "save_dataset",
        "load_dataset",
        "write_report",
        "write_pgm",
        "bit_lines",
    ],
}


def test_package_public_names():
    public = sorted(
        name for name, value in vars(wavecap).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PACKAGE


@pytest.mark.parametrize("module", sorted(MODULE_ALL))
def test_module_all(module):
    mod = importlib.import_module(f"wavecap.{module}")
    assert mod.__all__ == MODULE_ALL[module]
    assert all(hasattr(mod, name) for name in mod.__all__)


def test_test_only_names_are_gone():
    for module, name in [("waveform", "evaluate"), ("waveform", "step_waveform"),
                         ("chain", "default_dnl_ramp")]:
        assert not hasattr(importlib.import_module(f"wavecap.{module}"), name)
    for cls, name in [(DigitalWaveform, "from_edges"), (DigitalWaveform, "edges_ps"),
                      (DigitalWaveform, "value_at_fs"), (RingTrace, "node"),
                      (CaptureFrame, "k"), (CaptureFrame, "phase_index"), (SweepDataset, "phase_index"),
                      (TransferFunction, "time_of"), (FidelityStats, "mean_error")]:
        assert not hasattr(cls, name)
    # waveforms compare by identity; compare initial_level and edge_times_fs instead
    assert "__eq__" not in vars(DigitalWaveform)
    assert [f.name for f in dataclasses.fields(CaptureFrame)] == ["bits", "capture_time_fs"]
    # a dataset's row n is its phase step n (or frame number n): no index field
    assert [f.name for f in dataclasses.fields(SweepDataset)] == [
        "bits", "capture_time_fs", "chain_spec", "reg_spec", "sweep_spec", "t_capture_ps"]


@pytest.mark.parametrize("fn", ["capture", "capture_oracle"])
def test_phase_index_keyword_is_gone(fn):
    chain = sample_chain(ChainSpec(4, 5.0, 5.0))
    regs = sample_registers(RegisterSpec(), 4)
    with pytest.raises(TypeError, match="phase_index"):
        getattr(wavecap, fn)(DigitalWaveform(0, np.array([0])), chain, regs, 10.0, phase_index=0)


@pytest.mark.parametrize("keyword", ["crystal_jitter_sigma_ps", "seed"])
def test_run_continuous_draws_no_jitter(keyword):
    # crystal jitter is a sweep's: SweepSpec.crystal_jitter_sigma_ps
    w = DigitalWaveform(1, np.array([], dtype=np.int64))
    with pytest.raises(TypeError, match=keyword):
        wavecap.run_continuous(w, ChainSpec(4, 5.0, 5.0), RegisterSpec(), 10.0, 2,
                               t_start_ps=100.0, **{keyword: 0})


def test_run_continuous_needs_its_start():
    w = DigitalWaveform(1, np.array([], dtype=np.int64))
    with pytest.raises(TypeError, match="t_start_ps"):
        wavecap.run_continuous(w, ChainSpec(4, 5.0, 5.0), RegisterSpec(), 10.0, 2)


def test_run_sweep_takes_specs():
    # run_sweep samples its chain and register bank; run_continuous takes either form
    sweep = inspect.signature(wavecap.run_sweep).parameters
    assert [sweep[n].annotation for n in ("chain", "regs")] == ["ChainSpec", "RegisterSpec"]
    continuous = inspect.signature(wavecap.run_continuous).parameters
    assert [continuous[n].annotation for n in ("chain", "regs")] == [
        "ChainSpec | ChainInstance", "RegisterSpec | RegisterBank"]


@pytest.mark.parametrize("fn", ["capture", "capture_oracle"])
def test_capture_keeps_clock_jitter_keyword(fn):
    # acceptance criterion 6 passes clock_jitter_ps to both
    chain = sample_chain(ChainSpec(4, 5.0, 5.0))
    regs = sample_registers(RegisterSpec(), 4)
    w = DigitalWaveform(0, np.array([0]))
    frame = getattr(wavecap, fn)(w, chain, regs, 100.0, clock_jitter_ps=2.5)
    assert frame.capture_time_fs == 102_500
