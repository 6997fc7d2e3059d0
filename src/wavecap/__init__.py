"""Carry-chain waveform capture: simulation, calibration, and correction."""

__version__ = "0.1.0"

from .units import WavecapError
from .waveform import (
    DigitalWaveform,
    PllOutputSpec,
    make_pll_output,
    shift_phase,
)
from .chain import (
    CaptureFrame,
    ChainInstance,
    ChainSpec,
    RegisterBank,
    RegisterSpec,
    capture,
    capture_at,
    capture_oracle,
    sample_chain,
    sample_registers,
    validate_config,
)
from .sweep import SweepDataset, SweepSpec, run_continuous, run_sweep
from .calibrate import (
    CalibrationResult,
    CarryTimeFit,
    ShrinkResult,
    TransferFunction,
    build_transfer_function,
    calibrate,
    extract_edges,
    fit_carry_times,
    shrink_analysis,
    single_shot_precision,
    smooth_bits,
)
from .correct import (
    CorrectionSpec,
    FidelityStats,
    correct_dataset,
    correct_frame,
    correction_fidelity,
    dataset_fidelity,
)
from .ringosc import (
    NodeTimescale,
    RingSpec,
    RingTrace,
    measure_node_timescale,
    simulate_ring,
    stable_pulse_state,
    stitch_frames,
)
from .storage import (
    load_dataset,
    save_dataset,
    spec_to_config,
    write_report,
)
