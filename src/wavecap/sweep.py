"""Phase-sweep and free-running capture orchestration.

A calibration sweep steps the source's phase by dt per frame while capturing
at a fixed clock phase; the relock dead time after each phase step advances
absolute time but not the phase bookkeeping.  Continuous runs capture every T
with no dead time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import (
    ChainInstance,
    ChainSpec,
    RegisterBank,
    RegisterSpec,
    _max_catchup_fs,
    _reach_fs,
    capture,  # noqa: F401  (kept importable as wavecap.sweep.capture)
    capture_at,
    sample_chain,
    sample_registers,
    validate_config,
)
from .units import FS_PER_PS, WavecapError, fs_to_ps, ps_to_fs, require_finite
from .waveform import MAX_SOURCE_EDGES, DigitalWaveform, PllOutputSpec, make_pll_output

__all__ = ["SweepSpec", "SweepDataset", "run_sweep", "run_continuous"]


class SweepError(WavecapError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    """One dynamic-phase calibration sweep."""

    source: PllOutputSpec
    t_capture_ps: float = 5_000.0
    dt_ps: float = 78.0
    n_steps: int = 512
    relock_dead_cycles: tuple[int, int] = (2, 40)
    crystal_jitter_sigma_ps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_finite(self, SweepError)
        if self.dt_ps < 0:
            raise SweepError("phase increment must be >= 0")
        if self.n_steps < 2:
            raise SweepError("a sweep needs at least 2 steps")
        lo, hi = self.relock_dead_cycles
        if lo < 2 or hi < lo or hi >= 2**63:  # the cycle draw is int64
            raise SweepError("dead-cycle range must satisfy 2 <= min <= max < 2**63")
        if self.crystal_jitter_sigma_ps < 0:
            raise SweepError("crystal jitter sigma must be >= 0")

    def min_resolvable_gap_ps(self) -> float:
        """Shortest level run of the source: the pulse-survival budget."""
        p = self.source.period_ps
        return min(self.source.duty_cycle, 1.0 - self.source.duty_cycle) * p


@dataclass(frozen=True, eq=False)
class SweepDataset:
    """A run as one (frames, K) bit matrix, row f frame f with tap 1 first,
    plus each frame's capture instant and phase step, and its specs."""

    bits: np.ndarray
    capture_time_fs: np.ndarray
    phase_index: np.ndarray  # continuous runs: the frame number
    chain_spec: ChainSpec
    reg_spec: RegisterSpec
    sweep_spec: Optional[SweepSpec] = None
    t_capture_ps: Optional[float] = None  # continuous runs: frame period

    def __post_init__(self):
        dtypes = {"bits": np.uint8, "capture_time_fs": np.int64, "phase_index": np.int64}
        for name, dtype in dtypes.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        per_frame = {self.capture_time_fs.shape, self.phase_index.shape}
        if self.bits.ndim != 2 or per_frame != {(len(self.bits),)}:
            raise SweepError("a dataset needs (frames, K) bits and one time and index per frame")

    @property
    def k(self) -> int:
        return self.bits.shape[1]

    @property
    def n_frames(self) -> int:
        return self.bits.shape[0]


def _instants_fs(*terms_ps: np.ndarray) -> np.ndarray:
    """Per frame, the sum of each term's ``ps_to_fs`` (half to even) as int64;
    raises where a term or the sum is not finite inside int64 femtoseconds."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are caught below
        terms_fs = [np.rint(np.asarray(t, dtype=np.float64) * FS_PER_PS) for t in terms_ps]
        bad = np.concatenate([t[~(np.abs(t) < 2**63)] for t in [*terms_fs, sum(terms_fs)]])  # NaN too
    if bad.size:
        raise SweepError(f"a frame time of {bad[0] / FS_PER_PS} ps does not fit int64 fs")
    return sum(t_fs.astype(np.int64) for t_fs in terms_fs)


def run_sweep(
    spec: SweepSpec,
    chain: ChainSpec | ChainInstance,
    regs: RegisterSpec | RegisterBank,
) -> SweepDataset:
    """Capture n_steps frames, the n-th of the source shifted by n*dt."""
    chain_inst = chain if isinstance(chain, ChainInstance) else sample_chain(chain)
    chain_spec = chain_inst.spec
    reg_bank = regs if isinstance(regs, RegisterBank) else sample_registers(regs, chain_spec.k)
    reg_spec = reg_bank.spec

    report = validate_config(chain_spec, spec.t_capture_ps, spec.min_resolvable_gap_ps())
    if not report.ok:
        raise SweepError("invalid configuration: " + "; ".join(report.violations))

    # Fixed capture phase t0, far enough in that the look-back window (plus
    # the largest accumulated shift) stays inside the generated waveform.
    reach_ps = chain_spec.k * max(chain_spec.tau_rise_ps, chain_spec.tau_fall_ps)
    lookback_ps = reach_ps * (1 + 6 * chain_spec.tau_sigma_ps / max(chain_spec.tau_rise_ps, 1e-9))
    total_shift_ps = spec.dt_ps * (spec.n_steps - 1)
    margin_ps = chain_spec.entry_delay_ps + 10 * spec.crystal_jitter_sigma_ps + 1_000
    t0_ps = lookback_ps + total_shift_ps + margin_ps
    duration_ps = t0_ps + margin_ps
    if spec.source.edges_within(duration_ps) > MAX_SOURCE_EDGES:
        # the look-back grows with tau_sigma_ps and the margins with
        # crystal_jitter_sigma_ps, both without bound: name the larger
        terms = {"tau_sigma_ps": lookback_ps - reach_ps, "dt_ps": total_shift_ps,
                 "crystal_jitter_sigma_ps": 20 * spec.crystal_jitter_sigma_ps}
        name = max(terms, key=terms.get)
        raise SweepError(f"a {duration_ps:.6g} ps source (look-back {lookback_ps:.6g} ps) has over "
                         f"{MAX_SOURCE_EDGES} edges; {name} sets {terms[name]:.6g} ps of it")
    base = make_pll_output(spec.source, duration_ps)

    # the draws interleave, step by step: their order fixes every output
    rng = np.random.default_rng(spec.seed)
    dead_lo, dead_hi = spec.relock_dead_cycles
    sigma = spec.crystal_jitter_sigma_ps
    jitter_ps, dead = [], []
    for _ in range(spec.n_steps):
        if sigma > 0:
            jitter_ps.append(rng.normal(0.0, sigma))
        dead.append(rng.integers(dead_lo, dead_hi + 1))
    jitter_fs = _instants_fs(jitter_ps) if sigma > 0 else 0
    dead = np.array(dead, dtype=np.int64)
    # Capture is translation-equivariant in integer femtoseconds, so the
    # source shifted n*dt later and captured at t0 reads the same bits as the
    # unshifted source captured at t0 - n*dt.
    shift_fs = _instants_fs(np.arange(spec.n_steps, dtype=np.float64) * spec.dt_ps)
    bits = capture_at(base, chain_inst, reg_bank, ps_to_fs(t0_ps) + jitter_fs - shift_fs)
    # record absolute time including relock dead cycles; phase bookkeeping is
    # untouched because capture happens at a fixed clock phase.  The last
    # frame is the latest, and its exact time bounds the int64 cumsum.
    t_capture_fs = ps_to_fs(spec.t_capture_ps)
    last_fs = ps_to_fs(t0_ps) + sum(dead.tolist()) * t_capture_fs
    if last_fs >= 2**63:
        raise SweepError(f"a frame time of {last_fs / FS_PER_PS} ps does not fit int64 fs")
    t_abs_fs = ps_to_fs(t0_ps) + np.cumsum(dead) * t_capture_fs
    return SweepDataset(bits, t_abs_fs, np.arange(spec.n_steps), chain_spec, reg_spec, spec)


def run_continuous(
    w: DigitalWaveform,
    chain: ChainSpec | ChainInstance,
    regs: RegisterSpec | RegisterBank,
    t_capture_ps: float,
    n_frames: int,
    t_start_ps: Optional[float] = None,
    crystal_jitter_sigma_ps: float = 0.0,
    seed: int = 0,
) -> SweepDataset:
    """Capture frame m at t_start + m*T with no dead time."""
    if n_frames < 1:
        raise SweepError("need at least one frame")
    chain_inst = chain if isinstance(chain, ChainInstance) else sample_chain(chain)
    reg_bank = regs if isinstance(regs, RegisterBank) else sample_registers(
        regs, chain_inst.spec.k
    )
    sigma = crystal_jitter_sigma_ps
    if t_start_ps is None:
        # the earliest start whose first frame, jittered by up to ten sigma,
        # reads only where the waveform is defined
        earliest_fs = (w.domain_fs[0] or 0) + _reach_fs(chain_inst) + _max_catchup_fs(chain_inst)
        t_start_ps = fs_to_ps(earliest_fs - int(reg_bank.skews_fs.min())) + 10 * sigma

    rng = np.random.default_rng(seed)
    jitter_ps = rng.normal(0.0, sigma, n_frames) if sigma > 0 else np.zeros(n_frames)
    frame_ps = t_start_ps + np.arange(n_frames, dtype=np.float64) * t_capture_ps
    sample_fs = _instants_fs(frame_ps, jitter_ps)
    bits = capture_at(w, chain_inst, reg_bank, sample_fs)
    return SweepDataset(
        bits, sample_fs, np.arange(n_frames), chain_inst.spec, reg_bank.spec,
        t_capture_ps=t_capture_ps,
    )
