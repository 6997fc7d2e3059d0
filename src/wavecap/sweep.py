"""Phase-sweep and free-running capture orchestration.

A calibration sweep steps the source's phase by dt per frame while capturing
at a fixed clock phase plus crystal jitter; relock dead time after each step
advances absolute time but not the phase bookkeeping.  Continuous runs
capture at exactly every T: no dead time and no jitter.
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


# frames per run, checked before any draw; at the 1,740-tap device bound, 1.7 GB of bits
MAX_FRAMES = 1_000_000


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
        if not 2 <= self.n_steps <= MAX_FRAMES:
            raise SweepError(f"n_steps must lie in [2, {MAX_FRAMES}], the frame bound")
        lo, hi = self.relock_dead_cycles
        if lo < 2 or hi < lo or hi >= 2**63:  # the cycle draw is int64
            raise SweepError("dead-cycle range must satisfy 2 <= min <= max < 2**63")
        if self.crystal_jitter_sigma_ps < 0:
            raise SweepError("crystal jitter sigma must be >= 0")


@dataclass(frozen=True, eq=False)
class SweepDataset:
    """A run as one (frames, K) bit matrix, row f frame f (a sweep's phase
    step f) with tap 1 first, plus each frame's capture instant, and its specs."""

    bits: np.ndarray
    capture_time_fs: np.ndarray
    chain_spec: ChainSpec
    reg_spec: RegisterSpec
    sweep_spec: Optional[SweepSpec] = None
    t_capture_ps: Optional[float] = None  # continuous runs: frame period

    def __post_init__(self):
        for name, dtype in {"bits": np.uint8, "capture_time_fs": np.int64}.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if self.bits.ndim != 2 or self.capture_time_fs.shape != (len(self.bits),):
            raise SweepError("a dataset needs (frames, K) bits and one time per frame")

    @property
    def k(self) -> int:
        return self.bits.shape[1]

    @property
    def n_frames(self) -> int:
        return self.bits.shape[0]


def _instants_fs(t_ps: np.ndarray) -> np.ndarray:
    """Each time's ``ps_to_fs`` (half to even) as int64; raises unless all fit int64 fs."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are caught below
        t_fs = np.rint(np.asarray(t_ps, dtype=np.float64) * FS_PER_PS)
        bad = t_fs[~(np.abs(t_fs) < 2**63)]  # NaN too
    if bad.size:
        raise SweepError(f"a frame time of {bad[0] / FS_PER_PS} ps does not fit int64 fs")
    return t_fs.astype(np.int64)


def _jittered_draws(rng: np.random.Generator, n: int, sigma: float, lo: int,
                    hi: int) -> tuple[np.ndarray, list[int]]:
    """n steps of ``rng.normal(0.0, sigma)`` then ``rng.integers(lo, hi + 1)``,
    draw for draw and bit for bit, in half the numpy calls."""
    span = hi - lo + 1
    bits = 32 if span <= 2**32 else 64
    mask, threshold = 2**bits - 1, (2**bits - span) % span
    words = iter(rng.bit_generator.random_raw, None)
    uints = words if bits == 64 else (u for w in words for u in (w & mask, w >> 32))
    z, dead = [], []
    for _ in range(n):
        z.append(rng.standard_normal())  # sigma * z is 0.0 + sigma * z
        m = span * next(uints) if span > 1 else 0  # a span of 1 draws nothing
        while m & mask < threshold:
            m = span * next(uints)
        dead.append(lo + (m >> bits))
    return sigma * np.array(z), dead


def run_sweep(spec: SweepSpec, chain: ChainSpec, regs: RegisterSpec) -> SweepDataset:
    """Sample the chain and register bank from their specs, then capture
    n_steps frames, the n-th of the source shifted by n*dt."""
    # validated before sampling: a chain past the device bound can exhaust memory there;
    # the source's shortest level run is the pulse-survival budget
    duty = spec.source.duty_cycle
    report = validate_config(chain, spec.t_capture_ps, min(duty, 1.0 - duty) * spec.source.period_ps)
    if not report.ok:
        raise SweepError("invalid configuration: " + "; ".join(report.violations))
    chain_inst = sample_chain(chain)
    reg_bank = sample_registers(regs, chain.k)

    # Fixed capture phase t0, far enough in that the look-back window (plus
    # the largest accumulated shift) stays inside the generated waveform.
    reach_ps = chain.k * max(chain.tau_rise_ps, chain.tau_fall_ps)
    lookback_ps = reach_ps * (1 + 6 * chain.tau_sigma_ps / max(chain.tau_rise_ps, 1e-9))
    total_shift_ps = spec.dt_ps * (spec.n_steps - 1)
    margin_ps = chain.entry_delay_ps + 10 * spec.crystal_jitter_sigma_ps + 1_000
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

    # the draw order fixes every output.  Without jitter one bounded draw of
    # n reads the stream exactly as n scalar draws would.  With it, each step
    # draws its normal, then its dead cycles, so no bulk draw keeps the stream;
    # the dead cycles are drawn by hand from raw words, by numpy's own rule:
    # Lemire's multiply-and-reject on PCG64's 32-bit values (a word's low
    # half, then its high half) up to a span of 2**32, else on whole words
    rng = np.random.default_rng(spec.seed)
    dead_lo, dead_hi = spec.relock_dead_cycles
    sigma = spec.crystal_jitter_sigma_ps
    if sigma > 0:
        jitter_ps, dead = _jittered_draws(rng, spec.n_steps, sigma, dead_lo, dead_hi)
        jitter_fs = _instants_fs(jitter_ps)
    else:
        jitter_fs, dead = 0, rng.integers(dead_lo, dead_hi + 1, size=spec.n_steps)
    dead = np.asarray(dead, dtype=np.int64)
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
    return SweepDataset(bits, t_abs_fs, chain, regs, spec)


def _default_start_ps(chain: ChainInstance, regs: RegisterBank) -> float:
    """The earliest start whose first frame reads only inside a domain from t = 0."""
    earliest_fs = _reach_fs(chain) + _max_catchup_fs(chain)
    return fs_to_ps(earliest_fs - int(regs.skews_fs.min()))


def run_continuous(
    w: DigitalWaveform,
    chain: ChainSpec | ChainInstance,
    regs: RegisterSpec | RegisterBank,
    t_capture_ps: float,
    n_frames: int,
    t_start_ps: float,
) -> SweepDataset:
    """Capture frame m at exactly t_start + m*T, with no dead time."""
    if not 1 <= n_frames <= MAX_FRAMES:
        raise SweepError(f"n_frames must lie in [1, {MAX_FRAMES}], the frame bound")
    chain_inst = chain if isinstance(chain, ChainInstance) else sample_chain(chain)
    reg_bank = regs if isinstance(regs, RegisterBank) else sample_registers(
        regs, chain_inst.spec.k
    )
    sample_fs = _instants_fs(t_start_ps + np.arange(n_frames, dtype=np.float64) * t_capture_ps)
    bits = capture_at(w, chain_inst, reg_bank, sample_fs)
    return SweepDataset(bits, sample_fs, chain_inst.spec, reg_bank.spec, t_capture_ps=t_capture_ps)
