"""Binary waveforms on a continuous time axis.

A waveform is a piecewise-constant 0/1 signal stored as a sorted edge list.
``make_pll_output`` generates the signal source used throughout: ideal or
jittered PLL pulse trains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .units import FS_PER_PS, WavecapError, ps_to_fs, require_finite

__all__ = [
    "DigitalWaveform",
    "PllOutputSpec",
    "make_pll_output",
    "shift_phase",
    "reject_short_pulses",
]


class WaveformError(WavecapError):
    pass


# make_pll_output's work bounds: edges per source, jitter draws per edge
MAX_SOURCE_EDGES = 1_000_000
MAX_JITTER_REDRAWS = 1_000


@dataclass(frozen=True, eq=False)
class DigitalWaveform:
    """Piecewise-constant binary signal.

    ``edge_times_fs`` are strictly increasing; the level after edge ``i`` is
    ``initial_level ^ ((i + 1) & 1)`` -- levels alternate, so no redundant
    edges can be represented.  ``domain_fs`` records the time span over which
    the waveform is actually defined (generators set it; hand-built waveforms
    default to unbounded).
    """

    initial_level: int
    edge_times_fs: np.ndarray
    domain_fs: tuple[int | None, int | None] = (None, None)

    def __post_init__(self):
        times = np.asarray(self.edge_times_fs, dtype=np.int64)
        object.__setattr__(self, "edge_times_fs", times)
        if self.initial_level not in (0, 1):
            raise WaveformError("initial_level must be 0 or 1")
        if np.any(times[1:] <= times[:-1]):  # np.diff would overflow past 2**63
            raise WaveformError("edge times must be strictly increasing")

    # -- queries -----------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.edge_times_fs.size)

    def level_after(self, i: int | np.ndarray) -> int | np.ndarray:
        """Level after the i-th edge (0-based); elementwise on arrays."""
        return self.initial_level ^ ((i + 1) & 1)

    def covers_fs(self, lo, hi) -> bool | np.ndarray:
        """Whether [lo, hi] lies inside the domain; elementwise on arrays."""
        dlo, dhi = self.domain_fs
        return np.logical_and(dlo is None or lo >= dlo, dhi is None or hi <= dhi)

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        """CSV text, one `time_ps,level` line per edge, formatted in one pass.
        Times have exactly 3 decimals: a sign column, then divmod of the uint64
        magnitude, which is exact for every int64, -2**63 included."""
        t = self.edge_times_fs
        ps, fs = np.divmod(np.abs(t).view(np.uint64), np.uint64(FS_PER_PS))
        levels = self.level_after(np.arange(t.size))
        cells = zip(np.where(t < 0, "-", "").tolist(), ps.tolist(), fs.tolist(), levels.tolist())
        return "time_ps,level\n" + "%s%d.%03d,%d\n" * t.size % tuple(chain.from_iterable(cells))


def shift_phase(w: DigitalWaveform, dt_ps: float) -> DigitalWaveform:
    """Translate the whole waveform dt picoseconds later in time."""
    dt_fs = ps_to_fs(dt_ps)
    lo, hi = w.domain_fs
    dom = (None if lo is None else lo + dt_fs, None if hi is None else hi + dt_fs)
    return DigitalWaveform(w.initial_level, w.edge_times_fs + np.int64(dt_fs), dom)


@dataclass(frozen=True)
class PllOutputSpec:
    """Pulse-train source: rising edges every 1/frequency, width duty/frequency."""

    frequency_hz: float
    duty_cycle: float = 0.5
    phase_offset_ps: float = 0.0
    period_jitter_sigma_ps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_finite(self, WaveformError)
        if self.frequency_hz <= 0:
            raise WaveformError(f"frequency_hz must be positive, got {self.frequency_hz}")
        if not (0.0 < self.duty_cycle < 1.0):
            raise WaveformError(f"duty cycle must lie in (0, 1), got {self.duty_cycle}")
        # make_pll_output rounds each edge to the nearest fs, half to even, so
        # two edges exactly 1 fs apart can round to one: each level must be wider
        period = self.period_fraction_fs()
        if not 1 < period * Fraction(self.duty_cycle) < period - 1:
            raise WaveformError(f"duty_cycle {self.duty_cycle} leaves a level of 1 fs or less "
                               f"at frequency_hz {self.frequency_hz}")
        if self.period_jitter_sigma_ps < 0:
            raise WaveformError("jitter sigma must be >= 0")

    @property
    def period_ps(self) -> float:
        return 1e12 / self.frequency_hz

    def edges_within(self, duration_ps: float) -> float:
        """How many edges the source has over [0, duration], before rounding."""
        return 2 * (duration_ps - self.phase_offset_ps) * self.frequency_hz / 1e12

    def period_fraction_fs(self) -> Fraction:
        """Exact rational period in femtoseconds."""
        return Fraction(10**15) / Fraction(self.frequency_hz)


def make_pll_output(spec: PllOutputSpec, duration_ps: float) -> DigitalWaveform:
    """Generate a pulse train over [0, duration].

    Edge times accumulate exact rational phase and are rounded independently,
    so non-integer periods (e.g. 600 MHz) do not drift over long trains.
    Per-edge Gaussian jitter is resampled when a draw would reorder edges.
    """
    if duration_ps <= 0:
        raise WaveformError("duration must be positive")
    if spec.edges_within(duration_ps) > MAX_SOURCE_EDGES:
        raise WaveformError(f"a {duration_ps} ps source has over {MAX_SOURCE_EDGES} edges")
    duration_fs = ps_to_fs(duration_ps)
    offset = Fraction(ps_to_fs(spec.phase_offset_ps))
    # edges ascend from the phase offset to at most the duration
    if duration_fs >= 2**63:
        raise WaveformError(f"a {duration_ps} ps source does not fit int64 femtoseconds")
    if offset < -(2**63):
        raise WaveformError(f"phase_offset_ps {spec.phase_offset_ps} does not fit int64 femtoseconds")
    period = spec.period_fraction_fs()
    width = period * Fraction(spec.duty_cycle)

    # rise n = 0..N lies at or before the duration; each fall, only if it does too
    rises = (offset + n * period for n in range((duration_fs - offset) // period + 1))
    ideal = [round(t) for rise in rises for t in (rise, rise + width) if t <= duration_fs]

    times = np.array(ideal, dtype=np.int64)
    sigma_fs = spec.period_jitter_sigma_ps * FS_PER_PS
    if sigma_fs > 0 and times.size:
        rng = np.random.default_rng(spec.seed)
        jittered = np.empty_like(times)
        prev = np.iinfo(np.int64).min
        for i, t in enumerate(times.tolist()):
            for _ in range(MAX_JITTER_REDRAWS):
                cand = t + int(round(rng.normal(0.0, sigma_fs)))
                if cand > prev:
                    break
            else:
                raise WaveformError(f"edge {i} found no ordered jitter draw in {MAX_JITTER_REDRAWS}")
            if not -(2**63) <= cand < 2**63:
                raise WaveformError(f"edge {i} jittered by period_jitter_sigma_ps does not fit int64 fs")
            jittered[i] = cand
            prev = cand
        times = jittered

    return DigitalWaveform(0, times, (0, duration_fs))


def reject_short_pulses(w: DigitalWaveform, min_width_ps: float) -> DigitalWaveform:
    """Drop interior runs (either level) narrower than min_width.

    Models a low-pass element: a pulse too short to switch the gate never
    appears at its output.  Scans left to right with a stack of kept edges:
    an edge closer than min_width to the last kept one removes that edge and
    itself, which makes the kept edge below the next one's neighbor.
    """
    min_fs = ps_to_fs(min_width_ps)
    if min_fs <= 0 or w.n_edges < 2:
        return w
    kept: list[int] = []
    for t in w.edge_times_fs.tolist():
        if kept and t - kept[-1] < min_fs:
            kept.pop()
        else:
            kept.append(t)
    return DigitalWaveform(w.initial_level, np.array(kept, dtype=np.int64), w.domain_fs)
