"""Binary waveforms on a continuous time axis.

A waveform is a piecewise-constant 0/1 signal stored as a sorted edge list.
Generators cover the signal sources used throughout: ideal/jittered PLL
pulse trains and simple steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .units import FS_PER_PS, WavecapError, format_fs_as_ps, fs_to_ps, ps_to_fs, require_finite

__all__ = [
    "DigitalWaveform",
    "PllOutputSpec",
    "evaluate",
    "make_pll_output",
    "shift_phase",
    "reject_short_pulses",
    "step_waveform",
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
        if times.size and np.any(np.diff(times) <= 0):
            raise WaveformError("edge times must be strictly increasing")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[float, int]],
        initial_level: int = 0,
        domain_ps: tuple[float | None, float | None] = (None, None),
    ) -> "DigitalWaveform":
        """Build from (time_ps, level_after) pairs, validating alternation."""
        times = []
        level = initial_level
        for t_ps, lv in edges:
            if lv == level:
                raise WaveformError(f"redundant edge at t={t_ps} ps (level already {lv})")
            times.append(ps_to_fs(t_ps))
            level = lv
        lo, hi = domain_ps
        dom = (None if lo is None else ps_to_fs(lo), None if hi is None else ps_to_fs(hi))
        return cls(initial_level, np.array(times, dtype=np.int64), dom)

    # -- queries -----------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.edge_times_fs.size)

    def level_after(self, i: int) -> int:
        """Level after the i-th edge (0-based)."""
        return self.initial_level ^ ((i + 1) & 1)

    def edges_ps(self) -> list[tuple[float, int]]:
        return [
            (fs_to_ps(int(t)), self.level_after(i))
            for i, t in enumerate(self.edge_times_fs)
        ]

    def value_at_fs(self, t_fs: int) -> int:
        """Level after the latest edge at or before t (initial level if none)."""
        i = int(np.searchsorted(self.edge_times_fs, t_fs, side="right"))
        if i == 0:
            return self.initial_level
        return self.level_after(i - 1)

    def shift_fs(self, dt_fs: int) -> "DigitalWaveform":
        lo, hi = self.domain_fs
        dom = (None if lo is None else lo + dt_fs, None if hi is None else hi + dt_fs)
        return DigitalWaveform(self.initial_level, self.edge_times_fs + np.int64(dt_fs), dom)

    def covers_fs(self, lo, hi) -> bool | np.ndarray:
        """Whether [lo, hi] lies inside the domain; elementwise on arrays."""
        dlo, dhi = self.domain_fs
        return np.logical_and(dlo is None or lo >= dlo, dhi is None or hi <= dhi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitalWaveform):
            return NotImplemented
        return (
            self.initial_level == other.initial_level
            and self.edge_times_fs.size == other.edge_times_fs.size
            and bool(np.all(self.edge_times_fs == other.edge_times_fs))
        )

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        """CSV text, one `time_ps,level` line per edge (fixed 3 decimals)."""
        lines = ["time_ps,level"]
        for i, t in enumerate(self.edge_times_fs):
            lines.append(f"{format_fs_as_ps(int(t))},{self.level_after(i)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, initial_level: int = 0) -> "DigitalWaveform":
        rows = [r for r in text.splitlines() if r.strip()]
        if not rows or rows[0] != "time_ps,level":
            raise WaveformError("bad waveform CSV header")
        edges = []
        for row in rows[1:]:
            t_str, lv_str = row.split(",")
            edges.append((float(t_str), int(lv_str)))
        return cls.from_edges(edges, initial_level)


def evaluate(w: DigitalWaveform, t_ps: float) -> int:
    """Level of w at time t (post-edge convention at exact edge times)."""
    return w.value_at_fs(ps_to_fs(t_ps))


def shift_phase(w: DigitalWaveform, dt_ps: float) -> DigitalWaveform:
    """Translate the whole waveform dt picoseconds later in time."""
    return w.shift_fs(ps_to_fs(dt_ps))


def step_waveform(t_rise_ps: float, initial_level: int = 0) -> DigitalWaveform:
    return DigitalWaveform(initial_level, np.array([ps_to_fs(t_rise_ps)], dtype=np.int64))


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
    period = spec.period_fraction_fs()
    width = period * Fraction(spec.duty_cycle)
    offset = Fraction(ps_to_fs(spec.phase_offset_ps))

    ideal: list[int] = []
    n = 0
    while True:
        rise = offset + n * period
        if rise > duration_fs:
            break
        ideal.append(int(round(rise)))
        fall = rise + width
        if fall <= duration_fs:
            ideal.append(int(round(fall)))
        n += 1

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
    appears at its output.  Scans left to right, removing the offending edge
    pair and re-checking the merged neighborhood.
    """
    min_fs = ps_to_fs(min_width_ps)
    if min_fs <= 0 or w.n_edges < 2:
        return w
    times = list(map(int, w.edge_times_fs))
    i = 0
    while i + 1 < len(times):
        if times[i + 1] - times[i] < min_fs:
            del times[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return DigitalWaveform(w.initial_level, np.array(times, dtype=np.int64), w.domain_fs)
