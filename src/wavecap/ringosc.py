"""Closed-form simulation of asynchronous inverter rings.

Each node obeys y_i(t) = NOT y_{i-1}(t - tau_i), plus tau_fall_extra when the
output falls.  Pulses in the ring are never narrower than its fastest gate, and
simulate_ring requires min_pulse below that, so no edge pair ever annihilates
and no transient decays: min_pulse only states that precondition and stretches
the event budget's horizon.  The per-node waveforms plug straight into the
capture engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .calibrate import _runs
from .sweep import SweepDataset
from .units import FS_PER_PS, WavecapError, ps_to_fs, require_finite
from .waveform import DigitalWaveform

__all__ = [
    "RingSpec",
    "RingTrace",
    "RingError",
    "simulate_ring",
    "stitch_frames",
    "NodeTimescale",
    "measure_node_timescale",
]


class RingError(WavecapError):
    pass


# simulate_ring's work bound: ring events up to duration + min_pulse + 1 fs
MAX_RING_EVENTS = 5_000_000


@dataclass(frozen=True)
class RingSpec:
    """An N-inverter unidirectional ring.  initial_state "zeros" (all low) or
    "pulse" (``stable_pulse_state``) becomes one level per node."""

    n: int
    tau_gate_ps: float = 240.0
    tau_sigma_ps: float = 0.0
    tau_fall_extra_ps: float = 0.0  # extra delay when the output falls
    min_pulse_ps: float = 50.0
    initial_state: Union[str, tuple[int, ...]] = "zeros"
    release_time_ps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_finite(self, RingError)
        if self.n < 1:
            raise RingError("need at least one node")
        if self.tau_gate_ps <= 0:
            raise RingError("gate delay must be positive")
        if self.tau_sigma_ps < 0 or self.min_pulse_ps < 0 or self.tau_fall_extra_ps < 0:
            raise RingError("dispersion, asymmetry and min_pulse must be nonnegative")
        state = self.initial_state
        if state in ("zeros", "pulse"):
            state = (0,) * self.n if state == "zeros" else stable_pulse_state(self.n)
        object.__setattr__(self, "initial_state", tuple(int(b) for b in state))
        if len(self.initial_state) != self.n or not set(self.initial_state) <= {0, 1}:
            raise RingError("initial_state must be zeros, pulse or n levels of 0 or 1")


def stable_pulse_state(n: int) -> tuple[int, ...]:
    """Alternating levels with a single frustrated gate (odd n).

    Exactly one gate disagrees with its input, so a lone domain wall travels
    the ring forever: each node toggles once per lap and stays high for
    n * tau_gate per period.
    """
    if n % 2 == 0:
        raise RingError("even rings have a stable fixed point, not a pulse")
    return tuple(i % 2 for i in range(n))


def sample_gate_delays(spec: RingSpec) -> np.ndarray:
    """Static per-node delays in fs, drawn once per instance."""
    rng = np.random.default_rng(spec.seed)
    taus = np.zeros(spec.n) if spec.tau_sigma_ps > 0 else np.full(spec.n, spec.tau_gate_ps)
    for i in range(spec.n):
        while taus[i] <= 0:  # truncate positive by rejection
            taus[i] = spec.tau_gate_ps + rng.normal(0.0, spec.tau_sigma_ps)
    if not np.all(taus * FS_PER_PS < 2**63):
        raise RingError(f"tau_gate_ps/tau_sigma_ps draw {taus.max()} ps is not finite in int64 fs")
    return np.array([ps_to_fs(t) for t in taus], dtype=np.int64)


@dataclass(frozen=True)
class RingTrace:
    spec: RingSpec
    delays_fs: np.ndarray
    nodes: tuple[DigitalWaveform, ...]

    def node(self, i: int) -> DigitalWaveform:
        return self.nodes[i]


def simulate_ring(spec: RingSpec, duration_ps: float) -> RingTrace:
    """Run the ring from release_time to duration and return node waveforms.

    Every gate whose initial output disagrees with its input launches one
    edge at release, and that edge circulates forever: after one lap (two on
    an odd ring, which inverts it) it is back at the same node and level one
    period later, and the period is the same for every edge.  So each node's
    edges are its first-period arrivals, repeated every period.
    """
    if duration_ps <= spec.release_time_ps:
        raise RingError("duration must exceed release_time")
    delays = sample_gate_delays(spec)
    min_pulse_fs = ps_to_fs(spec.min_pulse_ps)
    if min_pulse_fs >= delays.min():
        # at s = t + fall_extra * (level - hops) / 2 every hop adds just its
        # gate's delay, so the gaps between consecutive edges at a node
        # alternate by fall_extra, and the smaller one is at least the gate
        # delays between the two edges' launching gates
        raise RingError("min_pulse must be smaller than the smallest gate delay")
    fall_extra_fs = ps_to_fs(spec.tau_fall_extra_ps)
    if int(delays.max()) + fall_extra_fs >= 2**63:
        raise RingError(
            f"gate delay plus tau_fall_extra_ps {spec.tau_fall_extra_ps} ps is not finite in int64 fs"
        )
    release_fs, duration_fs = ps_to_fs(spec.release_time_ps), ps_to_fs(duration_ps)
    # MAX_RING_EVENTS counts the events up to this time after release
    horizon_fs = duration_fs + min_pulse_fs + 1 - release_fs
    if release_fs < -(2**63) or horizon_fs + max(release_fs, 0) >= 2**63:
        raise RingError(f"duration {duration_ps} ps after release is not finite in int64 fs")

    n, init, base = spec.n, spec.initial_state, delays.tolist()
    laps = 1 + n % 2
    # a period beyond the horizon repeats nothing; the clamp keeps it in int64
    period_fs = min(laps * sum(base) + laps * n // 2 * fall_extra_fs, horizon_fs)
    arrivals: list[tuple[int, int]] = []  # (node, time after release), first period
    n_events = 0
    for j in range(n):
        if init[j] != init[j - 1]:
            continue  # gate j agrees with its input and launches nothing
        t, level = 0, 1 - init[j]
        for k in range(j, j + laps * n):
            t += base[k % n] if level else base[k % n] + fall_extra_fs
            if t > horizon_fs:
                break
            arrivals.append((k % n, t))
            n_events += (horizon_fs - t) // period_fs + 1
            level ^= 1
        if n_events > MAX_RING_EVENTS:
            raise RingError("event budget exceeded; runaway configuration")

    # repeat each arrival every period up to the duration, grouped by node
    arrivals.sort()
    node, first = np.array(arrivals, dtype=np.int64).reshape(-1, 2).T
    reps = np.maximum((duration_fs - release_fs - first) // period_fs + 1, 0)
    lap = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    times = np.repeat(first, reps) + lap * period_fs + release_fs
    per_node = np.split(times, np.searchsorted(np.repeat(node, reps), np.arange(1, n)))
    nodes = tuple(
        DigitalWaveform(init[i], np.sort(t), (0, duration_fs)) for i, t in enumerate(per_node)
    )
    return RingTrace(spec, delays, nodes)


# ---------------------------------------------------------------------------
# frame stitching
# ---------------------------------------------------------------------------


def taps_within(tau_ps: float, window_ps: float) -> int:
    """Number of leading taps of nominal carry time tau_ps inside window_ps."""
    return int(np.floor(window_ps / float(tau_ps)))


def stitch_frames(dataset: SweepDataset, tau_ps: float) -> np.ndarray:
    """Concatenate contiguous frames into one time-ordered bit series: the
    taps covering one capture period at nominal carry time tau_ps, reversed
    so index order matches signal time, read row by row off the bits matrix."""
    if dataset.t_capture_ps is None:
        raise RingError("dataset was not captured at a fixed period")
    k_t = taps_within(tau_ps, dataset.t_capture_ps)
    if k_t < 1:
        raise RingError("capture period shorter than one carry")
    if k_t > dataset.k:
        raise RingError("chain too short to cover the capture period")
    return dataset.bits[:, k_t - 1 :: -1].ravel()


# ---------------------------------------------------------------------------
# per-inverter timescale (stable traveling pulse)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeTimescale:
    per_node_ps: float
    err_ps: float
    n_pulses: int


def measure_node_timescale(
    ring: RingSpec,
    dataset: SweepDataset,
    tau_ps: float,
    min_run: int = 15,
) -> NodeTimescale:
    """Per-inverter delay from continuously captured single-pulse traffic.

    The stable single-pulse state makes every node high for one full lap,
    so the mean pulse width divided by the node count is the gate delay.
    Frames are stitched first so pulses spanning a frame boundary count
    once, at full width.
    """
    series = stitch_frames(dataset, tau_ps)
    _, levels, first, last = _runs(series)
    widths = last - first + 1
    interior = (first > 1) & (last < series.size)
    widths = widths[(levels == 1) & interior & (widths >= min_run)]
    if widths.size < 2:
        raise RingError("not enough pulses to estimate a timescale")
    mean_w = float(widths.mean())
    sem_w = float(widths.std(ddof=1)) / np.sqrt(widths.size)
    return NodeTimescale(
        per_node_ps=mean_w * tau_ps / ring.n,
        err_ps=float(abs(sem_w * tau_ps)) / ring.n,
        n_pulses=int(widths.size),
    )
