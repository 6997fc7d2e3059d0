"""Event-driven simulation of asynchronous inverter rings.

Each node obeys y_i(t) = NOT y_{i-1}(t - tau_i).  Edges propagate around the
ring as scheduled events; when two edges arrive at a gate output closer than
min_pulse the pair annihilates, which is how runaway transients decay.  The
resulting per-node waveforms plug straight into the capture engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .calibrate import TransferFunction, _runs
from .sweep import SweepDataset
from .units import ps_to_fs
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


class RingError(ValueError):
    pass


@dataclass(frozen=True)
class RingSpec:
    """An N-inverter unidirectional ring."""

    n: int
    tau_gate_ps: float
    tau_sigma_ps: float = 0.0
    tau_fall_extra_ps: float = 0.0  # extra delay when the output falls
    min_pulse_ps: float = 50.0
    initial_state: Optional[tuple[int, ...]] = None
    release_time_ps: float = 0.0
    seed: int = 0
    max_events: int = 5_000_000

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one node")
        if self.tau_gate_ps <= 0:
            raise ValueError("gate delay must be positive")
        if self.tau_sigma_ps < 0 or self.min_pulse_ps < 0 or self.tau_fall_extra_ps < 0:
            raise ValueError("dispersion, asymmetry and min_pulse must be nonnegative")
        if self.initial_state is not None and len(self.initial_state) != self.n:
            raise ValueError("initial_state length must equal n")

    def state0(self) -> tuple[int, ...]:
        if self.initial_state is not None:
            return tuple(int(b) for b in self.initial_state)
        return tuple(0 for _ in range(self.n))


def stable_pulse_state(n: int) -> tuple[int, ...]:
    """Alternating levels with a single frustrated gate (odd n).

    Exactly one gate disagrees with its input, so a lone domain wall travels
    the ring forever: each node toggles once per lap and stays high for
    n * tau_gate per period.
    """
    if n % 2 == 0:
        raise ValueError("even rings have a stable fixed point, not a pulse")
    return tuple(i % 2 for i in range(n))


def sample_gate_delays(spec: RingSpec) -> np.ndarray:
    """Static per-node delays in fs, drawn once per instance."""
    rng = np.random.default_rng(spec.seed)
    taus = np.full(spec.n, spec.tau_gate_ps)
    if spec.tau_sigma_ps > 0:
        for i in range(spec.n):
            while True:
                d = spec.tau_gate_ps + rng.normal(0.0, spec.tau_sigma_ps)
                if d > 0:
                    taus[i] = d
                    break
    return np.array([ps_to_fs(t) for t in taus], dtype=np.int64)


@dataclass(frozen=True)
class RingTrace:
    spec: RingSpec
    delays_fs: np.ndarray
    nodes: tuple[DigitalWaveform, ...]

    def node(self, i: int) -> DigitalWaveform:
        return self.nodes[i]


def simulate_ring(spec: RingSpec, duration_ps: float) -> RingTrace:
    """Run the ring from release_time to duration and return node waveforms."""
    if duration_ps <= spec.release_time_ps:
        raise ValueError("duration must exceed release_time")
    delays = sample_gate_delays(spec)
    min_pulse_fs = ps_to_fs(spec.min_pulse_ps)
    if min_pulse_fs >= delays.min():
        # an annihilating edge must arrive before its partner's downstream
        # copy is processed, which needs min_pulse < every gate delay
        raise RingError("min_pulse must be smaller than the smallest gate delay")
    duration_fs = ps_to_fs(duration_ps)
    horizon_fs = duration_fs + min_pulse_fs + 1

    init = spec.state0()
    release_fs = ps_to_fs(spec.release_time_ps)
    heap: list[tuple[int, int, int, int]] = []  # (time, seq, node, level)
    seq = 0
    cancelled: set[int] = set()
    # committed edges per node: [time_fs, level, successor seq]
    edges: list[list[list[int]]] = [[] for _ in range(spec.n)]

    def push(t: int, node: int, level: int) -> int:
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (t, seq, node, level))
        return seq

    fall_extra_fs = ps_to_fs(spec.tau_fall_extra_ps)

    def gate_delay(node: int, out_level: int) -> int:
        d = int(delays[node])
        return d + fall_extra_fs if out_level == 0 else d

    # gates whose output disagrees with their held input flip one gate
    # delay after release
    for i in range(spec.n):
        want = 1 - init[(i - 1) % spec.n]
        if want != init[i]:
            push(release_fs + gate_delay(i, want), i, want)

    n_events = 0
    while heap:
        t, s, i, level = heapq.heappop(heap)
        if s in cancelled:
            cancelled.discard(s)
            continue
        if t > horizon_fs:
            break
        n_events += 1
        if n_events > spec.max_events:
            raise RingError("event budget exceeded; runaway configuration")
        cur = edges[i][-1][1] if edges[i] else init[i]
        if level == cur:
            continue
        if edges[i] and t - edges[i][-1][0] < max(min_pulse_fs, 1):
            # too-narrow pulse at this gate output: drop the pair and the
            # previous edge's downstream copy
            prev = edges[i].pop()
            cancelled.add(prev[2])
            continue
        nxt = (i + 1) % spec.n
        succ = push(t + gate_delay(nxt, 1 - level), nxt, 1 - level)
        edges[i].append([t, level, succ])

    nodes = []
    for i in range(spec.n):
        times = np.array(
            [e[0] for e in edges[i] if e[0] <= duration_fs], dtype=np.int64
        )
        nodes.append(DigitalWaveform(init[i], times, (0, duration_fs)))
    return RingTrace(spec, delays, tuple(nodes))


# ---------------------------------------------------------------------------
# frame stitching
# ---------------------------------------------------------------------------


def taps_within(calib: Union[float, TransferFunction], window_ps: float) -> int:
    """Number of leading taps whose cumulative time fits inside window_ps."""
    if isinstance(calib, TransferFunction):
        t = calib.t_ps
        return int(np.searchsorted(t, window_ps, side="right"))
    return int(np.floor(window_ps / float(calib)))


def stitch_frames(
    dataset: SweepDataset,
    calib: Union[float, TransferFunction],
    window_ps: Optional[float] = None,
) -> np.ndarray:
    """Concatenate contiguous frames into one time-ordered bit series: the
    taps covering one capture period, reversed so index order matches signal
    time, read row by row off the bits matrix.  calib is either a nominal
    carry time in ps or a transfer function."""
    if dataset.t_capture_ps is None:
        raise ValueError("dataset was not captured at a fixed period")
    window = dataset.t_capture_ps if window_ps is None else window_ps
    k_t = taps_within(calib, window)
    if k_t < 1:
        raise ValueError("capture period shorter than one carry")
    if k_t > dataset.k:
        raise ValueError("chain too short to cover the capture period")
    return dataset.bits[:, k_t - 1 :: -1].ravel()


# ---------------------------------------------------------------------------
# per-inverter timescale (stable traveling pulse)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeTimescale:
    per_node_ps: float
    err_ps: float
    mean_width_carries: float
    std_width_carries: float
    n_pulses: int


def measure_node_timescale(
    ring: RingSpec,
    dataset: SweepDataset,
    tau_ps: float,
    tau_err_ps: float = 0.0,
    min_run: int = 15,
) -> NodeTimescale:
    """Per-inverter delay from continuously captured single-pulse traffic.

    The stable single-pulse state makes every node high for one full lap,
    so the mean pulse width divided by the node count is the gate delay.
    Frames are stitched first so pulses spanning a frame boundary count
    once, at full width.
    """
    series = stitch_frames(dataset, tau_ps)
    _, levels, widths = _runs(series)
    ends = np.cumsum(widths)
    interior = (ends - widths > 0) & (ends < series.size)
    widths = widths[(levels == 1) & interior & (widths >= min_run)]
    if widths.size < 2:
        raise RingError("not enough pulses to estimate a timescale")
    mean_w = float(widths.mean())
    std_w = float(widths.std(ddof=1))
    sem_w = std_w / np.sqrt(widths.size)
    total = mean_w * tau_ps
    total_err = float(np.hypot(sem_w * tau_ps, mean_w * tau_err_ps))
    return NodeTimescale(
        per_node_ps=total / ring.n,
        err_ps=total_err / ring.n,
        mean_width_carries=mean_w,
        std_width_carries=std_w,
        n_pulses=int(widths.size),
    )
