"""Carry-chain delay line and register capture.

A configured chain is sampled into per-element rise/fall delays.  Capturing a
waveform propagates each input edge down the chain at its polarity's speed;
when a faster trailing edge catches the edge ahead of it the pulse between
them has shrunk to nothing and both edges stop propagating (this is pulse
shrinking).  Registers sample each tap at the capture instant plus a static
per-register skew.  ``RegisterSpec.clock_jitter_sigma_ps`` is read, validated
and saved with each dataset but never applied: capture jitter comes from the
sweep's crystal jitter.  The benchmark configs set the key, so removing it
waits for a change to them.

Two independent implementations of the capture are provided: ``capture_at``
(frames in blocks, one due-time row per edge position, with annihilation only
where a pair can meet; ``capture`` is its one-frame form) and ``capture_oracle``
(element-by-element timeline reconstruction).  They must agree bit-exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .units import FS_PER_PS, WavecapError, fs_to_ps, ps_to_fs, require_finite
from .waveform import DigitalWaveform, reject_short_pulses

__all__ = [
    "MAX_CHAIN_LEN",
    "ChainSpec",
    "ChainInstance",
    "RegisterSpec",
    "RegisterBank",
    "CaptureFrame",
    "ConfigReport",
    "default_dnl_ramp",
    "validate_config",
    "sample_chain",
    "sample_registers",
    "capture_at",
    "capture",
    "capture_oracle",
]

# Device bound: the chain cannot exceed the height of the part.
MAX_CHAIN_LEN = 1740

RISING, FALLING = 1, 0

# frames per block of capture_at: each block temporary holds this many rows of K
_FRAME_BLOCK = 256


class ChainError(WavecapError):
    pass


class LookbackError(ChainError):
    """Waveform is not defined early enough for the requested capture."""


def default_dnl_ramp(length: int = 10, start_factor: float = 3.0) -> np.ndarray:
    """Entry nonlinearity profile: delays start at ``start_factor`` times the
    element mean and decay linearly to 1x over ``length`` elements."""
    return np.linspace(start_factor, 1.0, length)


@dataclass(frozen=True)
class ChainSpec:
    """Statistical description of one carry chain."""

    k: int
    tau_rise_ps: float
    tau_fall_ps: float
    tau_sigma_ps: float = 0.0
    entry_delay_ps: float = 0.0
    entry_min_pulse_ps: float = 0.0
    dnl_ramp: Optional[tuple[float, ...]] = None
    seed: int = 0
    allow_inverted: bool = False

    def __post_init__(self):
        require_finite(self, ChainError)
        if self.k < 1:
            raise ChainError("chain must have at least one element")
        if self.tau_rise_ps <= 0 or self.tau_fall_ps <= 0:
            raise ChainError("element delays must be positive")
        if self.entry_delay_ps < 0 or self.entry_min_pulse_ps < 0:
            raise ChainError("entry parameters must be >= 0")
        if self.tau_sigma_ps < 0:
            raise ChainError("tau_sigma must be >= 0")
        if self.tau_rise_ps < self.tau_fall_ps and not self.allow_inverted:
            raise ChainError(
                "rise delay below fall delay; pass allow_inverted=True to override"
            )
        if self.dnl_ramp is not None:
            object.__setattr__(self, "dnl_ramp", tuple(float(x) for x in self.dnl_ramp))
            if len(self.dnl_ramp) > self.k:
                raise ChainError("dnl_ramp longer than the chain")
            slowest_fs = max(self.tau_rise_ps, self.tau_fall_ps) * FS_PER_PS
            if not all(x > 0 and math.isfinite(x * slowest_fs) for x in self.dnl_ramp):
                raise ChainError("dnl_ramp multipliers must be positive, delays finite in fs")

    def ramp_multipliers(self) -> np.ndarray:
        m = np.ones(self.k)
        if self.dnl_ramp is not None:
            m[: len(self.dnl_ramp)] = self.dnl_ramp
        return m


@dataclass(frozen=True)
class ConfigReport:
    ok: bool
    violations: tuple[str, ...]


def validate_config(chain: ChainSpec, t_capture_ps: float, t_min_ps: float) -> ConfigReport:
    """Check the design constraints for continuous capture.

    Coverage uses the fall delay (the faster edge bounds how much history the
    chain holds); pulse survival bounds the accumulated rise/fall asymmetry.
    """
    if t_capture_ps <= 0:
        raise ChainError("capture period must be positive")
    violations = []
    coverage = chain.k * chain.tau_fall_ps
    if coverage < t_capture_ps:
        violations.append(
            f"coverage: K*tau_fall = {coverage:.1f} ps < capture period {t_capture_ps:.1f} ps"
        )
    shrink = chain.k * (chain.tau_rise_ps - chain.tau_fall_ps)
    if shrink >= t_min_ps:
        violations.append(
            f"pulse survival: K*(tau_rise-tau_fall) = {shrink:.1f} ps >= T_min {t_min_ps:.1f} ps"
        )
    if chain.k > MAX_CHAIN_LEN:
        violations.append(f"device bound: K = {chain.k} > {MAX_CHAIN_LEN}")
    return ConfigReport(not violations, tuple(violations))


@dataclass(frozen=True, eq=False)
class ChainInstance:
    """Sampled per-element delays with cumulative prefixes (femtoseconds)."""

    spec: ChainSpec
    tau_rise_fs: np.ndarray
    tau_fall_fs: np.ndarray
    prefix_rise_fs: np.ndarray = field(init=False, default=None)
    prefix_fall_fs: np.ndarray = field(init=False, default=None)

    def __post_init__(self):
        entry_fs = ps_to_fs(self.spec.entry_delay_ps)
        for pol in ("rise", "fall"):
            delays = getattr(self, f"tau_{pol}_fs")
            if np.any(delays <= 0):
                raise ChainError("sampled element delays must be strictly positive")
            prefix = np.cumsum(delays)
            # positive addends: an int64 wrap shows as a prefix that falls
            if np.any(prefix[1:] <= prefix[:-1]) or entry_fs + int(prefix[-1]) >= 2**63:
                raise ChainError(f"entry delay plus {pol} delays does not fit int64 femtoseconds")
            object.__setattr__(self, f"prefix_{pol}_fs", prefix)

    @property
    def k(self) -> int:
        return int(self.tau_rise_fs.size)


def _sample_delays(rng, mean_ps: float, ramp: np.ndarray, sigma_ps: float) -> np.ndarray:
    means_fs = mean_ps * ramp * FS_PER_PS
    out = np.round(means_fs)
    if sigma_ps > 0:
        sigma_fs = sigma_ps * FS_PER_PS
        out = np.round(rng.normal(means_fs, sigma_fs))
        bad = out <= 0
        while np.any(bad):  # truncate positive by rejection
            out[bad] = np.round(rng.normal(means_fs[bad], sigma_fs))
            bad = out <= 0
    if not np.all(out < 2**63):
        raise ChainError(f"element delay {out.max()} fs does not fit int64 femtoseconds")
    return out.astype(np.int64)


def sample_chain(spec: ChainSpec) -> ChainInstance:
    """Draw one chain realization; deterministic per spec.seed."""
    rng = np.random.default_rng(spec.seed)
    ramp = spec.ramp_multipliers()
    rise = _sample_delays(rng, spec.tau_rise_ps, ramp, spec.tau_sigma_ps)
    fall = _sample_delays(rng, spec.tau_fall_ps, ramp, spec.tau_sigma_ps)
    return ChainInstance(spec, rise, fall)


@dataclass(frozen=True)
class RegisterSpec:
    clock_jitter_sigma_ps: float = 0.0
    skew_sigma_ps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_finite(self, ChainError)
        if self.clock_jitter_sigma_ps < 0 or self.skew_sigma_ps < 0:
            raise ChainError("register sigmas must be >= 0")


@dataclass(frozen=True, eq=False)
class RegisterBank:
    """Static per-register skews for one chain's registers."""

    spec: RegisterSpec
    skews_fs: np.ndarray

    @property
    def k(self) -> int:
        return int(self.skews_fs.size)


def sample_registers(spec: RegisterSpec, k: int) -> RegisterBank:
    rng = np.random.default_rng(spec.seed)
    if spec.skew_sigma_ps > 0:
        skews = np.round(rng.normal(0.0, spec.skew_sigma_ps * FS_PER_PS, size=k))
        if not np.all(np.abs(skews) < 2**63):
            raise ChainError(f"register skew {np.abs(skews).max()} fs does not fit int64 femtoseconds")
    else:
        skews = np.zeros(k)
    return RegisterBank(spec, skews.astype(np.int64))


@dataclass(frozen=True, eq=False)
class CaptureFrame:
    """One K-bit snapshot; bits[0] is tap 1, the most recent sample."""

    bits: np.ndarray
    capture_time_fs: int
    phase_index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=np.uint8))

    @property
    def k(self) -> int:
        return int(self.bits.size)


# ---------------------------------------------------------------------------
# capture: pair-collision propagation
# ---------------------------------------------------------------------------


def _max_catchup_fs(chain: ChainInstance) -> int:
    """Largest cumulative arrival-time gap one polarity can close on the other."""
    return int(np.max(np.abs(chain.prefix_rise_fs - chain.prefix_fall_fs)))


def _reach_fs(chain: ChainInstance) -> int:
    """Entry delay plus the slowest path through the whole chain: a tap sample
    at t reads the input no earlier than t minus this."""
    max_delay = int(max(chain.prefix_rise_fs[-1], chain.prefix_fall_fs[-1]))
    return ps_to_fs(chain.spec.entry_delay_ps) + max_delay


def _annihilation_elements(
    times_fs: np.ndarray, pols: np.ndarray, prefix_by_pol_fs: np.ndarray
) -> np.ndarray:
    """First element (1-based) at which each edge is annihilated; 0 = survives.

    Adjacent edge pairs collide where the trailing edge's cumulative arrival
    time catches the leading one's; both are removed there, making their
    outer neighbors adjacent, which can collide further down.  Collisions are
    processed in order of collision element, which is consistent because a
    newly adjacent pair keeps its ordering up to the element that freed it.
    """
    n = times_fs.size
    out = np.zeros(n, dtype=np.int64)
    if n < 2:
        return out
    prev = np.arange(n) - 1
    nxt = np.arange(n) + 1
    alive = np.ones(n, dtype=bool)

    def first_crossing(i: int, j: int) -> int:
        gap = times_fs[j] - times_fs[i]
        d = prefix_by_pol_fs[pols[j]] - prefix_by_pol_fs[pols[i]]
        g = gap + d
        hits = np.nonzero(g <= 0)[0]
        return int(hits[0]) + 1 if hits.size else 0

    heap: list[tuple[int, int, int]] = []
    for i in range(n - 1):
        c = first_crossing(i, i + 1)
        if c:
            heapq.heappush(heap, (c, i, i + 1))

    while heap:
        c, i, j = heapq.heappop(heap)
        if not (alive[i] and alive[j] and nxt[i] == j):
            continue
        out[i] = out[j] = c
        alive[i] = alive[j] = False
        p, q = prev[i], nxt[j]
        if p >= 0 and q < n:
            nxt[p], prev[q] = q, p
            c2 = first_crossing(p, q)
            if c2:
                heapq.heappush(heap, (c2, p, q))
    return out


def capture_at(
    w: DigitalWaveform, chain: ChainInstance, regs: RegisterBank, sample_fs
) -> np.ndarray:
    """Register the chain state at each of F instants (integer fs, clock
    jitter included); returns bits[F, K].

    Bit k of frame f is the level of the entry-filtered waveform delayed by
    the entry gate plus the cumulative polarity-dependent element delays,
    sampled at sample_fs[f] + skew_k (post-edge convention at exact
    coincidence).  Edges older than the slowest path are already past every
    tap, but they can still annihilate a younger edge mid-chain, so a frame's
    edge window extends back by the maximum rise/fall catch-up.  Annihilation
    runs once per distinct window holding an adjacent pair that can meet in the
    chain (no preset has one, so only the tests exercise it).  Frames whose
    windows start on edges of one parity see one polarity sequence; in blocks
    of them, edge j of each frame flips every tap whose due-time row entry is
    at most the frame instant minus the edge time: in rank space, every tap
    whose rank in the sorted row is below the count of entries reached.
    """
    if regs.k != chain.k:
        raise ChainError("register bank length does not match chain")
    t_fs = np.asarray(sample_fs, dtype=np.int64)
    lo = t_fs + regs.skews_fs.min() - _reach_fs(chain)
    hi = t_fs + regs.skews_fs.max()

    wf = reject_short_pulses(w, chain.spec.entry_min_pulse_ps)
    uncovered = np.flatnonzero(~wf.covers_fs(lo, hi))
    if uncovered.size:
        f = uncovered[0]
        raise LookbackError(
            f"waveform does not cover [{fs_to_ps(int(lo[f]))}, {fs_to_ps(int(hi[f]))}] ps"
        )
    times = wf.edge_times_fs
    # the level after each edge, which is also its polarity (RISING == 1)
    pols = wf.initial_level ^ ((np.arange(times.size) + 1) & 1)
    first = np.searchsorted(times, lo - _max_catchup_fs(chain), side="left")
    stop = np.searchsorted(times, hi, side="right")
    prefix = np.stack([chain.prefix_fall_fs, chain.prefix_rise_fs])  # by polarity
    # a live edge of polarity p at t_e is counted at tap k from t_e + due_by_pol[p, k] on,
    # that is once more of that row's due times are at most t - t_e than are below
    # due_by_pol[p, k] (its rank); the counts, 0 to K, compare in the smallest type
    due_by_pol = ps_to_fs(chain.spec.entry_delay_ps) + prefix - regs.skews_fs
    due_sorted = np.sort(due_by_pol, axis=1)
    rank_type = np.min_scalar_type(chain.k)
    rank = np.stack([np.searchsorted(s, d, side="left") for s, d in zip(due_sorted, due_by_pol)])
    rank = rank.astype(rank_type)

    # edges alternate polarity: a pair meets only if its gap is at most the most
    # the trailing polarity gains, and a window without such a pair loses no edge
    closing = np.min(prefix[::-1] - prefix, axis=1)
    can_meet = np.diff(times) + closing[pols[:-1]] <= 0  # pair (i, i + 1)
    meets = np.cumsum(np.concatenate(([0], can_meet, [0])))  # pairs before edge i
    risky = np.flatnonzero(meets[np.maximum(stop - 1, first)] > meets[first])
    windows, window_of = np.unique(np.stack((first, stop), 1)[risky], axis=0, return_inverse=True)
    # edge j of risky window w lives at the taps below limits[w, j]; last row: at all
    limits = np.full((len(windows) + 1, int(np.max(stop - first, initial=0))), chain.k)
    for row, (i0, i1) in zip(limits, windows.tolist()):
        death = _annihilation_elements(times[i0:i1], pols[i0:i1], prefix)
        row[: i1 - i0] = np.where(death, death - 1, chain.k)
    limit_of = np.full(t_fs.size, -1)
    limit_of[risky] = window_of.reshape(-1)

    bits = np.empty((t_fs.size, chain.k), dtype=np.uint8)
    # edge j of every window starting on an edge of one parity has one polarity;
    # within a parity, frames go by window size, so a block's windows are alike
    order = np.lexsort((stop - first, first & 1))
    for parity, of_parity in enumerate(np.split(order, [np.count_nonzero((first & 1) == 0)])):
        for a in range(0, of_parity.size, _FRAME_BLOCK):
            rows = of_parity[a : a + _FRAME_BLOCK]
            n_edges = stop[rows] - first[rows]
            block = np.full((rows.size, chain.k), wf.initial_level ^ parity, dtype=np.uint8)
            limit_row = limit_of[rows]
            for j in range(int(n_edges.max())):
                edge_t = times.take(first[rows] + j, mode="clip")  # past the window: unused
                since = np.where(j < n_edges, t_fs[rows] - edge_t, np.iinfo(np.int64).min)
                pol = wf.initial_level ^ ((parity + j + 1) & 1)
                reached = np.searchsorted(due_sorted[pol], since, side="right").astype(rank_type)
                hit = rank[pol] < reached[:, None]
                if limit_row.max() >= 0:  # a death in the block
                    hit &= np.arange(chain.k) < limits[limit_row, j, None]
                block ^= hit
            bits[rows] = block
    return bits


def capture(
    w: DigitalWaveform,
    chain: ChainInstance,
    regs: RegisterBank,
    t_ps: float,
    clock_jitter_ps: float = 0.0,
    phase_index: Optional[int] = None,
) -> CaptureFrame:
    """Register the chain state at capture time t: one frame of ``capture_at``
    at t + clock_jitter."""
    t_fs = ps_to_fs(t_ps) + ps_to_fs(clock_jitter_ps)
    return CaptureFrame(capture_at(w, chain, regs, [t_fs])[0], t_fs, phase_index)


# ---------------------------------------------------------------------------
# capture_oracle: element-by-element timeline reconstruction
# ---------------------------------------------------------------------------


def capture_oracle(
    w: DigitalWaveform,
    chain: ChainInstance,
    regs: RegisterBank,
    t_ps: float,
    clock_jitter_ps: float = 0.0,
    phase_index: Optional[int] = None,
) -> CaptureFrame:
    """Brute-force capture: walk every edge through every element in order,
    materialize each tap's local waveform, then sample it.  Shares no
    propagation code with ``capture``."""
    if regs.k != chain.k:
        raise ChainError("register bank length does not match chain")
    spec = chain.spec
    entry_fs = ps_to_fs(spec.entry_delay_ps)
    t_fs = ps_to_fs(t_ps) + ps_to_fs(clock_jitter_ps)
    samples = t_fs + regs.skews_fs
    s_lo, s_hi = int(samples.min()), int(samples.max())

    wf = reject_short_pulses(w, spec.entry_min_pulse_ps)
    max_delay = int(max(chain.prefix_rise_fs[-1], chain.prefix_fall_fs[-1]))
    window_lo = s_lo - entry_fs - max_delay
    if not wf.covers_fs(window_lo, s_hi):
        raise LookbackError("waveform does not cover the capture look-back window")
    keep_from = window_lo - _max_catchup_fs(chain)

    all_times = [int(x) for x in wf.edge_times_fs]
    i0 = 0
    while i0 < len(all_times) and all_times[i0] < keep_from:
        i0 += 1
    base_level = wf.initial_level if i0 == 0 else wf.level_after(i0 - 1)
    edges = []  # (arrival_fs, polarity)
    lvl = base_level
    for t_e in all_times[i0:]:
        lvl ^= 1
        if t_e <= s_hi:
            edges.append([t_e + entry_fs, RISING if lvl == 1 else FALLING])

    bits = np.empty(chain.k, dtype=np.uint8)
    for k in range(chain.k):
        tau_r = int(chain.tau_rise_fs[k])
        tau_f = int(chain.tau_fall_fs[k])
        for e in edges:
            e[0] += tau_r if e[1] == RISING else tau_f
        # drop colliding adjacent pairs, re-checking after each removal
        changed = True
        while changed:
            changed = False
            for i in range(len(edges) - 1):
                if edges[i + 1][0] <= edges[i][0]:
                    del edges[i : i + 2]
                    changed = True
                    break
        s_k = int(samples[k])
        level = base_level
        for arrival, pol in edges:
            if arrival <= s_k:
                level = 1 if pol == RISING else 0
            else:
                break
        bits[k] = level
    return CaptureFrame(bits, t_fs, phase_index)
