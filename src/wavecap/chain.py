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
(every frame one row of level flips, one flip per edge at the taps it has
reached, with annihilation only where a pair can meet; ``capture`` is its
one-frame form) and ``capture_oracle`` (element-by-element timeline
reconstruction).  They must agree bit-exactly.
"""

from __future__ import annotations

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

# cells (rows x taps) per chunk of capture_at's row-wise passes: 256 KiB as int64
_CHUNK_CELLS = 2**15


class ChainError(WavecapError):
    pass


class LookbackError(ChainError):
    """Waveform is not defined early enough for the requested capture."""


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
        if self.entry_delay_ps < 0 or self.entry_min_pulse_ps < 0:
            raise ChainError("entry parameters must be >= 0")
        if self.tau_sigma_ps < 0:
            raise ChainError("tau_sigma must be >= 0")
        if self.dnl_ramp is not None:
            object.__setattr__(self, "dnl_ramp", tuple(float(x) for x in self.dnl_ramp))
            if len(self.dnl_ramp) > self.k:
                raise ChainError("dnl_ramp longer than the chain")
            slowest_fs = max(self.tau_rise_ps, self.tau_fall_ps) * FS_PER_PS
            if not all(x > 0 and math.isfinite(x * slowest_fs) for x in self.dnl_ramp):
                raise ChainError("dnl_ramp multipliers must be positive, delays finite in fs")
        # a mean element delay under 1 fs can sample to 0 fs; taps past the ramp have 1.0
        smallest = min((*(self.dnl_ramp or ()), 1.0)[: self.k])
        for name in ("tau_rise_ps", "tau_fall_ps"):
            if getattr(self, name) * smallest * FS_PER_PS < 1:
                raise ChainError(f"{name} times the smallest dnl_ramp multiplier must be >= 1 fs")
        if self.tau_rise_ps < self.tau_fall_ps and not self.allow_inverted:
            raise ChainError(
                "rise delay below fall delay; pass allow_inverted=True to override"
            )

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
    """Check a sweep's design constraints for continuous capture.

    Coverage uses the fall delay (the faster edge bounds how much history the
    chain holds); pulse survival bounds the accumulated rise/fall asymmetry.
    """
    if t_capture_ps <= 0:
        raise ChainError("capture period must be positive")
    violations = []
    coverage = chain.k * chain.tau_fall_ps
    if coverage < t_capture_ps:
        violations.append(
            f"coverage: chain.k*chain.tau_fall_ps = {coverage:.1f} ps "
            f"< sweep.t_capture_ps = {t_capture_ps:.1f} ps"
        )
    shrink = chain.k * (chain.tau_rise_ps - chain.tau_fall_ps)
    if shrink >= t_min_ps:
        violations.append(
            f"pulse survival: chain.k*(chain.tau_rise_ps-chain.tau_fall_ps) = {shrink:.1f} ps "
            f">= min(source.duty_cycle, 1-source.duty_cycle)/source.frequency_hz = {t_min_ps:.1f} ps"
        )
    if chain.k > MAX_CHAIN_LEN:
        violations.append(f"device bound: chain.k = {chain.k} > {MAX_CHAIN_LEN}")
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

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=np.uint8))


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

    def first_crossing(i: int, j: int) -> int:
        gap = times_fs[j] - times_fs[i]
        d = prefix_by_pol_fs[pols[j]] - prefix_by_pol_fs[pols[i]]
        g = gap + d
        hits = np.nonzero(g <= 0)[0]
        return int(hits[0]) + 1 if hits.size else 0

    live = list(range(n))  # the surviving edges, in order
    cross = [first_crossing(i, i + 1) for i in range(n - 1)]  # per adjacent pair of live
    while any(cross):
        c, a = min((c, a) for a, c in enumerate(cross) if c)  # the earlier pair on a tie
        i, j = live[a], live[a + 1]
        out[i] = out[j] = c
        del live[a : a + 2]
        # the pairs ending at i, of i and j, and starting at j become one pair (none at an end)
        cross[max(a - 1, 0) : a + 2] = [first_crossing(live[a - 1], live[a])] if 0 < a < len(live) else []
    return out


def _flip_rows(rows, cuts, start, n_rows: int, k: int) -> np.ndarray:
    """(n_rows, k) uint8 matrix whose row f starts at start[f] (or a scalar)
    and flips level at each of its cuts c, 0..k in any order, repeats allowed:
    a cut flips taps c.. of its row, so one at k flips nothing."""
    keys = np.sort(np.asarray(rows, dtype=np.int64) * (k + 1) + cuts)
    row = keys // (k + 1)
    first = np.searchsorted(keys, np.arange(n_rows) * (k + 1))  # each row's first cut
    start = np.broadcast_to(np.asarray(start, dtype=np.uint8), (n_rows,))
    # a segment per row start and per cut: a cut's level is its row's start
    # flipped once per cut of the row up to it, its offset its key less its row
    levels = np.insert(start[row] ^ ((np.arange(keys.size) - first[row] + 1) & 1), first, start)
    at = np.insert(keys - row, first, np.arange(n_rows) * k)
    return np.repeat(levels.astype(np.uint8), np.diff(at, append=n_rows * k)).reshape(n_rows, k)


def capture_at(
    w: DigitalWaveform, chain: ChainInstance, regs: RegisterBank, sample_fs
) -> np.ndarray:
    """Register the chain state at each of F instants (a 1-D integer array
    of femtoseconds, any crystal jitter already added); returns bits[F, K].

    Bit k of frame f is the level of the entry-filtered waveform delayed by
    the entry gate plus the cumulative polarity-dependent element delays,
    sampled at sample_fs[f] + skew_k (post-edge convention at exact
    coincidence).  Edges older than the slowest path are already past every
    tap, but they can still annihilate a younger edge mid-chain, so a frame's
    edge window extends back by the maximum rise/fall catch-up.  Each frame
    is one row of flips (_flip_rows), gathered back to taps, per polarity
    when rise and fall rank the taps differently.  Annihilation runs once per
    distinct window holding an adjacent pair that can meet in the chain (no
    preset has one, so only the tests exercise it).
    """
    if regs.k != chain.k:
        raise ChainError("register bank length does not match chain")
    t_fs = np.asarray(sample_fs)
    if t_fs.ndim != 1 or t_fs.dtype.kind not in "iu" or not np.can_cast(t_fs.dtype, np.int64):
        raise ChainError("sample_fs must be a 1-D integer array of femtoseconds within int64")
    t_fs = t_fs.astype(np.int64, copy=False)
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
    pols = wf.level_after(np.arange(times.size))
    first = np.searchsorted(times, lo - _max_catchup_fs(chain), side="left")
    stop = np.searchsorted(times, hi, side="right")
    prefix = np.stack([chain.prefix_fall_fs, chain.prefix_rise_fs])  # by polarity
    # a live edge of polarity p at t_e is counted at tap k from t_e + due_by_pol[p, k] on,
    # that is once more of that row's due times are at most t - t_e than are below
    # due_by_pol[p, k] (its rank)
    due_by_pol = ps_to_fs(chain.spec.entry_delay_ps) + prefix - regs.skews_fs
    due_sorted = np.sort(due_by_pol, axis=1)
    rank = np.stack([np.searchsorted(s, d, side="left") for s, d in zip(due_sorted, due_by_pol)])

    # every (frame, window edge) pair, frame by frame, and the ranks it reaches
    n_edges = stop - first
    frame = np.repeat(np.arange(t_fs.size), n_edges)
    edge = np.arange(frame.size) + np.repeat(first + n_edges - np.cumsum(n_edges), n_edges)
    pol = pols[edge]
    since = t_fs[frame] - times[edge]
    reached = np.choose(pol, [np.searchsorted(s, since, side="right") for s in due_sorted])

    # in rank space a frame is a row that starts at its base level, flipped
    # once per edge, and flips at each count reached; with one rank order per
    # polarity, each polarity's rows are built and gathered back apart
    by_pol = [slice(None)] if np.array_equal(*rank) else [pol == FALLING, pol == RISING]
    chunk = max(1, _CHUNK_CELLS // chain.k)  # rows
    for p, of_p in enumerate(by_pol):
        base = (wf.initial_level + first) * (p == 0)  # the level before the window
        start = (np.bincount(frame[of_p], minlength=t_fs.size) + base) & 1
        flips = _flip_rows(frame[of_p], reached[of_p], start, t_fs.size, chain.k)
        if p == 0:
            bits = flips if np.array_equal(rank[0], np.arange(chain.k)) else flips.take(rank[0], axis=1)
        else:  # gathered a chunk of rows at a time, so no third matrix is held
            for a in range(0, t_fs.size, chunk):
                bits[a : a + chunk] ^= flips[a : a + chunk].take(rank[1], axis=1)
        del flips  # before the next polarity's matrix is built

    # edges alternate polarity: a pair meets only if its gap is at most the most
    # the trailing polarity gains, and a window without such a pair loses no edge
    closing = np.min(prefix[::-1] - prefix, axis=1)
    can_meet = np.diff(times) + closing[pols[:-1]] <= 0  # pair (i, i + 1)
    meets = np.cumsum(np.concatenate(([0], can_meet, [0])))  # pairs before edge i
    risky = np.flatnonzero(meets[np.maximum(stop - 1, first)] > meets[first])
    if risky.size:  # an edge that dies at element d reads only at the taps below d - 1
        windows, window_of = np.unique(np.stack((first, stop), 1)[risky], axis=0, return_inverse=True)
        death = np.zeros((len(windows) + 1, int(n_edges.max())), dtype=np.int64)  # row -1: none dies
        for row, (i0, i1) in zip(death, windows.tolist()):
            row[: i1 - i0] = _annihilation_elements(times[i0:i1], pols[i0:i1], prefix)
        window = np.full(t_fs.size, -1)
        window[risky] = window_of.reshape(-1)
        limit = death[window[frame], edge - first[frame]] - 1
        dead = np.flatnonzero(limit >= 0)
        for d in (dead[a : a + chunk] for a in range(0, dead.size, chunk)):
            undo = (rank[pol[d]] < reached[d, None]) & (np.arange(chain.k) >= limit[d, None])
            np.bitwise_xor.at(bits, frame[d], undo.view(np.uint8))
    return bits


def capture(
    w: DigitalWaveform,
    chain: ChainInstance,
    regs: RegisterBank,
    t_ps: float,
    clock_jitter_ps: float = 0.0,
) -> CaptureFrame:
    """Register the chain state at capture time t: one frame of ``capture_at``
    at t + clock_jitter."""
    t_fs = ps_to_fs(t_ps) + ps_to_fs(clock_jitter_ps)
    return CaptureFrame(capture_at(w, chain, regs, [t_fs])[0], t_fs)


# ---------------------------------------------------------------------------
# capture_oracle: element-by-element timeline reconstruction
# ---------------------------------------------------------------------------


def capture_oracle(
    w: DigitalWaveform,
    chain: ChainInstance,
    regs: RegisterBank,
    t_ps: float,
    clock_jitter_ps: float = 0.0,
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
    return CaptureFrame(bits, t_fs)
