from unittest import mock

import numpy as np
import pytest

from wavecap import chain as chain_module
from wavecap.chain import (
    ChainError,
    ChainInstance,
    ChainSpec,
    LookbackError,
    RegisterBank,
    RegisterSpec,
    capture,
    capture_at,
    capture_oracle,
    default_dnl_ramp,
    sample_chain,
    sample_registers,
    validate_config,
    _annihilation_elements,
    _max_catchup_fs,
    _reach_fs,
)
from wavecap.ringosc import RingSpec, simulate_ring
from wavecap.sweep import run_continuous
from wavecap.units import fs_to_ps, ps_to_fs
from wavecap.waveform import (
    DigitalWaveform,
    PllOutputSpec,
    make_pll_output,
    reject_short_pulses,
    step_waveform,
)


def ideal_chain(k, tau_rise, tau_fall=None, **kw):
    return sample_chain(ChainSpec(k, tau_rise, tau_fall if tau_fall is not None else tau_rise, **kw))


def regs_for(chain, **kw):
    return sample_registers(RegisterSpec(**kw), chain.k)


# -- validate_config --------------------------------------------------------


def test_validate_reference_operating_point():
    spec = ChainSpec(1300, 4.91, 4.54)
    report = validate_config(spec, 5_000, 500)
    assert report.ok and not report.violations


def test_validate_coverage_violation():
    spec = ChainSpec(1000, 4.91, 4.54)
    report = validate_config(spec, 5_000, 500)
    assert not report.ok
    assert any("coverage" in v for v in report.violations)


def test_validate_device_bound():
    spec = ChainSpec(1741, 4.91, 4.54)
    report = validate_config(spec, 5_000, 10_000)
    assert not report.ok
    assert any("device bound" in v for v in report.violations)


def test_validate_pulse_survival():
    spec = ChainSpec(1300, 5.0, 4.5)
    report = validate_config(spec, 5_000, 100)
    assert not report.ok
    assert any("pulse survival" in v for v in report.violations)


def test_inverted_delays_need_override():
    with pytest.raises(ChainError):
        ChainSpec(10, 4.0, 5.0)
    ChainSpec(10, 4.0, 5.0, allow_inverted=True)


# -- sample_chain -----------------------------------------------------------


def test_sample_chain_exact_at_zero_sigma():
    inst = ideal_chain(100, 4.91, 4.54)
    assert np.all(inst.tau_rise_fs == 4910)
    assert np.all(inst.tau_fall_fs == 4540)


def test_times_beyond_int64_femtoseconds_raise():
    # every element fits int64 fs, but 1024 of them wrap the cumulative prefix
    with pytest.raises(ChainError, match="does not fit int64"):
        sample_chain(ChainSpec(1024, 1e13, 1e13))
    with pytest.raises(ChainError, match="does not fit int64"):
        sample_registers(RegisterSpec(skew_sigma_ps=1e300), 16)


def test_sample_chain_ramp():
    spec = ChainSpec(20, 5.0, 4.5, dnl_ramp=tuple(default_dnl_ramp(10, 3.0)))
    inst = sample_chain(spec)
    assert inst.tau_rise_fs[0] == 15_000  # 3x mean
    assert inst.tau_rise_fs[9] == 5_000
    assert inst.tau_rise_fs[19] == 5_000


def test_sample_chain_mean_within_bound():
    spec = ChainSpec(1300, 4.91, 4.54, tau_sigma_ps=0.5, seed=11)
    inst = sample_chain(spec)
    mean_rise = inst.tau_rise_fs.mean() / 1000.0
    assert abs(mean_rise - 4.91) < 4 * 0.5 / np.sqrt(1300)  # 0.055 ps
    assert np.all(inst.tau_rise_fs > 0)


def test_sample_chain_deterministic():
    spec = ChainSpec(64, 5.0, 4.5, tau_sigma_ps=0.3, seed=9)
    a, b = sample_chain(spec), sample_chain(spec)
    assert np.all(a.tau_rise_fs == b.tau_rise_fs)
    assert np.all(a.tau_fall_fs == b.tau_fall_fs)


# -- capture ----------------------------------------------------------------


def test_capture_constant_high_all_ones():
    chain = ideal_chain(32, 5.0, 4.5)
    w = DigitalWaveform(1, np.array([], dtype=np.int64))
    frame = capture(w, chain, regs_for(chain), 1_000)
    assert np.all(frame.bits == 1)


def test_capture_all_zero_input():
    chain = ideal_chain(32, 5.0, 4.5)
    w = DigitalWaveform(0, np.array([], dtype=np.int64))
    frame = capture(w, chain, regs_for(chain), 1_000)
    assert np.all(frame.bits == 0)


def test_capture_step_four_taps():
    chain = ideal_chain(4, 1_000.0)
    frame = capture(step_waveform(0.0), chain, regs_for(chain), 2_500)
    assert list(frame.bits) == [1, 1, 0, 0]


def test_capture_oracle_matches_on_examples():
    chain = ideal_chain(4, 1_000.0)
    regs = regs_for(chain)
    for t in (0, 500, 2_500, 4_100):
        a = capture(step_waveform(0.0), chain, regs, t)
        b = capture_oracle(step_waveform(0.0), chain, regs, t)
        assert np.all(a.bits == b.bits)


def test_pulse_shrinks_one_carry_per_ten():
    # tau_rise=5.0, tau_fall=4.5: width shrinks by (5-4.5)/5 = 1 carry per 10
    # carries of travel, vanishing after width/(tau_rise-tau_fall) of travel.
    chain = ideal_chain(1300, 5.0, 4.5)
    regs = regs_for(chain)
    w = DigitalWaveform.from_edges([(0, 1), (500, 0)])
    widths = {}
    for t in (1_000, 2_000, 3_000, 4_000):
        bits = capture(w, chain, regs, t).bits
        runs = np.flatnonzero(bits)
        if runs.size:
            widths[t] = runs.size
    # falling edge travels t/4.5 carries; width in carries = 100 - travel/10
    for t, wid in widths.items():
        fall_pos = t / 4.5
        expected = 500 / 5.0 + fall_pos * (4.5 / 5.0 - 1.0) + 500 / 5.0 * 0  # see below
        # closed form: width = (t)/5 - (t-500)/4.5... compute directly:
        exact = t / 5.0 - (t - 500) / 4.5
        assert abs(wid - exact) <= 1.5
    # pulse is extinguished after 500/(5-4.5) = 1000 ps of travel past the
    # falling edge's entry, i.e. for captures well after ~5.5 ns
    late = capture(w, chain, regs, 6_500).bits
    assert not np.any(late)


def test_lookback_underflow_raises():
    chain = ideal_chain(64, 5.0, 4.5)
    w = make_pll_output(PllOutputSpec(600e6, 0.5), 10_000)  # domain [0, 10 ns]
    with pytest.raises(LookbackError):
        capture(w, chain, regs_for(chain), 100)  # window reaches before t=0


def test_capture_monotone_shift_of_lone_edge():
    chain = ideal_chain(256, 5.0, 4.5)
    regs = regs_for(chain)
    w = step_waveform(0.0)

    def rise_index(t):
        bits = capture(w, chain, regs, t).bits
        ones = np.flatnonzero(bits)
        return ones.max() + 1  # 1-based index of the rising edge

    base = rise_index(400)
    for m in (1, 3, 10, 40):
        assert abs(rise_index(400 + 5.0 * m) - (base + m)) <= 1


def test_symmetric_chain_conserves_pulse_width():
    chain = ideal_chain(1700, 5.0)
    regs = regs_for(chain)
    w = make_pll_output(PllOutputSpec(600e6, 0.5), 60_000)
    bits = capture(w, chain, regs, 50_000).bits
    # all full pulses inside the frame have the same carry width +-1
    padded = np.concatenate([[0], bits, [0]])
    d = np.diff(padded.astype(int))
    starts, ends = np.flatnonzero(d == 1), np.flatnonzero(d == -1)
    widths = ends - starts
    interior = widths[1:-1] if widths.size > 2 else widths
    assert interior.size >= 2
    assert interior.max() - interior.min() <= 1


def test_inversion_symmetry_only_when_symmetric():
    w = make_pll_output(PllOutputSpec(600e6, 0.5), 60_000)
    w_inv = DigitalWaveform(1 - w.initial_level, w.edge_times_fs.copy(), w.domain_fs)

    sym = ideal_chain(512, 5.0)
    regs = regs_for(sym)
    a = capture(w, sym, regs, 50_000).bits
    b = capture(w_inv, sym, regs, 50_000).bits
    assert np.all(a == 1 - b)

    asym = ideal_chain(512, 5.0, 4.5)
    regs = regs_for(asym)
    a = capture(w, asym, regs, 50_000).bits
    b = capture(w_inv, asym, regs, 50_000).bits
    assert np.any(a != 1 - b)


def test_entry_filter_removes_narrow_pulse():
    chain = ideal_chain(128, 5.0, 4.5, entry_min_pulse_ps=50.0)
    regs = regs_for(chain)
    w = DigitalWaveform.from_edges([(0, 1), (30, 0)])  # 30 ps pulse: filtered
    frame = capture(w, chain, regs, 300)
    assert not np.any(frame.bits)


def test_entry_delay_shifts_pattern():
    plain = ideal_chain(64, 5.0)
    delayed = sample_chain(ChainSpec(64, 5.0, 5.0, entry_delay_ps=50.0))
    regs = regs_for(plain)
    w = step_waveform(0.0)
    a = capture(w, plain, regs, 200).bits
    b = capture(w, delayed, regs, 250).bits  # extra 50 ps of age compensates
    assert np.all(a == b)


def test_capture_jitter_determinism():
    chain = ideal_chain(64, 5.0, 4.5)
    regs = sample_registers(RegisterSpec(skew_sigma_ps=5.0, seed=3), 64)
    w = make_pll_output(PllOutputSpec(600e6, 0.5), 20_000)
    a = capture(w, chain, regs, 15_000, clock_jitter_ps=12.5)
    b = capture(w, chain, regs, 15_000, clock_jitter_ps=12.5)
    assert np.array_equal(a.bits, b.bits)
    assert (a.capture_time_fs, a.phase_index) == (b.capture_time_fs, b.phase_index)
    c = capture_oracle(w, chain, regs, 15_000, clock_jitter_ps=12.5)
    assert np.all(a.bits == c.bits)


# -- randomized capture/oracle equivalence (small scale; full sweep lives in
#    the acceptance suite) ---------------------------------------------------


def random_config(rng):
    k = int(rng.integers(1, 65))
    tau_fall = float(rng.uniform(2.0, 8.0))
    tau_rise = tau_fall + float(rng.uniform(0.0, 2.0))
    spec = ChainSpec(
        k,
        tau_rise,
        tau_fall,
        tau_sigma_ps=float(rng.uniform(0.0, 0.5)),
        entry_delay_ps=float(rng.uniform(0.0, 80.0)),
        entry_min_pulse_ps=float(rng.choice([0.0, 40.0])),
        seed=int(rng.integers(0, 2**31)),
    )
    chain = sample_chain(spec)
    regs = sample_registers(
        RegisterSpec(skew_sigma_ps=float(rng.uniform(0, 10)), seed=int(rng.integers(0, 2**31))),
        k,
    )
    src = PllOutputSpec(
        frequency_hz=float(rng.uniform(5e7, 1.2e9)),
        duty_cycle=float(rng.uniform(0.1, 0.9)),
        period_jitter_sigma_ps=float(rng.choice([0.0, 30.0])),
        seed=int(rng.integers(0, 2**31)),
    )
    return chain, regs, src


def test_capture_equals_oracle_random_small():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        chain, regs, src = random_config(rng)
        w = make_pll_output(src, 30_000)
        t = float(rng.uniform(10_000, 25_000))
        jit = float(rng.normal(0, 20))
        a = capture(w, chain, regs, t, clock_jitter_ps=jit)
        b = capture_oracle(w, chain, regs, t, clock_jitter_ps=jit)
        assert np.all(a.bits == b.bits), (chain.spec, t, jit)


# -- pulse-width conservation at symmetric delays ----------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=1000, deadline=None)
@given(
    tau_fs=st.integers(2_000, 9_000),
    k=st.integers(32, 64),
    width_carries=st.integers(1, 20),
    sub_fs=st.integers(0, 8_999),
    pos=st.integers(2, 8),
    frac_fs=st.integers(0, 8_999),
)
def test_symmetric_pulse_width_quantization(
    tau_fs, k, width_carries, sub_fs, pos, frac_fs
):
    # with equal rise and fall delays a pulse's captured length can only be
    # the lattice count of its true width: floor(W/tau) or floor(W/tau)+1,
    # independent of where it sits along the chain
    tau_ps = tau_fs / 1_000.0
    chain = sample_chain(ChainSpec(k, tau_ps, tau_ps))
    regs = sample_registers(RegisterSpec(), k)
    width_fs = width_carries * tau_fs + min(sub_fs, tau_fs - 1)
    if pos + width_fs // tau_fs + 2 >= k:
        pos = 2
    t_fs = 40_000_000
    rise_fs = t_fs - (pos + width_fs // tau_fs) * tau_fs - min(frac_fs, tau_fs - 1)
    w = DigitalWaveform(
        0,
        np.array([rise_fs, rise_fs + width_fs], dtype=np.int64),
        (None, None),
    )
    frame = capture(w, chain, regs, t_fs / 1_000.0)
    runs = np.flatnonzero(np.diff(np.concatenate(([0], frame.bits, [0]))))
    assert runs.size in (0, 2)
    if runs.size == 2:
        start, end = runs
        if start > 0 and end < k:  # interior pulse only
            n = end - start
            assert n in (width_fs // tau_fs, width_fs // tau_fs + 1)


# -- capture_at: many frames of one waveform against the oracle --------------


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 40),
    tau_fall_fs=st.integers(2_000, 8_000),
    asym_fs=st.integers(0, 2_000),
    sigma_ps=st.sampled_from([0.0, 0.4]),
    entry_delay_ps=st.floats(0.0, 80.0),
    min_pulse_ps=st.floats(1.0, 30.0),
    skew_ps=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**16),
    initial_level=st.integers(0, 1),
    gaps_fs=st.lists(st.integers(1, 80_000), min_size=2, max_size=40),
    domain_lo_fs=st.one_of(st.none(), st.integers(-50_000, 50_000)),
    positions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
)
def test_capture_at_equals_oracle(
    k, tau_fall_fs, asym_fs, sigma_ps, entry_delay_ps, min_pulse_ps, skew_ps, seed,
    initial_level, gaps_fs, domain_lo_fs, positions,
):
    spec = ChainSpec(
        k,
        (tau_fall_fs + asym_fs) / 1_000.0,
        tau_fall_fs / 1_000.0,
        tau_sigma_ps=sigma_ps,
        entry_delay_ps=entry_delay_ps,
        entry_min_pulse_ps=min_pulse_ps,
        seed=seed,
    )
    chain = sample_chain(spec)
    regs = sample_registers(RegisterSpec(skew_sigma_ps=skew_ps, seed=seed), k)
    w = DigitalWaveform(initial_level, np.cumsum(gaps_fs, dtype=np.int64), (domain_lo_fs, None))
    # frame instants spread over the edges and the chain's reach past them
    reach_fs = int(max(chain.prefix_rise_fs[-1], chain.prefix_fall_fs[-1]))
    span_fs = sum(gaps_fs) + reach_fs
    sample_fs = np.array([reach_fs + round(p * span_fs) for p in positions], dtype=np.int64)

    expected, lookback_fails = [], False
    for t_fs in sample_fs:
        try:
            expected.append(capture_oracle(w, chain, regs, int(t_fs) / 1_000.0).bits)
        except LookbackError:
            lookback_fails = True
    if lookback_fails:
        with pytest.raises(LookbackError):
            capture_at(w, chain, regs, sample_fs)
    else:
        assert np.array_equal(capture_at(w, chain, regs, sample_fs), np.stack(expected))


def test_capture_at_keeps_edges_older_than_the_slowest_path():
    # the fall gains on the rise for ten elements, then falls back: it dies
    # at element 10 with a rise that has left the chain before every sample,
    # yet would itself still be in the chain at the late taps
    rise = np.full(20, 6_000)
    fall = np.array([4_000] * 10 + [9_000] * 10)
    chain = ChainInstance(ChainSpec(20, 6.0, 6.0), rise, fall)
    regs = regs_for(chain)
    w = DigitalWaveform.from_edges([(0.0, 1), (20.0, 0)])
    sample_fs = np.arange(125_000, 155_001, 1_000)
    expected = [capture_oracle(w, chain, regs, t / 1_000).bits for t in sample_fs]
    assert np.array_equal(capture_at(w, chain, regs, sample_fs), np.stack(expected))


@pytest.mark.parametrize("k", [255, 256, 65_535, 65_536])
def test_capture_at_tied_and_unordered_due_times(k):
    # skews of whole multiples of 30 ps on 6 ps rise and 5 ps fall elements:
    # taps of both polarities share due times and the due rows fall back.
    # Pulses 1.2 ps a tap wide outlast the chain; the instants land exactly on
    # due times, the last once every tap has counted the first edge while some
    # have not counted the second, at both sides of each count type's top
    chain = ideal_chain(k, 6.0, 5.0)
    skews = 30_000 * np.random.default_rng(k).integers(-2, 3, size=k)
    regs = RegisterBank(RegisterSpec(), skews)
    due_rise, due_fall = chain.prefix_rise_fs - skews, chain.prefix_fall_fs - skews
    for due in (due_rise, due_fall):
        assert np.unique(due).size < k and np.any(np.diff(due) < 0)
    width_fs = 1_200 * k
    w = DigitalWaveform(0, np.array([0, width_fs, 2 * width_fs]))
    taps = np.random.default_rng(k + 1).integers(0, k, size=3)
    sample_fs = np.concatenate((due_rise[taps], width_fs + due_fall[taps], [due_rise.max()]))
    assert due_rise.max() - width_fs < due_fall.max()
    expected = [capture_oracle(w, chain, regs, t / 1_000).bits for t in sample_fs.tolist()]
    assert np.array_equal(capture_at(w, chain, regs, sample_fs), np.stack(expected))


# -- capture_at against the per-frame loop it replaced ------------------------


def per_frame_capture_at(w, chain, regs, sample_fs):
    """Reference: ``capture_at`` one frame at a time, annihilation and the
    arrival matrix recomputed for every frame."""
    if regs.k != chain.k:
        raise ChainError("register bank length does not match chain")
    entry_fs = ps_to_fs(chain.spec.entry_delay_ps)
    reach_fs = _reach_fs(chain)
    t_fs = np.asarray(sample_fs, dtype=np.int64)
    lo = t_fs + regs.skews_fs.min() - reach_fs
    hi = t_fs + regs.skews_fs.max()

    wf = reject_short_pulses(w, chain.spec.entry_min_pulse_ps)
    times = wf.edge_times_fs
    pols = wf.initial_level ^ ((np.arange(times.size) + 1) & 1)
    first = np.searchsorted(times, lo - _max_catchup_fs(chain), side="left")
    stop = np.searchsorted(times, hi, side="right")
    prefix = np.stack([chain.prefix_fall_fs, chain.prefix_rise_fs])
    k_idx = np.arange(1, chain.k + 1)

    bits = np.empty((t_fs.size, chain.k), dtype=np.uint8)
    for f in range(t_fs.size):
        if not wf.covers_fs(int(lo[f]), int(hi[f])):
            raise LookbackError(
                f"waveform does not cover [{fs_to_ps(int(lo[f]))}, {fs_to_ps(int(hi[f]))}] ps"
            )
        i0, i1 = int(first[f]), int(stop[f])
        base_level = wf.initial_level ^ (i0 & 1)
        if i0 == i1:
            bits[f] = base_level
            continue
        e_t, e_p = times[i0:i1], pols[i0:i1]
        death = _annihilation_elements(e_t, e_p, prefix)
        arrivals = (e_t + entry_fs)[:, None] + prefix[e_p]
        present = (death == 0)[:, None] | (k_idx[None, :] < death[:, None])
        counted = present & (arrivals <= (t_fs[f] + regs.skews_fs)[None, :])
        bits[f] = base_level ^ (counted.sum(axis=0) & 1)
    return bits


@settings(max_examples=250, deadline=None)
@given(
    k=st.integers(1, 40),
    tau_fall_fs=st.integers(2_000, 8_000),
    asym_fs=st.integers(0, 2_000),
    sigma_ps=st.sampled_from([0.0, 0.4]),
    entry_delay_ps=st.floats(0.0, 80.0),
    min_pulse_ps=st.sampled_from([0.0, 5.0]),
    skew_ps=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**16),
    initial_level=st.integers(0, 1),
    gaps_fs=st.lists(st.integers(1, 25_000), min_size=2, max_size=30),
    domain_lo_fs=st.one_of(st.none(), st.integers(-50_000, 50_000)),
    bases=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    late=st.booleans(),
    offsets_fs=st.lists(st.integers(-8_000, 8_000), min_size=1, max_size=6),
    shuffle=st.randoms(use_true_random=False),
)
def test_capture_at_equals_per_frame_loop(
    k, tau_fall_fs, asym_fs, sigma_ps, entry_delay_ps, min_pulse_ps, skew_ps, seed,
    initial_level, gaps_fs, domain_lo_fs, bases, late, offsets_fs, shuffle,
):
    spec = ChainSpec(
        k,
        (tau_fall_fs + asym_fs) / 1_000.0,
        tau_fall_fs / 1_000.0,
        tau_sigma_ps=sigma_ps,
        entry_delay_ps=entry_delay_ps,
        entry_min_pulse_ps=min_pulse_ps,
        seed=seed,
    )
    chain = sample_chain(spec)
    regs = sample_registers(RegisterSpec(skew_sigma_ps=skew_ps, seed=seed), k)
    w = DigitalWaveform(initial_level, np.cumsum(gaps_fs, dtype=np.int64), (domain_lo_fs, None))
    # a few base instants, each repeated at small offsets (zero offsets are
    # exact duplicates), so frames share edge windows; a late base instant,
    # past every edge, and any before the first edge have empty windows
    reach_fs = _reach_fs(chain) + _max_catchup_fs(chain)
    bases_fs = [reach_fs + round(b * sum(gaps_fs)) for b in bases]
    bases_fs += [reach_fs + sum(gaps_fs) + 100_000] * late
    instants = [b + o for b in bases_fs for o in offsets_fs]
    shuffle.shuffle(instants)
    sample_fs = np.array(instants, dtype=np.int64)

    try:
        expected = per_frame_capture_at(w, chain, regs, sample_fs)
    except LookbackError as exc:
        with pytest.raises(LookbackError) as got:
            capture_at(w, chain, regs, sample_fs)
        assert str(got.value) == str(exc)
        return
    with mock.patch.object(
        chain_module, "_annihilation_elements", wraps=_annihilation_elements
    ) as annihilate:
        bits = capture_at(w, chain, regs, sample_fs)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, expected)
    # annihilation runs once per edge window, however its frames are ordered
    windows = [c.args[0].tobytes() for c in annihilate.call_args_list if c.args[0].size]
    assert len(windows) == len(set(windows))


@settings(max_examples=200, deadline=None)
@given(
    block=st.integers(1, 5),
    k=st.integers(1, 30),
    tau_fall_fs=st.integers(2_000, 6_000),
    asym_fs=st.integers(0, 4_000),
    skew_ps=st.sampled_from([0.0, 4.0]),
    seed=st.integers(0, 2**16),
    initial_level=st.integers(0, 1),
    gaps_fs=st.lists(st.integers(1, 30_000), min_size=4, max_size=25),
    positions=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=30),
    repeats=st.integers(1, 2),
    late=st.booleans(),
)
def test_capture_at_frame_blocks(
    block, k, tau_fall_fs, asym_fs, skew_ps, seed, initial_level, gaps_fs, positions,
    repeats, late,
):
    # blocks of one to five frames, so several blocks of both parities; the
    # instants repeated (duplicates), one at 0 and one past every edge (empty
    # windows), and rise delays up to 4 ps above fall delays with gaps from
    # 1 fs, so most examples hold windows whose pairs meet in the chain
    chain = sample_chain(ChainSpec(k, (tau_fall_fs + asym_fs) / 1_000.0, tau_fall_fs / 1_000.0))
    regs = sample_registers(RegisterSpec(skew_sigma_ps=skew_ps, seed=seed), k)
    w = DigitalWaveform(initial_level, np.cumsum(gaps_fs, dtype=np.int64), (None, None))
    reach_fs = _reach_fs(chain) + _max_catchup_fs(chain)
    instants = [reach_fs + round(p * sum(gaps_fs)) for p in positions] * repeats
    instants += [0] + [2 * reach_fs + sum(gaps_fs)] * late
    sample_fs = np.array(instants, dtype=np.int64)

    with mock.patch.object(chain_module, "_FRAME_BLOCK", block):
        bits = capture_at(w, chain, regs, sample_fs)
        none = capture_at(w, chain, regs, sample_fs[:0])
    assert np.array_equal(bits, per_frame_capture_at(w, chain, regs, sample_fs))
    for f in (0, len(instants) // 2, len(instants) - 1):
        oracle = capture_oracle(w, chain, regs, int(sample_fs[f]) / 1_000.0)
        assert np.array_equal(bits[f], oracle.bits)
    assert none.shape == (0, k) and none.dtype == np.uint8


def test_equal_delays_never_annihilate():
    # rise == fall delays: no pair closes its gap, so no window is annihilated;
    # the ring workload's shape, 1,024 taps and frames every 5 ns
    trace = simulate_ring(RingSpec(19, 240.0, initial_state="pulse"), 1_100_000)
    spec = ChainSpec(1024, 5.0, 5.0, entry_min_pulse_ps=50.0)
    with mock.patch.object(
        chain_module, "_annihilation_elements", wraps=_annihilation_elements
    ) as annihilate:
        ds = run_continuous(trace.node(0), spec, RegisterSpec(), 5_000.0, 200, t_start_ps=15_000)
    assert np.any(ds.bits) and annihilate.call_count == 0


@pytest.mark.parametrize("width_ps, death", [(20.0, 10), (40.0, 20)], ids=["mid-chain", "last-tap"])
def test_meeting_pair_is_annihilated(width_ps, death):
    # the fall gains 2 ps an element on the rise ahead of it, so a 20 ps pulse
    # dies at element 10; a 40 ps pulse meets exactly at the last tap, where
    # its gap equals the most the fall can gain in the chain
    chain = ideal_chain(20, 6.0, 4.0)
    regs = regs_for(chain)
    w = DigitalWaveform.from_edges([(0.0, 1), (width_ps, 0)])
    sample_fs = np.arange(0, 200_001, 2_500)
    with mock.patch.object(
        chain_module, "_annihilation_elements", wraps=_annihilation_elements
    ) as annihilate:
        bits = capture_at(w, chain, regs, sample_fs)
    # one call, for the one window holding both edges
    assert [c.args[0].tolist() for c in annihilate.call_args_list] == [[0, ps_to_fs(width_ps)]]
    assert annihilate(*annihilate.call_args.args).tolist() == [death, death]
    expected = [capture_oracle(w, chain, regs, t / 1_000).bits for t in sample_fs]
    assert np.array_equal(bits, np.stack(expected))
