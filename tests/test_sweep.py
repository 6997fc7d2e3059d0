import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavecap.chain import ChainSpec, RegisterSpec, capture, sample_chain, sample_registers
from wavecap.sweep import (
    MAX_FRAMES, SweepDataset, SweepError, SweepSpec, _default_start_ps, _instants_fs, _jittered_draws,
    run_continuous, run_sweep,
)
from wavecap.units import WavecapError, ps_to_fs
from wavecap.waveform import DigitalWaveform, PllOutputSpec, make_pll_output, shift_phase


MLAB = ChainSpec(1300, 4.91, 4.54)
IDEAL = ChainSpec(1300, 5.0, 5.0)
REGS = RegisterSpec()


def rising_indices(bits):
    """1-based indices k with bit_k=1, bit_{k+1}=0 (0 -> 1 in time)."""
    b = bits.astype(int)
    return [k + 1 for k in range(len(b) - 1) if b[k] == 1 and b[k + 1] == 0]


def test_sweep_pulse_walks_monotonically():
    spec = SweepSpec(PllOutputSpec(100e6, 0.25), dt_ps=78, n_steps=64)
    ds = run_sweep(spec, MLAB, REGS)
    assert ds.n_frames == 64
    last = None
    for bits in ds.bits:
        idx = rising_indices(bits)
        if not idx:
            last = None
            continue
        if last is not None and idx[0] < last:
            # moving toward the entry as phase grows
            assert last - idx[0] < 78 / 4.0
        last = idx[0]


def test_sweep_600mhz_multiple_pulses_per_frame():
    spec = SweepSpec(PllOutputSpec(600e6, 0.5), dt_ps=104, n_steps=16)
    ds = run_sweep(spec, MLAB, REGS)
    counts = []
    for bits in ds.bits:
        b = np.concatenate([[0], bits.astype(int), [0]])
        counts.append(int((np.diff(b) == 1).sum()))
    assert all(3 <= c <= 4 for c in counts)


def test_sweep_dt_zero_all_frames_identical():
    spec = SweepSpec(PllOutputSpec(100e6, 0.25), dt_ps=0, n_steps=8)
    ds = run_sweep(spec, MLAB, REGS)
    first = ds.bits[0]
    for bits in ds.bits[1:]:
        assert np.all(bits == first)


def test_sweep_config_violation_propagates():
    bad = ChainSpec(1000, 4.91, 4.54)  # not enough coverage for T=5 ns
    with pytest.raises(SweepError):
        run_sweep(SweepSpec(PllOutputSpec(100e6, 0.25)), bad, REGS)


def test_sweep_edge_index_matches_closed_form():
    # ideal chain, no jitter: index = floor of ((C - n*dt) / tau) up to offset
    spec = SweepSpec(PllOutputSpec(100e6, 0.25), dt_ps=78, n_steps=40)
    ds = run_sweep(spec, IDEAL, REGS)
    obs = [(n, rising_indices(bits)) for n, bits in enumerate(ds.bits)]
    obs = [(n, idx[0]) for n, idx in obs if idx]
    assert len(obs) >= 5
    n0, x0 = obs[0]
    checked = 0
    for n, x in obs:
        expected = x0 - (n - n0) * 78 / 5.0
        if expected < 1:
            break
        assert abs(x - expected) <= 1
        checked += 1
    assert checked >= 5


def test_sweep_deterministic():
    spec = SweepSpec(
        PllOutputSpec(100e6, 0.25, period_jitter_sigma_ps=20, seed=5),
        dt_ps=78,
        n_steps=16,
        crystal_jitter_sigma_ps=30,
        seed=42,
    )
    a = run_sweep(spec, MLAB, REGS)
    b = run_sweep(spec, MLAB, REGS)
    for name in ("bits", "capture_time_fs"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize(
    "bits, times",
    [
        (np.zeros(16), [0]),
        (np.zeros((2, 16)), [0]),
        (np.zeros((2, 16)), [[0, 1]]),
    ],
    ids=["bits-1d", "times-short", "times-2d"],
)
def test_dataset_rejects_disagreeing_shapes(bits, times):
    with pytest.raises(SweepError, match="one time per frame"):
        SweepDataset(bits, times, ChainSpec(16, 5.0, 5.0), REGS)


def test_sweep_frame_count_is_bounded():
    with pytest.raises(SweepError, match=f"n_steps must lie in \\[2, {MAX_FRAMES}\\]"):
        SweepSpec(PllOutputSpec(100e6), dt_ps=0.0, n_steps=MAX_FRAMES + 1)


def test_continuous_frame_count_is_bounded_before_any_draw():
    w = DigitalWaveform(1, np.array([], dtype=np.int64))
    with pytest.raises(SweepError, match=f"n_frames must lie in \\[1, {MAX_FRAMES}\\]"):
        run_continuous(w, ChainSpec(4, 5.0, 5.0), REGS, 0.0, MAX_FRAMES + 1, t_start_ps=100)


def test_continuous_constant_high():
    w = DigitalWaveform(1, np.array([], dtype=np.int64))
    ds = run_continuous(w, MLAB, REGS, 5_000, 4, t_start_ps=10_000)
    for bits in ds.bits:
        assert np.all(bits == 1)
    assert ds.t_capture_ps == 5_000


def test_continuous_lone_pulse_appears_in_consecutive_frames():
    # 1 ns pulse; K*tau = 6.5 ns window, T = 5 ns: visible in ceil(6.5/5)=2
    # consecutive frames, shifted by ~T/tau carries.
    chain = ChainSpec(1300, 5.0, 5.0)
    pulse = DigitalWaveform(0, [20_000_000, 21_000_000])
    ds = run_continuous(pulse, chain, REGS, 5_000, 6, t_start_ps=16_000)
    hits = [(m, rising_indices(bits)) for m, bits in enumerate(ds.bits)]
    seen = [(m, idx[0]) for m, idx in hits if idx]
    assert len(seen) == 2
    (m1, x1), (m2, x2) = seen
    assert m2 == m1 + 1
    assert abs((x2 - x1) - 5_000 / 5.0) <= 1


def test_continuous_span_512_frames():
    w = DigitalWaveform(1, np.array([], dtype=np.int64))
    ds = run_continuous(w, ChainSpec(64, 5.0, 5.0), REGS, 5_000, 512, t_start_ps=1_000)
    span_fs = ds.capture_time_fs[-1] - ds.capture_time_fs[0]
    assert span_fs == 511 * 5_000 * 1000  # 2.56 us total run


def test_continuous_default_start_covers_entry_delay():
    # the start `ro` takes when ro.t_start_ps is left out
    w = make_pll_output(PllOutputSpec(100e6, 0.25), 2e5)
    chain = sample_chain(ChainSpec(64, 5.0, 4.9, entry_delay_ps=2000))
    regs = sample_registers(RegisterSpec(), 64)
    ds = run_continuous(w, chain, regs, 300, 4, t_start_ps=_default_start_ps(chain, regs))
    assert ds.n_frames == 4
    # the default start is the exact look-back: entry delay plus 64 rise delays
    # plus the 6.4 ps rise/fall catch-up
    assert ds.capture_time_fs[0] == ps_to_fs(2000 + 64 * 5.0 + 64 * 0.1)


def test_continuous_equals_per_frame_capture():
    # one entry-filtered waveform, a jittered source and skewed registers
    w = make_pll_output(PllOutputSpec(600e6, 0.5, period_jitter_sigma_ps=40, seed=3), 60_000)
    chain = sample_chain(ChainSpec(256, 4.91, 4.54, tau_sigma_ps=0.1, entry_min_pulse_ps=50))
    regs = sample_registers(RegisterSpec(skew_sigma_ps=3.0, seed=4), 256)
    ds = run_continuous(w, chain, regs, 700, 40, t_start_ps=5_000)
    for m, (bits, t_fs) in enumerate(zip(ds.bits, ds.capture_time_fs)):
        f = capture(w, chain, regs, 5_000 + m * 700)
        assert np.array_equal(bits, f.bits)
        assert t_fs == f.capture_time_fs


# -- run_sweep against the shift-per-step loop it replaced -------------------


def sweep_t0_ps(spec, chain_spec):
    """The fixed capture phase of a sweep and the margin after it."""
    lookback_ps = chain_spec.k * max(chain_spec.tau_rise_ps, chain_spec.tau_fall_ps) * (
        1 + 6 * chain_spec.tau_sigma_ps / max(chain_spec.tau_rise_ps, 1e-9)
    )
    total_shift_ps = spec.dt_ps * (spec.n_steps - 1)
    margin_ps = chain_spec.entry_delay_ps + 10 * spec.crystal_jitter_sigma_ps + 1_000
    return lookback_ps + total_shift_ps + margin_ps, margin_ps


def shift_per_step_sweep(spec, chain_spec, reg_spec):
    """The sweep loop as first written: shift the whole source n*dt later at
    every step and capture it at the fixed phase t0."""
    chain = sample_chain(chain_spec)
    regs = sample_registers(reg_spec, chain_spec.k)
    t0_ps, margin_ps = sweep_t0_ps(spec, chain_spec)
    base = make_pll_output(spec.source, t0_ps + margin_ps)
    rng = np.random.default_rng(spec.seed)
    dead_lo, dead_hi = spec.relock_dead_cycles
    t_abs_fs = ps_to_fs(t0_ps)
    frames = []
    for n in range(spec.n_steps):
        if spec.crystal_jitter_sigma_ps > 0:
            jitter = float(rng.normal(0.0, spec.crystal_jitter_sigma_ps))
        else:
            jitter = 0.0
        dead = int(rng.integers(dead_lo, dead_hi + 1))
        w = shift_phase(base, n * spec.dt_ps)
        frame = capture(w, chain, regs, t0_ps, clock_jitter_ps=jitter)
        t_abs_fs += dead * ps_to_fs(spec.t_capture_ps)
        frames.append((frame.bits, t_abs_fs, n))
    return frames


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(16, 64),
    tau_fall_ps=st.floats(4.0, 6.0),
    asym_ps=st.floats(0.0, 0.5),
    sigma_ps=st.sampled_from([0.0, 0.05]),
    entry_delay_ps=st.floats(0.0, 100.0),
    min_pulse_ps=st.sampled_from([0.0, 50.0]),
    skew_ps=st.sampled_from([0.0, 3.0]),
    frequency_hz=st.floats(1e8, 1.2e9),
    duty=st.floats(0.2, 0.8),
    period_jitter_ps=st.sampled_from([0.0, 20.0]),
    coverage=st.floats(0.5, 1.0),
    dt_ps=st.floats(0.0, 150.0),
    n_steps=st.integers(2, 12),
    crystal_jitter_ps=st.sampled_from([0.0, 30.0]),
    seed=st.integers(0, 2**16),
)
def test_run_sweep_equals_shift_per_step_loop(
    k, tau_fall_ps, asym_ps, sigma_ps, entry_delay_ps, min_pulse_ps, skew_ps, frequency_hz,
    duty, period_jitter_ps, coverage, dt_ps, n_steps, crystal_jitter_ps, seed,
):
    chain = ChainSpec(
        k, tau_fall_ps + asym_ps, tau_fall_ps, tau_sigma_ps=sigma_ps,
        entry_delay_ps=entry_delay_ps, entry_min_pulse_ps=min_pulse_ps, seed=seed,
    )
    regs = RegisterSpec(skew_sigma_ps=skew_ps, seed=seed + 1)
    spec = SweepSpec(
        PllOutputSpec(frequency_hz, duty, period_jitter_sigma_ps=period_jitter_ps, seed=seed),
        t_capture_ps=coverage * k * tau_fall_ps,
        dt_ps=dt_ps,
        n_steps=n_steps,
        crystal_jitter_sigma_ps=crystal_jitter_ps,
        seed=seed + 2,
    )
    ds = run_sweep(spec, chain, regs)
    expected = shift_per_step_sweep(spec, chain, regs)
    assert ds.n_frames == len(expected)
    # row m of the dataset is phase step m
    for m, (row, t_row, (bits, t_fs, n)) in enumerate(zip(ds.bits, ds.capture_time_fs, expected)):
        assert np.array_equal(row, bits)
        assert (t_row, m) == (t_fs, n)


# -- dead cycles: the bounded and hand-drawn paths against the per-step loop --

# spans (hi - lo + 1) on both sides of numpy's 32- and 64-bit bounded fills;
# 2**31 + 1 and 2**63 - 2 reject about half and a tiny share of their draws
dead_ranges = st.one_of(
    st.sampled_from([1, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 2]),
    st.integers(1, 2**63 - 2),
).flatmap(lambda span: st.integers(2, 2**63 - span).map(lambda lo: (lo, lo + span - 1)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 600), lo_hi=dead_ranges)
@example(seed=0, n=600, lo_hi=(2, 2))
@example(seed=1, n=600, lo_hi=(2, 2**32))
@example(seed=2, n=600, lo_hi=(2, 2**32 + 1))
@example(seed=3, n=600, lo_hi=(2, 2**32 + 2))
def test_one_bounded_draw_equals_per_step_draws(seed, n, lo_hi):
    lo, hi = lo_hi
    rng = np.random.default_rng(seed)
    per_step = [int(rng.integers(lo, hi + 1)) for _ in range(n)]
    after_per_step = rng.integers(0, 2**63 - 1)
    rng = np.random.default_rng(seed)
    assert rng.integers(lo, hi + 1, size=n).tolist() == per_step
    assert rng.integers(0, 2**63 - 1) == after_per_step  # the same stream consumed


def per_step_draws(rng, n, sigma, lo, hi):
    """The sweep's jittered draw loop as first written: one scalar normal and
    one scalar bounded integer per step."""
    jitter_ps, dead = [], []
    for _ in range(n):
        jitter_ps.append(rng.normal(0.0, sigma))
        dead.append(int(rng.integers(lo, hi + 1)))
    return jitter_ps, dead


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 600), lo_hi=dead_ranges,
       sigma=st.floats(1e-3, 1e3))
@example(seed=0, n=600, lo_hi=(2, 2), sigma=30.0)
@example(seed=1, n=600, lo_hi=(2, 2**31 + 2), sigma=30.0)
@example(seed=2, n=600, lo_hi=(2, 2**32 + 1), sigma=30.0)
@example(seed=3, n=600, lo_hi=(2, 2**32 + 2), sigma=30.0)
def test_jittered_draws_equal_per_step_draws(seed, n, lo_hi, sigma):
    rng = np.random.default_rng(seed)
    jitter_ps, dead = per_step_draws(rng, n, sigma, *lo_hi)
    state = rng.bit_generator.state["state"]
    rng = np.random.default_rng(seed)
    got_jitter_ps, got_dead = _jittered_draws(rng, n, sigma, *lo_hi)
    assert got_jitter_ps.tolist() == jitter_ps
    assert got_dead == dead
    assert rng.bit_generator.state["state"] == state  # the same stream consumed


@settings(max_examples=100, deadline=None)
@given(
    n_steps=st.integers(2, 200),
    span=st.sampled_from([1, 39, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]),
    lo=st.integers(2, 1000),
    crystal_jitter_ps=st.sampled_from([0.0, 30.0]),
    seed=st.integers(0, 2**16),
)
def test_jitter_free_sweep_times_equal_per_step_draws(n_steps, span, lo, crystal_jitter_ps, seed):
    chain = ChainSpec(16, 5.0, 5.0)
    spec = SweepSpec(
        PllOutputSpec(500e6, 0.5, seed=seed), t_capture_ps=70.0, dt_ps=3.0, n_steps=n_steps,
        relock_dead_cycles=(lo, lo + span - 1), crystal_jitter_sigma_ps=crystal_jitter_ps,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    t_fs, expected = ps_to_fs(sweep_t0_ps(spec, chain)[0]), []
    for _ in range(n_steps):
        if crystal_jitter_ps > 0:
            rng.normal(0.0, crystal_jitter_ps)
        t_fs += int(rng.integers(lo, lo + span)) * ps_to_fs(70.0)
        expected.append(t_fs)
    assert run_sweep(spec, chain, REGS).capture_time_fs.tolist() == expected


# -- frame instants against the per-frame ps_to_fs they replaced ------------


@settings(max_examples=300, deadline=None)
@given(
    t_start_ps=st.floats(-1e9, 1e9),
    t_capture_ps=st.one_of(st.floats(1e-3, 1e7), st.integers(1, 10**7)),
    n_frames=st.integers(1, 60),
    dt_ps=st.one_of(st.floats(0.0, 1e6), st.integers(0, 10**6)),
)
def test_frame_instants_equal_per_frame_rounding(t_start_ps, t_capture_ps, n_frames, dt_ps):
    w = DigitalWaveform(1, np.array([], dtype=np.int64))
    ds = run_continuous(
        w, ChainSpec(4, 5.0, 5.0), REGS, t_capture_ps, n_frames, t_start_ps=t_start_ps
    )
    # the per-frame list that run_continuous built before
    expected = [ps_to_fs(t_start_ps + m * t_capture_ps) for m in range(n_frames)]
    assert ds.capture_time_fs.tolist() == expected
    # run_sweep's phase shifts
    shift_fs = _instants_fs(np.arange(n_frames, dtype=np.float64) * dt_ps)
    assert shift_fs.dtype == np.int64
    assert shift_fs.tolist() == [ps_to_fs(n * dt_ps) for n in range(n_frames)]


@pytest.mark.parametrize(
    "t_capture_ps, t_start_ps",
    [(1e306, 0.0), (1e16, 0.0), (5_000.0, 9.3e15), (5_000.0, -9.3e15), (5_000.0, float("nan"))],
    ids=["inf", "period-past-int64", "start-past-int64", "below-int64", "nan"],
)
def test_frame_instants_outside_int64_raise(t_capture_ps, t_start_ps):
    w = DigitalWaveform(1, np.array([], dtype=np.int64))
    with pytest.raises(WavecapError, match="does not fit int64"):
        run_continuous(w, ChainSpec(4, 5.0, 5.0), REGS, t_capture_ps, 3, t_start_ps=t_start_ps)
