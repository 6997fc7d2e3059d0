import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecap import ringosc
from wavecap.chain import ChainSpec, RegisterSpec
from wavecap.ringosc import (
    NodeTimescale,
    RingError,
    RingSpec,
    measure_node_timescale,
    sample_gate_delays,
    simulate_ring,
    stable_pulse_state,
    stitch_frames,
    taps_within,
)
from wavecap.sweep import run_continuous
from wavecap.units import ps_to_fs


def test_three_node_traveling_pulse():
    tr = simulate_ring(RingSpec(3, 240.0, initial_state=(0, 0, 1)), 50_000)
    for i in range(3):
        d = np.diff(tr.node(i).edge_times_fs)
        # every node toggles each 3*tau: high time 3*tau, period 6*tau
        assert np.all(d == ps_to_fs(3 * 240.0))


def test_single_inverter_square_wave():
    tr = simulate_ring(RingSpec(1, 240.0), 10_000)
    d = np.diff(tr.node(0).edge_times_fs)
    assert np.all(d == ps_to_fs(240.0))


def test_min_pulse_must_fit_under_gate_delay():
    with pytest.raises(RingError):
        simulate_ring(RingSpec(1, 40.0, min_pulse_ps=50.0), 1_000)


def test_unstable_init_symmetric_never_decays():
    tr = simulate_ring(RingSpec(3, 240.0, min_pulse_ps=0.0), 100_000)
    late = tr.node(0).edge_times_fs
    assert late[-1] > ps_to_fs(95_000)


def test_unstable_init_multi_timescale_and_bounded_activity():
    # mismatch plus rise/fall asymmetry splits the single 240 ps scale into
    # several distinct gap scales; the number of walls never grows
    spec = RingSpec(
        3, 240.0, tau_sigma_ps=10.0, tau_fall_extra_ps=120.0, min_pulse_ps=100.0, seed=4
    )
    tr = simulate_ring(spec, 2_000_000)
    e = tr.node(0).edge_times_fs
    gaps = np.unique(np.diff(e))
    assert gaps.size >= 4
    assert gaps.max() > 1.3 * gaps.min()
    # toggle rate in the last quarter does not exceed the first quarter
    q = ps_to_fs(500_000)
    early = np.searchsorted(e, q)
    late = e.size - np.searchsorted(e, 3 * q)
    assert late <= early + 1


def test_pulse_width_floor_is_smallest_gate_delay():
    # ring-internal pulses can never be narrower than the fastest gate, so
    # a min_pulse below that bound never fires and activity persists
    spec = RingSpec(3, 240.0, tau_sigma_ps=10.0, min_pulse_ps=200.0, seed=0)
    tr = simulate_ring(spec, 1_000_000)
    delays = sample_gate_delays(spec)
    for i in range(3):
        d = np.diff(tr.node(i).edge_times_fs)
        assert d.min() >= delays.min()


def test_release_time_holds_initial_state():
    tr = simulate_ring(RingSpec(1, 240.0, release_time_ps=3_000.0), 10_000)
    assert tr.node(0).edge_times_fs[0] == ps_to_fs(3_240.0)


def test_event_budget_guard(monkeypatch):
    monkeypatch.setattr(ringosc, "MAX_RING_EVENTS", 10)
    with pytest.raises(RingError):
        simulate_ring(RingSpec(3, 240.0), 1_000_000)


def test_stable_pulse_state_has_one_frustrated_gate():
    for n in (3, 5, 19):
        s = stable_pulse_state(n)
        bad = sum(1 for i in range(n) if s[i] != 1 - s[(i - 1) % n])
        assert bad == 1
    with pytest.raises(ValueError):
        stable_pulse_state(4)


def test_high_time_conservation_per_lap():
    n, tau = 5, 311.0
    tr = simulate_ring(RingSpec(n, tau, initial_state=stable_pulse_state(n)), 100_000)
    for i in range(n):
        w = tr.node(i)
        e = w.edge_times_fs
        assert np.all(np.diff(e) == ps_to_fs(n * tau))


# -- stitching ---------------------------------------------------------------


def test_taps_within_nominal():
    assert taps_within(5.319, 5_000.0) == 940


def test_stitch_constant_high():
    tr = simulate_ring(RingSpec(3, 240.0, initial_state=(0, 0, 1)), 40_000)
    from wavecap.waveform import DigitalWaveform

    w = DigitalWaveform(1, np.empty(0, dtype=np.int64), (0, ps_to_fs(40_000)))
    chain = ChainSpec(64, 5.0, 5.0, tau_sigma_ps=0.0, entry_delay_ps=0.0)
    ds = run_continuous(w, chain, RegisterSpec(), 250.0, 8, t_start_ps=1_000)
    series = stitch_frames(ds, 5.0)
    assert series.size == 8 * 50
    assert np.all(series == 1)


def test_stitch_requires_fixed_period():
    from wavecap.sweep import SweepSpec, run_sweep
    from wavecap.waveform import PllOutputSpec

    ds = run_sweep(
        SweepSpec(PllOutputSpec(100e6, 0.25), 5_000, 78, 4),
        ChainSpec(1300, 4.91, 4.54),
        RegisterSpec(),
    )
    with pytest.raises(ValueError):
        stitch_frames(ds, 4.91)


def test_stitch_boundary_pulse_is_contiguous():
    spec = RingSpec(5, 311.0, initial_state=stable_pulse_state(5))
    tr = simulate_ring(spec, 60_000)
    chain = ChainSpec(
        128, 5.0, 5.0, tau_sigma_ps=0.0, entry_delay_ps=0.0, entry_min_pulse_ps=0.0
    )
    ds = run_continuous(tr.node(0), chain, RegisterSpec(), 500.0, 80, t_start_ps=9_000)
    series = stitch_frames(ds, 5.0)
    # direct sampling of the trace on the same grid: stitched sample j sits
    # at t_end - (total-1-j) * tau, where t_end is the last frame's most
    # recent tap
    k_t = 100
    total = ds.n_frames * k_t
    t_end = ps_to_fs(9_000) + (ds.n_frames - 1) * ps_to_fs(500.0) - 5_000
    times = t_end - np.arange(total - 1, -1, -1, dtype=np.int64) * 5_000
    direct = np.array([tr.node(0).value_at_fs(int(t)) for t in times], dtype=np.uint8)
    assert np.array_equal(series, direct)


@settings(max_examples=1000, deadline=None)
@given(
    n=st.sampled_from([1, 3, 5]),
    tau_gate=st.integers(80, 400),
    tau_carry=st.integers(3, 9),
    k=st.integers(16, 64),
    n_frames=st.integers(2, 5),
)
def test_stitch_matches_direct_sampling(n, tau_gate, tau_carry, k, n_frames):
    spec = RingSpec(n, float(tau_gate), initial_state=stable_pulse_state(n))
    period = float(k * tau_carry)
    t_start = 4_000.0
    tr = simulate_ring(spec, t_start + n_frames * period + 100)
    chain = ChainSpec(
        k,
        float(tau_carry),
        float(tau_carry),
        tau_sigma_ps=0.0,
        entry_delay_ps=0.0,
        entry_min_pulse_ps=0.0,
    )
    ds = run_continuous(
        tr.node(0), chain, RegisterSpec(), period, n_frames, t_start_ps=t_start
    )
    series = stitch_frames(ds, float(tau_carry))
    step = ps_to_fs(float(tau_carry))
    total = n_frames * k
    t_end = ps_to_fs(t_start) + (n_frames - 1) * ps_to_fs(period) - step
    times = t_end - np.arange(total - 1, -1, -1, dtype=np.int64) * step
    direct = np.array([tr.node(0).value_at_fs(int(t)) for t in times], dtype=np.uint8)
    assert np.array_equal(series, direct)


# -- node timescale ----------------------------------------------------------


@pytest.fixture(scope="module")
def capture_setup():
    chain = ChainSpec(1024, 5.0, 5.0, tau_sigma_ps=0.0, entry_delay_ps=0.0)
    return chain, RegisterSpec()


def run_timescale(tau_gate, n, capture_setup, n_frames=150):
    chain, regs = capture_setup
    spec = RingSpec(n, tau_gate, initial_state=stable_pulse_state(n))
    tr = simulate_ring(spec, 20_000 + n_frames * 5_000)
    ds = run_continuous(tr.node(0), chain, regs, 5_000, n_frames, t_start_ps=15_000)
    return measure_node_timescale(spec, ds, 5.0)


def test_recovers_240ps_per_node(capture_setup):
    m = run_timescale(240.0, 19, capture_setup)
    assert m.per_node_ps == pytest.approx(240.0, abs=6.0)


def test_recovers_280ps_per_node(capture_setup):
    m = run_timescale(280.0, 19, capture_setup)
    assert m.per_node_ps == pytest.approx(280.0, abs=6.0)


def test_estimator_n_invariance(capture_setup):
    m19 = run_timescale(240.0, 19, capture_setup)
    m1 = run_timescale(240.0, 1, capture_setup, n_frames=40)
    assert abs(m19.per_node_ps - m1.per_node_ps) <= 5.0
