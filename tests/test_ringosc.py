import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_waveform import value_at_fs

from wavecap import ringosc
from wavecap.chain import ChainSpec, RegisterSpec
from wavecap.ringosc import (
    RingError,
    RingSpec,
    measure_node_timescale,
    sample_gate_delays,
    simulate_ring,
    stable_pulse_state,
    stitch_frames,
)
from wavecap.sweep import SweepDataset, run_continuous
from wavecap.units import ps_to_fs
from wavecap.waveform import DigitalWaveform


def test_three_node_traveling_pulse():
    tr = simulate_ring(RingSpec(3, 240.0, initial_state=(0, 0, 1)), 50_000)
    for i in range(3):
        d = np.diff(tr.nodes[i].edge_times_fs)
        # every node toggles each 3*tau: high time 3*tau, period 6*tau
        assert np.all(d == ps_to_fs(3 * 240.0))


def test_single_inverter_square_wave():
    tr = simulate_ring(RingSpec(1, 240.0), 10_000)
    d = np.diff(tr.nodes[0].edge_times_fs)
    assert np.all(d == ps_to_fs(240.0))


def test_min_pulse_must_fit_under_gate_delay():
    with pytest.raises(RingError):
        simulate_ring(RingSpec(1, 40.0, min_pulse_ps=50.0), 1_000)


def test_unstable_init_symmetric_never_decays():
    tr = simulate_ring(RingSpec(3, 240.0, min_pulse_ps=0.0), 100_000)
    late = tr.nodes[0].edge_times_fs
    assert late[-1] > ps_to_fs(95_000)


def test_unstable_init_multi_timescale_and_bounded_activity():
    # mismatch plus rise/fall asymmetry splits the single 240 ps scale into
    # several distinct gap scales; the number of walls never grows
    spec = RingSpec(
        3, 240.0, tau_sigma_ps=10.0, tau_fall_extra_ps=120.0, min_pulse_ps=100.0, seed=4
    )
    tr = simulate_ring(spec, 2_000_000)
    e = tr.nodes[0].edge_times_fs
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
        d = np.diff(tr.nodes[i].edge_times_fs)
        assert d.min() >= delays.min()


@pytest.mark.parametrize("n", [3, 5, 19, 101])
@pytest.mark.parametrize("sigma", [0.0, 10.0])
def test_gate_delays_equal_per_node_draws(n, sigma):
    # the per-node draws sample_gate_delays replaced; at fig7's 240 ps and
    # 10 ps no draw is rejected, so the bulk draw reads the same stream
    for seed in range(50):
        spec = RingSpec(n, 240.0, sigma, seed=seed)
        rng = np.random.default_rng(seed)
        want = [ps_to_fs(240.0 + (rng.normal(0.0, sigma) if sigma else 0.0)) for _ in range(n)]
        assert sample_gate_delays(spec).tolist() == want


def test_release_time_holds_initial_state():
    tr = simulate_ring(RingSpec(1, 240.0, release_time_ps=3_000.0), 10_000)
    assert tr.nodes[0].edge_times_fs[0] == ps_to_fs(3_240.0)


def test_ring_size_is_bounded_before_the_node_state_is_built():
    with pytest.raises(RingError, match=f"n must lie in \\[1, {ringosc.MAX_RING_EVENTS}\\]"):
        RingSpec(ringosc.MAX_RING_EVENTS + 1)


def test_event_budget_guard(monkeypatch):
    monkeypatch.setattr(ringosc, "MAX_RING_EVENTS", 10)
    with pytest.raises(RingError):
        simulate_ring(RingSpec(3, 240.0), 1_000_000)


def heap_simulate_ring(spec: RingSpec, duration_ps: float) -> ringosc.RingTrace:
    """The event-driven simulator simulate_ring replaced: edges pop off a heap
    one at a time, and a pair closer than min_pulse annihilates."""
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

    init = spec.initial_state
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
        if n_events > ringosc.MAX_RING_EVENTS:
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
    return ringosc.RingTrace(tuple(nodes))


def ring_outcome(simulate, spec, duration_ps):
    try:
        trace = simulate(spec, duration_ps)
    except RingError:
        return "RingError"
    return [(w.initial_level, w.domain_fs, w.edge_times_fs.tolist()) for w in trace.nodes]


@st.composite
def ring_cases(draw):
    n = draw(st.integers(1, 15))
    tau = draw(st.integers(20, 400).map(float) | st.floats(20.0, 400.0).map(lambda x: round(x, 3)))
    sigma = draw(st.just(0.0) | st.floats(0.0, tau))
    fall_extra = draw(
        st.sampled_from([0.0, tau - 1, tau, 2 * tau]) | st.floats(0.0, 5 * tau)
    )
    state = draw(
        st.sampled_from(["zeros", "pulse"] if n % 2 else ["zeros"])
        | st.tuples(*[st.integers(0, 1)] * n)
    )
    seed = draw(st.integers(0, 2**16))
    # min_pulse from 0 up to 1 fs below the smallest sampled gate delay
    d_min = int(sample_gate_delays(RingSpec(n, tau, sigma, seed=seed)).min())
    frac = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    min_pulse = round(frac * max(d_min - 1, 0)) / 1000
    release = draw(st.just(0.0) | st.floats(-5_000.0, 5_000.0))
    duration = release + draw(st.floats(0.001, 10_000.0))
    budget = draw(st.sampled_from([30, 300, 20_000]))
    return RingSpec(n, tau, sigma, fall_extra, min_pulse, state, release, seed), duration, budget


@settings(max_examples=300, deadline=None)
@given(case=ring_cases())
def test_closed_form_matches_heap_simulator(case):
    # the same edges, levels and domains, and a RingError from the
    # event budget exactly when the heap loop raises one
    spec, duration, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringosc, "MAX_RING_EVENTS", budget)
        want = ring_outcome(heap_simulate_ring, spec, duration)
        assert ring_outcome(simulate_ring, spec, duration) == want


@pytest.mark.parametrize("m", [2, 10])  # in the first period of two edges, and later
def test_event_budget_counts_an_event_at_the_horizon(monkeypatch, m):
    # the m-th edge of a lone inverter lands exactly on duration + min_pulse + 1 fs
    spec, duration = RingSpec(1, 240.0, min_pulse_ps=10.0), (m * 240_000 - 10_001) / 1000
    for budget, raises in ((m - 1, True), (m, False)):
        monkeypatch.setattr(ringosc, "MAX_RING_EVENTS", budget)
        got = ring_outcome(simulate_ring, spec, duration)
        assert got == ring_outcome(heap_simulate_ring, spec, duration)
        assert (got == "RingError") == raises


def test_ring_times_beyond_int64_femtoseconds():
    # a span from release past int64 fs, and an end past it after a late release
    with pytest.raises(RingError, match="duration"):
        simulate_ring(RingSpec(3, 240.0, release_time_ps=-1e16), 1_000)
    with pytest.raises(RingError, match="duration"):
        simulate_ring(RingSpec(3, 240.0, release_time_ps=9.2e15), 9.3e15)


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
        w = tr.nodes[i]
        e = w.edge_times_fs
        assert np.all(np.diff(e) == ps_to_fs(n * tau))


# -- stitching ---------------------------------------------------------------


def test_stitch_frames_reads_the_taps_within_one_period():
    # 940 taps of 5.319 ps fit in a 5,000 ps frame, read newest tap last
    bits = np.random.default_rng(0).integers(0, 2, (3, 1024), dtype=np.uint8)
    chain = ChainSpec(1024, 5.319, 5.319)
    ds = SweepDataset(bits, [0, 1, 2], chain, RegisterSpec(), t_capture_ps=5_000.0)
    assert np.array_equal(stitch_frames(ds, 5.319), bits[:, 939::-1].ravel())


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
    ds = run_continuous(tr.nodes[0], chain, RegisterSpec(), 500.0, 80, t_start_ps=9_000)
    series = stitch_frames(ds, 5.0)
    # direct sampling of the trace on the same grid: stitched sample j sits
    # at t_end - (total-1-j) * tau, where t_end is the last frame's most
    # recent tap
    k_t = 100
    total = ds.n_frames * k_t
    t_end = ps_to_fs(9_000) + (ds.n_frames - 1) * ps_to_fs(500.0) - 5_000
    times = t_end - np.arange(total - 1, -1, -1, dtype=np.int64) * 5_000
    direct = value_at_fs(tr.nodes[0], times)
    assert np.array_equal(series, direct)


@pytest.fixture(scope="module")
def pulse_capture():
    spec = RingSpec(5, 311.0, initial_state=stable_pulse_state(5))
    tr = simulate_ring(spec, 60_000)
    chain = ChainSpec(128, 5.0, 5.0, tau_sigma_ps=0.0, entry_delay_ps=0.0)
    return spec, run_continuous(tr.nodes[0], chain, RegisterSpec(), 500.0, 80, t_start_ps=9_000)


@pytest.mark.parametrize("tau_ps", [0.0, -5.0, float("nan"), float("inf")])
def test_carry_time_must_be_positive_and_finite(pulse_capture, tau_ps):
    spec, ds = pulse_capture
    with pytest.raises(RingError, match="must be positive and finite"):
        stitch_frames(ds, tau_ps)
    with pytest.raises(RingError, match="must be positive and finite"):
        measure_node_timescale(spec, stitch_frames(ds, 5.0), tau_ps)


def test_timescale_takes_the_stitched_series_not_the_frames(pulse_capture):
    spec, ds = pulse_capture
    m = measure_node_timescale(spec, stitch_frames(ds, 5.0), 5.0)
    assert m.per_node_ps == pytest.approx(311.0, abs=5.0)
    with pytest.raises(RingError, match="one stitched bit series"):
        measure_node_timescale(spec, ds.bits, 5.0)


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
        tr.nodes[0], chain, RegisterSpec(), period, n_frames, t_start_ps=t_start
    )
    series = stitch_frames(ds, float(tau_carry))
    step = ps_to_fs(float(tau_carry))
    total = n_frames * k
    t_end = ps_to_fs(t_start) + (n_frames - 1) * ps_to_fs(period) - step
    times = t_end - np.arange(total - 1, -1, -1, dtype=np.int64) * step
    direct = value_at_fs(tr.nodes[0], times)
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
    ds = run_continuous(tr.nodes[0], chain, regs, 5_000, n_frames, t_start_ps=15_000)
    return measure_node_timescale(spec, stitch_frames(ds, 5.0), 5.0)


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
