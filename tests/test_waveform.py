import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecap.waveform import (
    DigitalWaveform,
    PllOutputSpec,
    WaveformError,
    evaluate,
    make_pll_output,
    reject_short_pulses,
    shift_phase,
)


def test_constant_high_evaluates_high_everywhere():
    w = DigitalWaveform(1, np.array([], dtype=np.int64))
    for t in (-1e6, 0, 3.7, 1e9):
        assert evaluate(w, t) == 1


def test_post_edge_boundary_convention():
    w = DigitalWaveform.from_edges([(0, 1), (2500, 0)])
    assert evaluate(w, 1200) == 1
    assert evaluate(w, 2500) == 0  # level *after* the edge at t
    assert evaluate(w, -1) == 0
    assert evaluate(w, 0) == 1


def test_100mhz_25_duty_levels():
    spec = PllOutputSpec(frequency_hz=100e6, duty_cycle=0.25)
    w = make_pll_output(spec, 40_000)
    # 2.5 ns pulses every 10 ns
    assert evaluate(w, 10_000) == 1
    assert evaluate(w, 2_500) == 0
    assert evaluate(w, 1_000) == 1
    assert evaluate(w, 12_400) == 1


def test_pll_edges_100mhz():
    w = make_pll_output(PllOutputSpec(100e6, 0.25), 20_000)
    assert [t for t, _ in w.edges_ps()][:4] == [0.0, 2500.0, 10000.0, 12500.0]


def test_pll_edges_600mhz_rounding():
    w = make_pll_output(PllOutputSpec(600e6, 0.5), 5_000)
    times = [t for t, _ in w.edges_ps()]
    # exact rational phase, rounded per edge: no drift
    assert times[0] == 0.0
    assert times[1] == pytest.approx(833.333, abs=0.001)
    assert times[2] == pytest.approx(1666.667, abs=0.001)
    assert times[4] == pytest.approx(3333.333, abs=0.001)
    widths = np.diff(times)[::2]
    assert np.all(np.abs(widths - 833.333) < 0.01)


def test_phase_offset_is_pure_translation():
    base = make_pll_output(PllOutputSpec(100e6, 0.25), 50_000)
    off = make_pll_output(PllOutputSpec(100e6, 0.25, phase_offset_ps=78.0), 50_000)
    shifted = shift_phase(base, 78.0)
    n = min(off.n_edges, shifted.n_edges)
    assert np.all(off.edge_times_fs[:n] == shifted.edge_times_fs[:n])


def test_shift_phase_examples():
    w = DigitalWaveform.from_edges([(0, 1)])
    assert shift_phase(w, 78).edges_ps() == [(78.0, 1)]
    assert shift_phase(w, 0) == w


def test_shift_modular_equivalence():
    # shifting a 100 MHz train by 512*78 ps equals a 9936 ps relative shift
    w = make_pll_output(PllOutputSpec(100e6, 0.25), 200_000)
    big = shift_phase(w, 512 * 78)
    small = shift_phase(w, (512 * 78) % 10_000)
    for t in range(50_000, 150_000, 613):
        assert evaluate(big, t) == evaluate(small, t)


def test_invalid_specs_rejected():
    with pytest.raises(WaveformError):
        make_pll_output(PllOutputSpec(-5.0, 0.5), 100)
    with pytest.raises(WaveformError):
        make_pll_output(PllOutputSpec(1e8, 1.0), 100)
    with pytest.raises(WaveformError):
        make_pll_output(PllOutputSpec(1e8, 0.5), 0)


def test_jitter_deterministic_and_order_preserving():
    spec = PllOutputSpec(100e6, 0.25, period_jitter_sigma_ps=40.0, seed=7)
    w1 = make_pll_output(spec, 500_000)
    w2 = make_pll_output(spec, 500_000)
    assert w1 == w2
    assert np.all(np.diff(w1.edge_times_fs) > 0)


def test_jitter_mean_period_within_bound():
    spec = PllOutputSpec(100e6, 0.5, period_jitter_sigma_ps=50.0, seed=3)
    w = make_pll_output(spec, 5_000_000)
    rises = np.asarray(w.edge_times_fs[::2], dtype=float) / 1000.0
    periods = np.diff(rises)
    n = periods.size
    assert abs(periods.mean() - 10_000) < 3 * 50.0 / np.sqrt(n) + 1


def test_jitter_free_is_exactly_periodic():
    w = make_pll_output(PllOutputSpec(200e6, 0.5), 100_000)
    for t in range(0, 80_000, 777):
        assert evaluate(w, t) == evaluate(w, t + 5_000)


def test_edge_list_round_trip():
    w = make_pll_output(PllOutputSpec(600e6, 0.5), 20_000)
    rebuilt = DigitalWaveform.from_edges(w.edges_ps(), w.initial_level)
    assert rebuilt == w


def test_redundant_edges_rejected():
    with pytest.raises(WaveformError):
        DigitalWaveform.from_edges([(0, 1), (10, 1)])
    with pytest.raises(WaveformError):
        DigitalWaveform(0, np.array([5, 5], dtype=np.int64))


GOLDEN_CSV = """time_ps,level
0.000,1
833.333,0
1666.667,1
2500.000,0
"""


def test_waveform_csv_golden():
    w = make_pll_output(PllOutputSpec(600e6, 0.5), 2_600)
    assert w.to_csv() == GOLDEN_CSV


def test_reject_short_pulses():
    w = DigitalWaveform.from_edges([(0, 1), (30, 0), (100, 1), (400, 0)])
    filtered = reject_short_pulses(w, 50)
    assert filtered.edges_ps() == [(100.0, 1), (400.0, 0)]
    # wide pulses untouched
    assert reject_short_pulses(w, 10) == w


@st.composite
def waveforms(draw):
    n = draw(st.integers(min_value=0, max_value=20))
    times = draw(
        st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=n, max_size=n, unique=True)
    )
    init = draw(st.integers(min_value=0, max_value=1))
    return DigitalWaveform(init, np.array(sorted(times), dtype=np.int64))


@settings(max_examples=1000, deadline=None)
@given(waveforms(), st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_translation_equivariance(w, dt, t):
    assert evaluate(shift_phase(w, dt), t) == evaluate(w, t - dt)
