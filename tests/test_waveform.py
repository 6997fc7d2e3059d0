from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavecap.waveform import (
    DigitalWaveform,
    PllOutputSpec,
    WaveformError,
    make_pll_output,
    reject_short_pulses,
    shift_phase,
)
from wavecap.units import FS_PER_PS, ps_to_fs


def value_at_fs(w, t_fs):
    """The level after the latest edge at or before t_fs, the initial level
    if none (``level_after(-1)``); elementwise on arrays."""
    return w.level_after(np.searchsorted(w.edge_times_fs, t_fs, side="right") - 1)


def test_constant_high_evaluates_high_everywhere():
    w = DigitalWaveform(1, np.array([], dtype=np.int64))
    for t in (-1e6, 0, 3.7, 1e9):
        assert value_at_fs(w, ps_to_fs(t)) == 1


def test_post_edge_boundary_convention():
    w = DigitalWaveform(0, [0, 2_500_000])
    assert value_at_fs(w, 1_200_000) == 1
    assert value_at_fs(w, 2_500_000) == 0  # level *after* the edge at t
    assert value_at_fs(w, -1_000) == 0
    assert value_at_fs(w, 0) == 1


def test_100mhz_25_duty_levels():
    spec = PllOutputSpec(frequency_hz=100e6, duty_cycle=0.25)
    w = make_pll_output(spec, 40_000)
    # 2.5 ns pulses every 10 ns
    assert value_at_fs(w, 10_000_000) == 1
    assert value_at_fs(w, 2_500_000) == 0
    assert value_at_fs(w, 1_000_000) == 1
    assert value_at_fs(w, 12_400_000) == 1


def test_pll_edges_100mhz():
    w = make_pll_output(PllOutputSpec(100e6, 0.25), 20_000)
    assert w.edge_times_fs[:4].tolist() == [0, 2_500_000, 10_000_000, 12_500_000]


def test_pll_edges_600mhz_rounding():
    w = make_pll_output(PllOutputSpec(600e6, 0.5), 5_000)
    times = w.edge_times_fs.tolist()
    # exact rational phase, rounded per edge: no drift
    assert times[:5] == [0, 833_333, 1_666_667, 2_500_000, 3_333_333]
    widths = np.diff(times)[::2]
    assert np.all(np.abs(widths - 833_333) <= 1)


def test_phase_offset_is_pure_translation():
    base = make_pll_output(PllOutputSpec(100e6, 0.25), 50_000)
    off = make_pll_output(PllOutputSpec(100e6, 0.25, phase_offset_ps=78.0), 50_000)
    shifted = shift_phase(base, 78.0)
    n = min(off.n_edges, shifted.n_edges)
    assert np.all(off.edge_times_fs[:n] == shifted.edge_times_fs[:n])


def test_shift_phase_examples():
    w = DigitalWaveform(0, [0])
    moved = shift_phase(w, 78)
    assert (moved.initial_level, moved.edge_times_fs.tolist()) == (0, [78_000])
    same = shift_phase(w, 0)
    assert (same.initial_level, same.edge_times_fs.tolist()) == (0, [0])


def test_shift_modular_equivalence():
    # shifting a 100 MHz train by 512*78 ps equals a 9936 ps relative shift
    w = make_pll_output(PllOutputSpec(100e6, 0.25), 200_000)
    big = shift_phase(w, 512 * 78)
    small = shift_phase(w, (512 * 78) % 10_000)
    for t in range(50_000, 150_000, 613):
        assert value_at_fs(big, ps_to_fs(t)) == value_at_fs(small, ps_to_fs(t))


def test_invalid_specs_rejected():
    with pytest.raises(WaveformError):
        make_pll_output(PllOutputSpec(-5.0, 0.5), 100)
    with pytest.raises(WaveformError):
        make_pll_output(PllOutputSpec(1e8, 1.0), 100)
    with pytest.raises(WaveformError):
        make_pll_output(PllOutputSpec(1e8, 0.5), 0)
    with pytest.raises(WaveformError, match="has over 1000000 edges"):
        make_pll_output(PllOutputSpec(1e9, 0.5), 1e9)
    with pytest.raises(WaveformError, match="initial_level must be 0 or 1"):
        DigitalWaveform(2, [])


def test_jitter_deterministic_and_order_preserving():
    spec = PllOutputSpec(100e6, 0.25, period_jitter_sigma_ps=40.0, seed=7)
    w1 = make_pll_output(spec, 500_000)
    w2 = make_pll_output(spec, 500_000)
    assert w1.initial_level == w2.initial_level
    assert np.array_equal(w1.edge_times_fs, w2.edge_times_fs)
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
        assert value_at_fs(w, ps_to_fs(t)) == value_at_fs(w, ps_to_fs(t + 5_000))


def test_redundant_edges_rejected():
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


def format_fs_as_ps(t_fs: int) -> str:
    """Fixed three-decimal picosecond string, exact (no float formatting):
    the per-edge formatter that to_csv once called, kept as its reference."""
    sign = "-" if t_fs < 0 else ""
    q, r = divmod(abs(int(t_fs)), FS_PER_PS)
    return f"{sign}{q}.{r:03d}"


EDGE_TIMES = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-3_000, 3_000),
    st.sampled_from([-(2**63), -(2**63) + 1, -1_000, -999, -1, 0, 999, 1_000, 2**63 - 1]),
)


@settings(max_examples=500, deadline=None)
@given(level=st.integers(0, 1), times=st.sets(EDGE_TIMES, max_size=40).map(sorted))
@example(level=1, times=[-(2**63), -1_001, -1_000, -999, -1, 0, 2**63 - 1])
@example(level=0, times=[-(2**63), 2**63 - 1])
@example(level=0, times=[])
def test_to_csv_matches_per_edge_formatting(level, times):
    w = DigitalWaveform(level, np.array(times, dtype=np.int64))
    lines = [f"{format_fs_as_ps(t)},{w.level_after(i)}" for i, t in enumerate(times)]
    assert w.to_csv() == "\n".join(["time_ps,level", *lines]) + "\n"


def test_reject_short_pulses():
    w = DigitalWaveform(0, [0, 30_000, 100_000, 400_000])
    filtered = reject_short_pulses(w, 50)
    assert (filtered.initial_level, filtered.edge_times_fs.tolist()) == (0, [100_000, 400_000])
    # wide pulses untouched
    wide = reject_short_pulses(w, 10)
    assert (wide.initial_level, wide.edge_times_fs.tolist()) == (0, w.edge_times_fs.tolist())


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
    assert value_at_fs(shift_phase(w, dt), ps_to_fs(t)) == value_at_fs(w, ps_to_fs(t - dt))



def reject_short_pulses_by_deletion(times, min_fs):
    """The filter as first written: delete each too-close pair from the list
    and step back one edge to re-check the merged neighborhood."""
    times = list(times)
    i = 0
    while i + 1 < len(times):
        if times[i + 1] - times[i] < min_fs:
            del times[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return times


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(st.integers(1, 2_000), max_size=40),
    st.integers(0, 1),
    st.integers(-5, 3_000),
)
def test_reject_short_pulses_matches_deletion_reference(gaps, init, min_fs):
    # gaps of up to 2 ps against minimum widths of up to 3 ps: nested pulses merge
    times = np.cumsum(gaps).tolist()
    w = DigitalWaveform(init, times, (0, 10**6))
    got = reject_short_pulses(w, min_fs / 1_000)
    assert got.edge_times_fs.tolist() == reject_short_pulses_by_deletion(times, min_fs)
    assert (got.initial_level, got.domain_fs) == (init, w.domain_fs)
    if min_fs <= 0 or len(times) < 2:
        assert got is w


# a 2**20 fs period: every level width below is exact in binary
@pytest.mark.parametrize(
    "duty, ok",
    [
        (2.0**-20, False),  # a 1 fs high level
        (np.nextafter(2.0**-20, 1.0), True),
        (1 - 2.0**-20, False),  # a 1 fs low level
        (np.nextafter(1 - 2.0**-20, 0.0), True),
    ],
)
def test_duty_cycle_leaves_each_level_over_1_fs(duty, ok):
    frequency_hz = 1e15 / 2**20
    assert PllOutputSpec(frequency_hz).period_fraction_fs() == 2**20
    if not ok:
        with pytest.raises(WaveformError, match=f"^duty_cycle {duty} leaves a level of 1 fs or less"):
            PllOutputSpec(frequency_hz, duty)
        return
    times = make_pll_output(PllOutputSpec(frequency_hz, float(duty)), 5_000).edge_times_fs
    assert min(np.diff(times)) == 1


def pll_edges_by_walk(spec, duration_ps):
    """make_pll_output's jitter-free edges as first written: walk the rises
    until one passes the duration, each followed by its fall if inside."""
    duration_fs = ps_to_fs(duration_ps)
    offset = Fraction(ps_to_fs(spec.phase_offset_ps))
    period = spec.period_fraction_fs()
    width = period * Fraction(spec.duty_cycle)
    ideal = []
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
    return ideal


@settings(max_examples=500, deadline=None)
@given(
    frequency_hz=st.one_of(st.sampled_from([100e6, 600e6]), st.floats(1e6, 5e9)),
    duty=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    offset_ps=st.floats(-3e5, 3e5),
    duration_ps=st.floats(1e-3, 2e5),
)
@example(100e6, 0.25, 0.0, 40_000.0)  # the last rise lies on the duration
@example(100e6, 0.25, 0.0, 2_500.0)  # the first fall lies on the duration
@example(600e6, 0.5, -12_345.6, 20_000.0)
@example(600e6, 0.3, 5e4, 1e4)  # the first rise lies past the duration: no edges
def test_pll_edges_match_the_walk(frequency_hz, duty, offset_ps, duration_ps):
    try:
        spec = PllOutputSpec(frequency_hz, duty, phase_offset_ps=offset_ps)
    except WaveformError:  # only a level of 1 fs or less, which rounding can close, is refused
        period = Fraction(10**15) / Fraction(frequency_hz)
        assert min(period * Fraction(duty), period * (1 - Fraction(duty))) <= 1
        return
    expected = pll_edges_by_walk(spec, duration_ps)
    w = make_pll_output(spec, duration_ps)
    assert w.edge_times_fs.tolist() == expected
    assert (w.initial_level, w.domain_fs) == (0, (0, ps_to_fs(duration_ps)))
