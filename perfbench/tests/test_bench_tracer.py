import sys

import pytest

import bench
from tracer import Span, Tracer, aggregate, self_times


def test_self_time_of_nested_spans():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # self times of one op sum to its root spans' time
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_aggregate_sums_calls_per_op_and_name():
    spans = [
        Span("f", 0.0, 4.0, -1, 0),
        Span("g", 1.0, 2.0, 0, 0),
        Span("g", 2.5, 3.0, 0, 0),
        Span("f", 10.0, 11.0, -1, 1),
        Span("f", 20.0, 30.0, -1, 7),  # an op not asked for is left out
    ]
    per_op = aggregate(spans, [0, 1])
    assert per_op[0]["g"] == {"calls": 2, "incl_s": pytest.approx(1.5), "self_s": pytest.approx(1.5)}
    assert per_op[0]["f"]["self_s"] == pytest.approx(2.5)
    assert per_op[1] == {"f": {"calls": 1, "incl_s": 1.0, "self_s": 1.0}}
    assert set(per_op) == {0, 1}


def test_tracer_records_parents_and_only_while_an_op_is_set():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, lambda a, k, r: {"n": a[0]})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.op = 3
    assert outer(2) == 6
    tracer.op = None
    spans = tracer.finished_spans()
    assert [(s.name, s.parent, s.op) for s in spans] == [("outer", -1, 3), ("inner", 0, 3)]
    assert tracer.counts[3]["n"] == 2


def test_install_wraps_every_binding_and_uninstall_restores():
    import wavecap
    import wavecap.calibrate  # noqa: F401
    import wavecap.cli  # noqa: F401

    cal = sys.modules["wavecap.calibrate"]
    originals = {
        "chain": wavecap.chain.capture,
        "sweep": wavecap.sweep.capture,
        "smooth": cal.smooth_bits,
        "pkg": wavecap.smooth_bits,
    }
    tracer = Tracer()
    tracer.install("wavecap", bench.TRACED)
    try:
        assert wavecap.sweep.capture is wavecap.chain.capture
        assert wavecap.sweep.capture is not originals["sweep"]
        assert cal.smooth_bits is wavecap.smooth_bits is not originals["smooth"]
        assert wavecap.chain.reject_short_pulses is wavecap.waveform.reject_short_pulses
    finally:
        tracer.uninstall()
    assert wavecap.chain.capture is originals["chain"]
    assert wavecap.sweep.capture is originals["sweep"]
    assert cal.smooth_bits is originals["smooth"] and wavecap.smooth_bits is originals["pkg"]
