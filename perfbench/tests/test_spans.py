"""Percentile, tail-sample and self-time arithmetic."""

import pytest

import spans


def test_percentile_interpolates_between_ranks():
    samples = [float(v) for v in range(1, 11)]
    assert spans.percentile(samples, 0.5) == pytest.approx(5.5)
    assert spans.percentile(samples, 0.9) == pytest.approx(9.1)
    assert spans.percentile(samples, 0.0) == 1.0
    assert spans.percentile(samples, 1.0) == 10.0
    assert spans.percentile([3.0], 0.9) == 3.0


def test_percentile_ignores_input_order():
    assert spans.percentile([5.0, 1.0, 3.0], 0.5) == 3.0


def test_percentile_rejects_empty_and_bad_quantile():
    with pytest.raises(ValueError):
        spans.percentile([], 0.5)
    with pytest.raises(ValueError):
        spans.percentile([1.0], 1.5)


def test_p90_needs_ten_samples_beyond_it():
    needed = spans.samples_needed(0.9)
    assert needed == 92
    enough = [float(v) for v in range(needed)]
    value, beyond = spans.tail_percentile(enough, 0.9)
    assert value == pytest.approx(81.9)
    assert beyond == 10
    with pytest.raises(ValueError, match="at least 10"):
        spans.tail_percentile(enough[:-1], 0.9)


def test_ties_at_the_percentile_do_not_count_as_beyond():
    samples = [1.0] * 95 + [2.0] * 106
    with pytest.raises(ValueError):
        spans.tail_percentile(samples, 0.9)


def test_split_windows_assigns_samples_by_end_time():
    boundaries = [(0.0, 1.0), (2.0, 1.5), (4.0, 2.5)]
    samples = [(0.5, 0.1), (2.0, 0.2), (2.5, 0.3), (3.9, 0.4), (4.5, 0.9)]
    first, second = spans.split_windows(samples, boundaries)
    assert (first.seconds, first.cpu_seconds) == (2.0, 0.5)
    assert first.latencies == [0.1, 0.2]
    assert second.latencies == [0.3, 0.4]
    assert second.rate == pytest.approx(1.0)


def test_trimmed_drops_the_fastest_and_slowest_window():
    windows = [
        spans.Window(1.0, 0.0, [0.1] * count) for count in (5, 9, 1, 6)
    ]
    kept = spans.trimmed(windows)
    assert [len(w.latencies) for w in kept] == [5, 6]
    assert spans.trimmed(windows[:2]) == windows[:2]


def test_covered_length_merges_overlaps_and_clips():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert spans.covered_length(intervals, 0.0, 10.0) == pytest.approx(5.0)
    assert spans.covered_length([], 0.0, 10.0) == 0.0


def _span(span_id, parent, request, name, start, end, attr=None):
    return (span_id, parent, request, name, start, end, attr)


def _request_tree(request, offset, route="/v1/solve"):
    return [
        _span(10 * request, None, request, "protocol.read",
              offset, offset + 1.0, 26),
        _span(10 * request + 1, None, request, "app.handle",
              offset + 1.0, offset + 11.0, route),
        _span(10 * request + 2, 10 * request + 1, request, "queue.solve",
              offset + 2.0, offset + 6.0),
        _span(10 * request + 3, 10 * request + 2, request, "engine.solve",
              offset + 3.0, offset + 4.0),
        _span(10 * request + 4, 10 * request + 1, request, "measures.compute",
              offset + 6.0, offset + 10.0),
        _span(10 * request + 5, None, request, "protocol.encode",
              offset + 11.0, offset + 11.5, 476),
    ]


def test_self_time_is_duration_minus_children():
    tree = _request_tree(1, 0.0)
    own = spans.self_times(tree)
    assert own[11] == pytest.approx(2.0)   # handle: 10 - 4 - 4
    assert own[12] == pytest.approx(3.0)   # queue: 4 - 1
    assert own[13] == pytest.approx(1.0)
    assert own[14] == pytest.approx(4.0)


def test_self_times_under_handle_add_up_to_handle():
    requests = {1: _request_tree(1, 0.0), 2: _request_tree(2, 100.0)}
    handle_total, self_total = spans.handle_closure(requests)
    assert handle_total == pytest.approx(20.0)
    assert self_total == pytest.approx(handle_total)


def test_group_requests_keeps_route_and_window():
    recorded = (
        _request_tree(1, 0.0)
        + _request_tree(2, 100.0)
        + _request_tree(3, 200.0, route="/metrics")
    )
    kept = spans.group_requests(recorded, "/v1/solve", (50.0, 300.0))
    assert list(kept) == [2]
    summary = spans.layer_summary(kept)
    assert summary["measures.compute"]["calls"] == 1
    assert summary["app.handle"]["self"] == [pytest.approx(2.0)]
    assert summary["protocol.read"]["attrs"] == [26]


def test_every_traced_span_is_reported():
    import launcher
    import run

    traced = {name for _m, _a, name, _x in launcher.TARGETS}
    assert traced | {"protocol.read"} == set(run.CALL_TIMES.values())
    shared = {name for names in run.SHARES.values() for name in names}
    assert shared <= traced
