import pytest

from loadgen import OpenLoopSchedule, http_post


def test_due_times_are_fixed_by_rate_not_by_replies():
    schedule = OpenLoopSchedule(rate=100.0, seconds=1.0, t0=10.0)
    assert schedule.total == 100
    assert [schedule.due(k) for k in (0, 1, 50)] == [10.0, 10.01, 10.5]
    assert [schedule.claim() for _ in range(3)] == [0, 1, 2]


def test_latency_runs_from_the_due_time_and_lateness_is_booked_apart():
    schedule = OpenLoopSchedule(rate=100.0, seconds=1.0, t0=10.0)
    k = schedule.claim()
    # A stalled connection sends request 0 3 ms late; the reply takes 7 ms more.
    schedule.record(k, sent_at=10.003, done_at=10.010, ok=True)
    assert schedule.latencies_s == [pytest.approx(0.010)]
    assert schedule.lateness_s == [pytest.approx(0.003)]
    # Sent early (the sleep undershot): no lateness, latency still from due.
    k = schedule.claim()
    schedule.record(k, sent_at=10.009, done_at=10.012, ok=True)
    assert schedule.lateness_s[-1] == 0.0
    assert schedule.latencies_s[-1] == pytest.approx(0.002)


def test_failures_and_end_of_window_backlog():
    schedule = OpenLoopSchedule(rate=10.0, seconds=1.0, t0=0.0)
    for _ in range(8):
        k = schedule.claim()
        schedule.record(k, sent_at=schedule.due(k), done_at=schedule.due(k) + 0.01, ok=True)
    # Request 8 was due at 0.8 s but only sent after the window closed.
    k = schedule.claim()
    schedule.record(k, sent_at=1.2, done_at=1.25, ok=False)
    assert schedule.backlog_end == 1
    assert schedule.failed == 1
    assert len(schedule.latencies_s) == 8  # a failed request has no latency to report
    # The connections died with request 9 unclaimed: it was never answered.
    schedule.abandon()
    assert schedule.failed == 2
    assert schedule.claim() is None


def test_schedule_rejects_empty_windows():
    with pytest.raises(ValueError):
        OpenLoopSchedule(rate=0.0, seconds=1.0, t0=0.0)


def test_http_post_frames_the_body():
    payload = http_post("/classify", b'{"url":"http://a/"}')
    head, body = payload.split(b"\r\n\r\n")
    assert head.startswith(b"POST /classify HTTP/1.1\r\n")
    assert b"Content-Length: 19" in head
    assert body == b'{"url":"http://a/"}'
