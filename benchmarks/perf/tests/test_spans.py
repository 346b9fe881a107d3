import json

from spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    recorder = SpanRecorder("w", clock=clock)
    with recorder.span("fold") as fold:
        clock.now = 1.0
        with recorder.span("decide") as decide:
            clock.now = 4.0
            with recorder.span("verify"):
                clock.now = 5.0
        clock.now = 10.0
    assert fold.duration == 10.0
    assert decide.parent == fold.id
    assert recorder.self_time(fold) == 6.0  # only the direct child (1..5) is subtracted
    assert recorder.self_time(decide) == 3.0


def test_a_replayed_layer_names_its_parent_explicitly():
    clock = FakeClock()
    recorder = SpanRecorder("w", clock=clock)
    with recorder.span("fold") as fold:
        clock.now = 8.0
    with recorder.span("split", parent=fold):  # replayed after the fold ended
        clock.now = 10.0
    with recorder.span("unrelated"):
        clock.now = 11.0
    assert recorder.self_time(fold) == 6.0
    assert [span.parent for span in recorder.spans] == [None, fold.id, None]


def test_spans_are_written_with_their_workload(tmp_path):
    recorder = SpanRecorder("rbn2_bin", clock=FakeClock())
    with recorder.span("a"):
        pass
    recorder.write(tmp_path / "trace.json")
    (span,) = json.loads((tmp_path / "trace.json").read_text())
    assert span == {"id": 0, "name": "a", "parent": None, "workload": "rbn2_bin", "start": 0.0, "end": 0.0}
