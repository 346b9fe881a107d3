from compare import compare_runs, verdict


def test_ok_and_worse_follow_the_metrics_direction():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [95.0, 96.0, 94.0, 95.5], better="higher", bound=0.10)[0] == "ok"
    outcome, worsening = verdict(steady, [80.0, 81.0, 79.0, 80.5], better="higher", bound=0.10)
    assert outcome == "worse" and abs(worsening - 0.2) < 0.01
    # The same numbers for a lower-is-better metric are an improvement.
    assert verdict(steady, [80.0, 81.0, 79.0, 80.5], better="lower", bound=0.10)[0] == "ok"
    assert verdict(steady, [120.0, 121.0, 119.0, 120.5], better="lower", bound=0.10)[0] == "worse"


def test_wide_overlapping_runs_are_unresolved_not_unchanged():
    noisy_a = [100.0, 140.0, 70.0, 120.0, 90.0]
    noisy_b = [95.0, 135.0, 65.0, 115.0, 85.0]
    assert verdict(noisy_a, noisy_b, better="higher", bound=0.10)[0] == "unresolved"
    # Wide spread, but every run of B is worse than every run of A: resolved.
    assert verdict(noisy_a, [30.0, 45.0, 25.0, 40.0, 35.0], better="higher", bound=0.10)[0] == "worse"
    # ... or better than every run of A.
    assert verdict(noisy_a, [300.0, 450.0, 250.0, 400.0, 350.0], better="higher", bound=0.10)[0] == "ok"


def test_rows_pair_runs_by_metric_and_workload():
    contract = {"end_to_end": [{"name": "ready_s", "unit": "s", "better": "lower", "bound": 0.2}]}

    def run(workload, value, correct=True, trace=0):
        return {"workload": workload, "correct": correct, "trace": trace,
                "metrics": {"ready_s": {"value": value, "unit": "s"}} if correct else {}}

    a = [run("w1", 1.0), run("w1", 1.1), run("w2", 5.0), run("w2", 9.9, correct=False)]
    b = [run("w1", 1.5), run("w1", 1.6), run("w2", 5.1)]
    rows = compare_runs(contract, a, b)
    assert [(row["workload"], row["verdict"], row["runs"]) for row in rows] == [
        ("w1", "worse", (2, 2)),
        ("w2", "ok", (1, 1)),  # the failed run carries no metric and is left out
    ]
