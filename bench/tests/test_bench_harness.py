"""The harness end to end on a short run, traced and untraced."""

import harness
import scenarios
import stats
import tracing

CONTRACT = scenarios.contract()

RUN_S = {"name": "run_s", "better": "lower", "bound": 0.25}
SECONDS = 1.0


def test_pace_scales_by_the_speed_around_the_interval(monkeypatch):
    samples = iter([25.0, 12.5, 50.0])
    monkeypatch.setattr(harness.Pace, "_sample", lambda self: next(samples))
    pace = harness.Pace()
    # Half speed after, full speed before: the interval ran at 3/4 speed.
    assert pace.lap() == (25.0 + 12.5) / 2 / harness.REFERENCE_MOPS
    assert pace.lap() == (12.5 + 50.0) / 2 / harness.REFERENCE_MOPS


def test_an_untraced_rep_after_a_traced_one_is_untraced():
    before = harness.measure("snapshot_storm", 3, SECONDS)
    recorder = tracing.SpanRecorder()
    traced = harness.measure("snapshot_storm", 3, SECONDS, recorder)
    closed = recorder.closed
    after = harness.measure("snapshot_storm", 3, SECONDS)

    for result in (before, traced, after):
        assert result.correct, result.problems
    # Same input, same outputs, traced or not.
    assert before.stats == traced.stats == after.stats
    assert before.digest == traced.digest == after.digest
    # The wrappers are gone: the last rep closed no span and reads like
    # the first one.
    assert recorder.closed == closed
    assert stats.agree(RUN_S, before.metrics["run_s"], after.metrics["run_s"])

    # The ledger's self times add up to the traced window.
    layers = traced.layers
    self_s = sum(layers[harness.self_time_metric(layer)]
                 for layer in recorder.by_layer())
    assert abs(self_s - layers["bench.traced_window_s"]) < 1e-6
    assert layers["bench.spans_missing"] == 0
    assert layers["core.observer.snapshots_complete"] == traced.stats[
        "snapshots_complete"]

    # A rep reports exactly the metrics the contract lists
    # (``run.py`` adds the one ratio that needs an untraced rep).
    assert set(before.metrics) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert set(layers) | {"bench.trace_overhead_ratio"} == {
        m["name"] for m in CONTRACT["per_layer"]}


def test_the_contract_lists_the_workloads_as_built():
    assert CONTRACT["workloads"] == [
        {"name": spec.name, "why": spec.why}
        for spec in scenarios.WORKLOADS.values()]
    assert CONTRACT["run_seconds"] == scenarios.NOMINAL_SECONDS


def test_the_input_scales_with_seconds():
    spec = scenarios.WORKLOADS["fabric_forward"]
    assert scenarios.slices_for(spec, 10) == spec.slices
    assert scenarios.slices_for(spec, 5) == spec.slices // 2
    assert scenarios.slices_for(spec, 0.01) == spec.reader_after + 4
