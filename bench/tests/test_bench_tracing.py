"""Span self-time arithmetic and wrapper installation."""

import importlib

import pytest

import tracing


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_nested_self_times_sum_to_the_root():
    clock = FakeClock()
    recorder = tracing.SpanRecorder(clock)
    recorder.enter("root")
    clock.tick(1.0)
    recorder.enter("a:child")
    clock.tick(2.0)
    recorder.enter("b:grandchild")
    clock.tick(4.0)
    recorder.exit()
    clock.tick(0.5)
    recorder.exit()
    recorder.enter("a:child")
    clock.tick(0.25)
    recorder.exit()
    clock.tick(8.0)
    recorder.exit()

    spans = recorder.by_name()
    assert spans["root"] == {"count": 1, "total_s": 15.75, "self_s": 9.0}
    assert spans["a:child"] == {"count": 2, "total_s": 6.75, "self_s": 2.75}
    assert spans["b:grandchild"]["self_s"] == 4.0
    assert sum(row["self_s"] for row in spans.values()) == 15.75
    # Per edge: the grandchild was only ever called from the child.
    assert recorder.edge("a:child", "b:grandchild") == (1, 4.0, 4.0)
    assert recorder.edge("root", "b:grandchild") == (0, 0.0, 0.0)
    layers = recorder.by_layer()
    assert layers["a"]["self_s"] == 2.75 and layers["b"]["self_s"] == 4.0


def test_reentrant_spans_sum_to_the_root():
    clock = FakeClock()
    recorder = tracing.SpanRecorder(clock)

    def run(depth: int) -> None:
        clock.tick(1.0)
        if depth:
            traced(depth - 1)
        clock.tick(0.5)

    traced = recorder.wrap("sim.engine:run", run)
    recorder.enter("bench:window")
    traced(3)
    recorder.exit()

    spans = recorder.by_name()
    assert spans["sim.engine:run"]["count"] == 4
    # Inclusive time counts the nested calls again; self time does not.
    assert spans["sim.engine:run"]["total_s"] == 6.0 + 4.5 + 3.0 + 1.5
    assert spans["sim.engine:run"]["self_s"] == 6.0
    assert spans["bench:window"]["self_s"] == 0.0
    assert (sum(row["self_s"] for row in spans.values())
            == spans["bench:window"]["total_s"] == 6.0)


def test_a_raising_call_still_closes_its_span():
    recorder = tracing.SpanRecorder(FakeClock())

    def boom() -> None:
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap("x:boom", boom)()
    assert recorder.by_name()["x:boom"]["count"] == 1
    assert recorder._stack == []


def test_generator_spans_cover_each_resumption():
    clock = FakeClock()
    recorder = tracing.SpanRecorder(clock)

    def scan(count: int):
        for i in range(count):
            clock.tick(1.0)          # decoding: inside the span
            yield i

    traced = recorder.wrap("service.store:EpochStore.scan", scan)
    seen = []
    for item in traced(3):
        clock.tick(10.0)             # the consumer: outside the span
        seen.append(item)
    assert seen == [0, 1, 2]
    row = recorder.by_name()["service.store:EpochStore.scan"]
    assert row["total_s"] == 3.0
    # An abandoned scan (``get`` returns after its first hit) closes cleanly.
    assert next(traced(5)) == 0
    assert recorder._stack == []


def test_batch_spans_count_their_items():
    recorder = tracing.SpanRecorder(FakeClock())
    route = recorder.wrap("sim.shard:_route", lambda items, *rest: len(items))
    assert route([1, 2, 3], {}, {}) == 3
    assert route([], {}, {}) == 0
    assert recorder.items["sim.shard:_route"] == 3


def test_raw_spans_are_capped_but_aggregates_are_not():
    recorder = tracing.SpanRecorder(FakeClock(), raw_cap=2)
    for _ in range(5):
        recorder.enter("x:y")
        recorder.exit()
    assert len(recorder.raw) == 2 and recorder.closed == 5
    assert recorder.by_name()["x:y"]["count"] == 5


def _targets():
    for _name, module_name, owner_name, attr in tracing.SPAN_POINTS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        yield owner, attr


def test_install_patches_every_point_and_remove_restores_them():
    before = [vars(owner)[attr] for owner, attr in _targets()]
    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder)
    try:
        assert installation.missing == []
        for (owner, attr), original in zip(_targets(), before):
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        installation.remove()
    assert [vars(owner)[attr] for owner, attr in _targets()] == before
    installation.remove()            # idempotent
    assert [vars(owner)[attr] for owner, attr in _targets()] == before


def test_a_vanished_entry_point_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_POINTS", [
        ("sim.engine:Simulator.run", "repro.sim.engine", "Simulator", "run"),
        ("sim.engine:gone", "repro.sim.engine", "Simulator", "no_such"),
        ("nowhere:gone", "repro.no_such_module", None, "f"),
    ])
    installation = tracing.install(tracing.SpanRecorder())
    try:
        assert len(installation.missing) == 2
    finally:
        installation.remove()
