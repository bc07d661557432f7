"""The long-running service driver (repro.runtime.streaming)."""

from __future__ import annotations

import pytest

from repro.runtime.streaming import ServiceReport, ServiceRun, ServiceSpec
from repro.service.pipeline import PipelineConfig
from repro.sim.engine import MS, US


def _spec(**overrides):
    defaults = dict(seed=11, interval_ns=1 * MS,
                    mean_request_gap_ns=2000 * US,
                    pipeline=PipelineConfig(retention=64,
                                            keyframe_interval=8),
                    chunk_ns=20 * MS)
    defaults.update(overrides)
    return ServiceSpec(**defaults)


class TestServiceRun:
    def test_runs_until_epochs_stored(self):
        run = ServiceRun(_spec())
        report = run.run(epochs=40)
        assert report.epochs_stored >= 40
        assert report.ticks >= report.epochs_stored
        assert report.events > 0
        assert report.sim_time_ns > 0
        assert report.wall_seconds > 0
        assert report.epochs_per_sec > 0
        assert report.events_per_sec > 0
        # The drain loop leaves nothing resolved-but-unstored.
        assert report.stats["backlog"] == 0
        assert report.stats["store_entries"] == min(64, report.epochs_stored)

    def test_second_run_resumes_the_stream(self):
        run = ServiceRun(_spec())
        first = run.run(epochs=20, max_wall_seconds=30)
        # The target is cumulative; the valve only keeps a regression
        # from hanging the suite.
        second = run.run(epochs=60, max_wall_seconds=30)
        assert first.epochs_stored >= 20
        assert second.epochs_stored >= 60
        assert second.stats["coalesced_epochs"] == 0
        assert run.pipeline.store.epochs()[-1] == second.epochs_stored
        # One ticker at the configured cadence in both calls: only the
        # gap across the pause differs.
        observer = run.deployment.observer
        walls = [observer.snapshot(e).requested_wall_ns
                 for e in range(1, second.ticks + 1)]
        gaps = [b - a for a, b in zip(walls, walls[1:])]
        assert sum(gap != run.spec.interval_ns for gap in gaps) == 1

    def test_bounded_store_while_driving(self):
        run = ServiceRun(_spec())
        run.run(epochs=100)
        assert len(run.pipeline.store) == 64  # ring held its bound

    def test_query_engine_answers_over_the_run(self):
        run = ServiceRun(_spec())
        run.run(epochs=20)
        engine = run.query_engine()
        assert engine.epochs()
        assert engine.conservation()["violations"] == {}
        summary = engine.summary()
        assert summary["epochs_stored"] == len(run.pipeline.store)

    def test_heavy_hitter_spec_wires_a_resolver(self):
        run = ServiceRun(_spec(metric="heavy_hitter"))
        run.run(epochs=15)
        answer = run.query_engine().heavy_hitters(top=3)
        assert answer["units"]
        assert answer["flows"], "heavy_hitter serve must drill to flows"

    def test_spec_is_the_one_constructor_form(self):
        assert ServiceRun(_spec(seed=3)).spec.seed == 3
        with pytest.raises(TypeError):
            ServiceRun(seed=3)  # type: ignore[call-arg]

    @pytest.mark.parametrize("field", ["num_leaves", "num_spines",
                                       "hosts_per_leaf", "interval_ns",
                                       "chunk_ns"])
    def test_spec_refuses_a_zero_field(self, field):
        # chunk_ns=0 used to step the simulation to where it already
        # was, forever: 0 epochs stored, sim.now still 0.
        with pytest.raises(ValueError, match=f"ServiceSpec.{field} "):
            ServiceSpec(**{field: 0})

    def test_spec_refuses_a_negative_request_gap(self):
        assert ServiceSpec(mean_request_gap_ns=0).mean_request_gap_ns == 0
        with pytest.raises(ValueError,
                           match="ServiceSpec.mean_request_gap_ns "):
            ServiceSpec(mean_request_gap_ns=-1)

    def test_epochs_validated(self):
        with pytest.raises(ValueError):
            ServiceRun(_spec()).run(epochs=0)

    def test_max_wall_seconds_is_a_valve(self):
        run = ServiceRun(_spec())
        report = run.run(epochs=10 ** 9, max_wall_seconds=0.2)
        assert report.epochs_stored < 10 ** 9  # stopped by the valve

    def test_report_rates_handle_zero_wall(self):
        report = ServiceReport(epochs_stored=1, ticks=1, sim_time_ns=1,
                               wall_seconds=0.0, events=1, stats={})
        assert report.epochs_per_sec == 0.0
        assert report.events_per_sec == 0.0
