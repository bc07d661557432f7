"""TrialRunner: serial/parallel determinism and cache interaction.

The runner tests use the real ``fig11`` trial kind (cheap Monte-Carlo)
so worker processes resolve it through the standard registry exactly as
the CLI does; the serial-vs-parallel comparison covers every registered
experiment.
"""

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from repro.experiments import fig11, registry
from repro.runtime import (TrialCache, TrialRunner, TrialSpec, execute_spec,
                           make_result, resolve, trial)

#: Overrides on top of ``config(quick=True)`` that keep the comparison
#: below at a second or so per experiment; the rest are cheap as they are.
_TINY = {
    "motivation": dict(rounds=10),
    "fig9": dict(rounds=4, rate_pps=20_000.0),
    "fig12": dict(rounds=3),
    "fig13": dict(rounds=4),
    "ablation-ideal": dict(snapshots=6),
    "ablation-initiation": dict(snapshots=4),
    "sweep-rate": dict(rounds=5, rates_pps=[10_000.0, 30_000.0]),
    "updates": dict(clock_error_ns=[0, 15_000], gap_ns=48_000),
}


def _fig11_specs(counts: list[int]) -> list[TrialSpec]:
    return fig11.specs(fig11.Fig11Config(router_counts=counts, trials=5))


@pytest.fixture(scope="module")
def fresh_interpreters():
    """Two worker processes that inherit nothing the parent imported or
    registered (``spawn``), shared by every case of the comparison."""
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        yield pool


class TestDeterminism:
    @pytest.mark.parametrize("name", list(registry()))
    def test_parallel_results_byte_identical_to_serial(
            self, name, fresh_interpreters):
        """Equivalence-matrix cell 3 (``--jobs 1`` vs ``--jobs N``): the
        first two trials of every registered experiment, in order in
        this process and again in fresh interpreters, byte for byte.  A
        trial that reads or leaves module state behind, or a kind a
        fresh worker cannot resolve, fails here."""
        exp = registry()[name]
        config = dataclasses.replace(exp.config(quick=True),
                                     **_TINY.get(name, {}))
        specs = exp.specs(config)[:2]
        # Submitted first, so the workers run beside the in-process pass.
        parallel = fresh_interpreters.map(execute_spec, specs)
        serial = [execute_spec(spec) for spec in specs]
        assert [r.to_json() for r in serial] == \
            [r.to_json() for r in parallel]

    def test_results_come_back_in_spec_order(self):
        specs = _fig11_specs([20, 5, 10])
        results = TrialRunner(jobs=2).run_batch(specs)
        assert [r.settings["router_counts"] for r in results] == \
            [[20], [5], [10]]

    def test_cache_fingerprints_stable_across_jobs(self, tmp_path):
        """The on-disk cache produced at ``--jobs 4`` is interchangeable
        with the one produced at ``--jobs 1``: same fingerprints (file
        identities) and byte-identical stored results."""
        specs = _fig11_specs([5, 10, 20, 40])
        serial_cache = TrialCache(tmp_path / "serial", version="v1")
        parallel_cache = TrialCache(tmp_path / "parallel", version="v1")
        TrialRunner(jobs=1, cache=serial_cache).run_batch(specs)
        TrialRunner(jobs=4, cache=parallel_cache).run_batch(specs)

        for spec in specs:
            fp = spec.fingerprint()
            serial_hit = serial_cache.get(fp)
            parallel_hit = parallel_cache.get(fp)
            assert serial_hit is not None and parallel_hit is not None
            assert serial_hit.to_json() == parallel_hit.to_json()

        # And a serial run replays cleanly from the parallel cache.
        replay = TrialRunner(jobs=1, cache=parallel_cache)
        replay.run_batch(specs)
        assert replay.last_stats.cached == len(specs)
        assert replay.last_stats.executed == 0

    def test_trial_seconds_recorded_per_executed_trial(self):
        specs = _fig11_specs([5, 10])
        runner = TrialRunner(jobs=1)
        runner.run_batch(specs)
        stats = runner.last_stats
        assert set(stats.trial_seconds) == {s.describe() for s in specs}
        assert all(seconds >= 0 for seconds in stats.trial_seconds.values())


class TestCacheInteraction:
    def test_cache_hit_skips_execution(self, tmp_path):
        calls = []

        @trial("_runner_test_counting")
        def counting_trial(spec):
            calls.append(spec.point["n"])
            return make_result(spec, {"n": spec.point["n"]})

        cache = TrialCache(tmp_path / "c", version="v1")
        specs = [TrialSpec(kind="_runner_test_counting", point={"n": n})
                 for n in (1, 2)]
        runner = TrialRunner(cache=cache)
        runner.run_batch(specs)
        assert runner.last_stats.executed == 2
        assert calls == [1, 2]

        rerun = TrialRunner(cache=TrialCache(tmp_path / "c", version="v1"))
        results = rerun.run_batch(specs)
        assert calls == [1, 2]  # nothing re-executed
        assert rerun.last_stats.cached == 2
        assert rerun.last_stats.executed == 0
        assert [r.data["n"] for r in results] == [1, 2]

    def test_spec_change_invalidates(self, tmp_path):
        calls = []

        @trial("_runner_test_invalidate")
        def invalidating_trial(spec):
            calls.append(spec.point["n"])
            return make_result(spec, {"n": spec.point["n"]})

        cache_dir = tmp_path / "c"
        TrialRunner(cache=TrialCache(cache_dir, version="v1")).run_batch(
            [TrialSpec(kind="_runner_test_invalidate", point={"n": 1})])
        TrialRunner(cache=TrialCache(cache_dir, version="v1")).run_batch(
            [TrialSpec(kind="_runner_test_invalidate", point={"n": 2})])
        assert calls == [1, 2]  # the changed spec executed, fresh

    def test_code_version_change_invalidates(self, tmp_path):
        calls = []

        @trial("_runner_test_version")
        def versioned_trial(spec):
            calls.append(1)
            return make_result(spec, {})

        spec = TrialSpec(kind="_runner_test_version", point={})
        cache_dir = tmp_path / "c"
        TrialRunner(cache=TrialCache(cache_dir, version="v1")).run_batch([spec])
        TrialRunner(cache=TrialCache(cache_dir, version="v2")).run_batch([spec])
        assert calls == [1, 1]


class TestRegistry:
    def test_unknown_kind_raises_with_known_kinds(self):
        with pytest.raises(KeyError, match="no trial function"):
            resolve("_no_such_kind")

    def test_standard_kinds_resolve(self):
        for exp in registry().values():
            for spec in exp.specs(exp.config(quick=True)):
                assert resolve(spec.kind) is not None

    def test_duplicate_registration_rejected(self):
        @trial("_runner_test_dup")
        def first(spec):
            return make_result(spec, {})

        with pytest.raises(ValueError, match="already registered"):
            @trial("_runner_test_dup")
            def second(spec):
                return make_result(spec, {})

    def test_mismatched_result_fingerprint_rejected(self):
        @trial("_runner_test_mismatch")
        def mismatched(spec):
            other = TrialSpec(kind="_runner_test_mismatch",
                              point={"different": True})
            return make_result(other, {})

        with pytest.raises(RuntimeError, match="different spec"):
            execute_spec(TrialSpec(kind="_runner_test_mismatch", point={}))


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            TrialRunner(jobs=0)
