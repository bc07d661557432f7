"""Batch trial execution: serial, process-parallel, and cached.

:class:`TrialRunner` takes a batch of :class:`TrialSpec` and returns
one :class:`TrialResult` per spec, in order.  Because trial functions
are pure functions of their spec, fan-out across a
``ProcessPoolExecutor`` is observationally identical to serial
execution — the determinism tests assert byte-identical result JSON for
``jobs=1`` vs ``jobs=4``.

With a :class:`~repro.runtime.cache.TrialCache` attached, previously
computed trials are served from disk and only misses execute, so
re-running a full experiment suite after a parameter tweak recomputes
exactly the changed trials.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Optional

from repro.runtime import registry
from repro.runtime.cache import TrialCache
from repro.runtime.result import TrialResult
from repro.runtime.spec import TrialSpec


def execute_spec(spec: TrialSpec) -> TrialResult:
    """Run one spec to completion in the current process.

    Module-level so worker processes can unpickle a reference to it;
    the spec itself is the only payload that crosses the pipe.
    """
    result = registry.resolve(spec.kind)(spec)
    if result.fingerprint != spec.fingerprint():
        raise RuntimeError(
            f"trial function for kind {spec.kind!r} returned a result for "
            f"a different spec ({result.fingerprint[:12]} != "
            f"{spec.fingerprint()[:12]}); build results with make_result(spec, ...)")
    return result


@dataclass
class BatchStats:
    """Execution accounting for one ``run_batch`` call."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0
    #: Wall-clock seconds per executed trial, keyed by ``spec.describe()``
    #: (cached hits are absent — they cost no simulation time).  Timing
    #: lives here, never inside :class:`TrialResult`, so result JSON
    #: stays byte-identical across machines and runs.
    trial_seconds: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        return (f"{self.total} trials: {self.executed} executed, "
                f"{self.cached} from cache in {self.elapsed_s:.1f}s")


def _execute_timed(spec: TrialSpec) -> "tuple[TrialResult, float]":
    """Worker-side wrapper that reports wall-clock alongside the result."""
    started = time.perf_counter()
    result = execute_spec(spec)
    return result, time.perf_counter() - started


class TrialRunner:
    """Executes spec batches with optional fan-out and caching.

    ``jobs`` is the worker process count; 1 means run in-process (no
    pool, easiest to debug).  ``cache=None`` disables caching entirely.
    """

    def __init__(self, jobs: int = 1, cache: Optional[TrialCache] = None,
                 progress: Optional[Callable[[str], None]] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.last_stats = BatchStats()

    def _note(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def run_batch(self, specs: Sequence[TrialSpec]) -> list[TrialResult]:
        """Execute ``specs``, returning results in spec order."""
        started = time.monotonic()
        results: list[Optional[TrialResult]] = [None] * len(specs)
        misses: list[int] = []
        for index, spec in enumerate(specs):
            hit = (self.cache.get(spec.fingerprint())
                   if self.cache is not None else None)
            if hit is not None:
                results[index] = hit
            else:
                misses.append(index)
        stats = BatchStats(total=len(specs), cached=len(specs) - len(misses))

        if misses:
            miss_specs = [specs[i] for i in misses]
            if self.jobs == 1 or len(misses) == 1:
                executed = []
                for spec in miss_specs:
                    self._note(f"running {spec.describe()}")
                    result, seconds = _execute_timed(spec)
                    stats.trial_seconds[spec.describe()] = seconds
                    executed.append(result)
            else:
                self._note(f"running {len(miss_specs)} trials across "
                           f"{min(self.jobs, len(miss_specs))} workers")
                with ProcessPoolExecutor(
                        max_workers=min(self.jobs, len(misses))) as pool:
                    executed = []
                    for spec, (result, seconds) in zip(
                            miss_specs, pool.map(_execute_timed, miss_specs)):
                        stats.trial_seconds[spec.describe()] = seconds
                        executed.append(result)
            for index, result in zip(misses, executed):
                results[index] = result
                if self.cache is not None:
                    self.cache.put(result)
            stats.executed = len(misses)

        stats.elapsed_s = time.monotonic() - started
        self.last_stats = stats
        return [r for r in results if r is not None]

    def run(self, spec: TrialSpec) -> TrialResult:
        return self.run_batch([spec])[0]
