"""Registry mapping spec kinds to trial functions.

A *trial function* is a pure function ``fn(spec: TrialSpec) ->
TrialResult``: it builds its own network/workload/deployment from the
spec's config and point alone and returns a JSON-able result row.
Experiment modules register theirs at import time with :func:`trial`::

    @trial("fig9")
    def run_trial(spec: TrialSpec) -> TrialResult:
        config = spec.config(Fig9Config)
        ...

Worker processes resolve kinds through :func:`resolve`, which on a
miss imports every registered experiment
(:func:`repro.experiments.registry`, the one list of them), so a
freshly spawned interpreter can execute any spec that the parent
enqueued.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.runtime.result import TrialResult
from repro.runtime.spec import TrialSpec

TrialFn = Callable[[TrialSpec], TrialResult]

_REGISTRY: dict[str, TrialFn] = {}


def trial(kind: str) -> Callable[[TrialFn], TrialFn]:
    """Register ``fn`` as the executor for specs of ``kind``."""
    def decorate(fn: TrialFn) -> TrialFn:
        existing = _REGISTRY.get(kind)
        if existing is not None and existing is not fn:
            raise ValueError(f"trial kind {kind!r} already registered "
                             f"by {existing.__module__}.{existing.__name__}")
        _REGISTRY[kind] = fn
        return fn
    return decorate


def resolve(kind: str) -> TrialFn:
    """Look up the trial function for ``kind``, importing the registered
    experiments on a miss (fresh worker processes start empty)."""
    fn = _REGISTRY.get(kind)
    if fn is None:
        # Imported here: repro.experiments imports repro.runtime.
        from repro.experiments import registry

        registry()
        fn = _REGISTRY.get(kind)
    if fn is None:
        raise KeyError(f"no trial function registered for kind {kind!r}; "
                       f"known kinds: {sorted(_REGISTRY)}")
    return fn
