"""Declarative trial runtime.

The experiment stack is a batch system: every figure/table decomposes
into independent :class:`TrialSpec` units, a registry maps spec kinds
to pure trial functions, and a :class:`TrialRunner` executes batches
serially or across worker processes with an on-disk result cache.

See DESIGN.md ("Trial runtime") for the architecture and
docs/API.md for usage.
"""

from repro.runtime.cache import DEFAULT_CACHE_DIR, TrialCache, code_version
from repro.runtime.registry import resolve, trial
from repro.runtime.result import TrialResult, make_result
from repro.runtime.runner import BatchStats, TrialRunner, execute_spec
from repro.runtime.spec import (TrialSpec, canonical, canonical_json,
                                derive_seed)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "BatchStats",
    "TrialCache",
    "TrialResult",
    "TrialRunner",
    "TrialSpec",
    "canonical",
    "canonical_json",
    "code_version",
    "derive_seed",
    "execute_spec",
    "make_result",
    "resolve",
    "trial",
]
