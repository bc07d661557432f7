"""Declarative trial specifications.

A :class:`TrialSpec` is the unit of work of the experiment runtime: a
picklable, JSON-canonical description of one simulation trial (topology
+ workload + deployment + campaign parameters + seed).  Experiments
decompose their series/sweep points into specs; the
:class:`~repro.runtime.runner.TrialRunner` executes batches of them
serially or across worker processes.

Two properties matter:

* **Purity** — a spec must contain *everything* the trial function
  needs.  Trial functions receive only the spec, so serial and parallel
  execution (and cached replay) are indistinguishable.
* **Stable identity** — :meth:`TrialSpec.fingerprint` hashes the
  canonical JSON encoding of ``(kind, params, seed)``.  The fingerprint
  keys the on-disk result cache and is independent of dict insertion
  order, process, and platform.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any

from repro.sim.engine import check_minimums


def canonical(obj: Any, path: str = "value") -> Any:
    """Normalise ``obj`` into plain JSON types (dict/list/str/int/float/
    bool/None) with deterministic structure.

    Tuples become lists; numpy scalars collapse to int/float; dict keys
    must be strings.  Raises ``TypeError`` for anything that would not
    survive a JSON round trip (sets, arbitrary objects), and
    ``ValueError`` naming its key path under ``path`` for NaN or ±inf,
    because a spec that cannot round-trip cannot be cached or shipped to
    a worker.
    """
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        if not math.isfinite(obj):
            raise ValueError(f"{path} must be a finite number, got {obj!r}")
        return float(obj)
    if isinstance(obj, Mapping):
        out: dict[str, Any] = {}
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"spec dict keys must be str, got {key!r}")
            out[key] = canonical(obj[key], f"{path}[{key!r}]")
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical(item, f"{path}[{index}]")
                for index, item in enumerate(obj)]
    raise TypeError(f"not JSON-serializable for a trial spec: {obj!r} "
                    f"({type(obj).__name__})")


def canonical_json(obj: Any) -> str:
    """Compact JSON with sorted keys — the byte-stable encoding used for
    fingerprints, seeds, and result files."""
    return json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def derive_seed(base: int, *parts: Any) -> int:
    """Derive a per-trial seed deterministically from a base seed and
    any JSON-able discriminators (series name, sweep point, index).

    Stable across processes and Python versions (sha256, not ``hash``),
    so a batch produces identical randomness whether it runs serially,
    fanned out, or resumed from cache.
    """
    digest = hashlib.sha256(
        canonical_json([base, list(parts)]).encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True, eq=False)
class TrialSpec:
    """One unit of experiment work.

    ``kind`` selects the registered trial function
    (:mod:`repro.runtime.registry`); ``params`` carries every
    trial-relevant knob as plain JSON types; ``seed`` is the base RNG
    seed; ``label`` is a human-readable tag for progress output and is
    deliberately excluded from the fingerprint.
    """

    kind: str
    params: Mapping[str, Any]
    seed: int = 0
    label: str = ""
    #: Space-parallel simulation shards (repro.sim.shard).  1 — the
    #: default — is the plain single-process path.
    shards: int = 1
    #: Aggregation-tree fan-out (repro.core.aggregation).  ``None`` —
    #: the default — is the flat unicast notification path; ``0`` is the
    #: flat-*modeled* observer intake; ``>= 1`` enables the tree.
    agg_degree: int | None = None

    def __post_init__(self) -> None:
        # Normalise eagerly so a malformed spec fails at construction,
        # near the code that built it, not inside a worker process.
        object.__setattr__(self, "params",
                           canonical(self.params, "TrialSpec.params"))
        check_minimums(self, {"seed": 0, "shards": 1, "agg_degree": 0},
                       optional=("agg_degree",))

    def fingerprint(self) -> str:
        """Stable content hash of ``(kind, params, seed)`` — plus
        ``shards`` when sharded and ``agg_degree`` when aggregation is
        configured.  ``shards=1`` / ``agg_degree=None`` are deliberately
        absent from the payload so every pre-existing fingerprint (and
        cached result) stays valid."""
        payload_dict: dict[str, Any] = {
            "kind": self.kind, "params": self.params, "seed": self.seed}
        if self.shards != 1:
            payload_dict["shards"] = self.shards
        if self.agg_degree is not None:
            payload_dict["agg_degree"] = self.agg_degree
        payload = canonical_json(payload_dict)
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        return self.label or f"{self.kind}[{self.fingerprint()[:8]}]"
