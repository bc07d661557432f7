"""Declarative trial specifications.

A :class:`TrialSpec` is the unit of work of the experiment runtime: a
picklable, JSON-canonical description of one simulation trial (the
experiment config, sweeps narrowed to the trial, + trial-only keys).
Experiments decompose their series/sweep points into specs; the
:class:`~repro.runtime.runner.TrialRunner` executes batches of them
serially or across worker processes.

Two properties matter:

* **Purity** — a spec must contain *everything* the trial function
  needs.  Trial functions receive only the spec, so serial and parallel
  execution (and cached replay) are indistinguishable.
* **Stable identity** — :meth:`TrialSpec.fingerprint` hashes the
  canonical JSON encoding of ``(kind, config, point)``.  The fingerprint
  keys the on-disk result cache and is independent of dict insertion
  order, process, and platform.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import typing
from collections.abc import Mapping
from typing import Any, Optional


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


@dataclasses.dataclass(frozen=True, eq=False)
class TrialSpec:
    """One unit of experiment work.

    ``kind`` selects the registered trial function
    (:mod:`repro.runtime.registry`); ``settings`` is the experiment
    config as plain JSON types (build it with :meth:`of`); ``point``
    holds the trial-only keys that are not config fields; ``label`` is a
    human-readable tag for progress output and is deliberately excluded
    from the fingerprint.
    """

    kind: str
    settings: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    point: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        # Normalise eagerly so a malformed spec fails at construction,
        # near the code that built it, not inside a worker process.
        for name in ("settings", "point"):
            object.__setattr__(self, name, canonical(
                getattr(self, name), f"TrialSpec.{name}"))

    @classmethod
    def of(cls, kind: str, config: Any, label: str,
           point: Optional[Mapping[str, Any]] = None,
           **sweep: Any) -> "TrialSpec":
        """The spec of one trial of the experiment config ``config``:
        every field of it, each sweep named in ``sweep`` narrowed to
        this trial's entries (``port_counts=[8]``)."""
        return cls(kind=kind, point=point or {}, label=label,
                   settings={**dataclasses.asdict(config), **sweep})

    # Unannotated: the config contract then counts reads through it.
    def config(self, cls: type):
        """The config this trial carries, rebuilt as ``cls``."""
        return _rebuild(cls, self.settings)

    def fingerprint(self) -> str:
        """Stable content hash of ``(kind, config, point)``."""
        payload = canonical_json({"kind": self.kind,
                                  "config": self.settings,
                                  "point": self.point})
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        return self.label or f"{self.kind}[{self.fingerprint()[:8]}]"


def _rebuild(hint: Any, value: Any) -> Any:
    """The inverse of ``canonical(asdict(...))`` for the field types
    configs use: a dataclass and a tuple come back as themselves."""
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(**{f.name: _rebuild(hints[f.name], value[f.name])
                       for f in dataclasses.fields(hint)})
    return tuple(value) if typing.get_origin(hint) is tuple else value
