"""JSON-serializable trial results.

A :class:`TrialResult` is the complete output of one trial: the spec
identity (kind, fingerprint, config settings, point) plus a ``data`` payload of
plain JSON types.  Experiments assemble their figure/table results from
batches of these rows, which is what makes results cacheable and
transportable across process boundaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any, TYPE_CHECKING

from repro.runtime.spec import canonical, canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime.spec import TrialSpec


@dataclass
class TrialResult:
    """One trial's output row.

    ``to_json`` is byte-stable: the same spec executed anywhere (serial,
    parallel, from cache) serialises to the identical string, which the
    determinism tests assert directly.
    """

    kind: str
    fingerprint: str
    label: str
    settings: Mapping[str, Any]
    point: Mapping[str, Any]
    data: Mapping[str, Any]

    def to_json(self) -> str:
        return canonical_json(vars(self))

    @classmethod
    def from_json(cls, text: str) -> "TrialResult":
        return cls(**json.loads(text))


def make_result(spec: "TrialSpec", data: Mapping[str, Any]) -> TrialResult:
    """Wrap a trial function's payload into a result row tied to its
    spec.  ``data`` is canonicalised (numpy scalars to int/float, tuples
    to lists) so the row always survives a JSON round trip."""
    return TrialResult(kind=spec.kind, fingerprint=spec.fingerprint(),
                       label=spec.label, settings=spec.settings,
                       point=spec.point, data=canonical(data))
