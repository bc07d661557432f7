"""The declarative spec kernel — docs/SPECS.md as code.

A *spec family* (fault profiles, update plans, …) describes intent as
frozen dataclasses and compiles it against a context into a concrete
schedule.  Everything the families share lives here, once:

* :class:`Spec` — the family base: a ``type``-tag registry filled by
  ``__init_subclass__``, the exact JSON round-trip, and ``|`` / ``+``
  composition that refuses a spec of another family;
* :class:`Composite` — mixin for a family's ``compose`` class, the one
  place parts are type-checked and flattened;
* :class:`Window` — base of every compile context: the
  ``[start_ns, end_ns)`` window, the seed and the one :meth:`~Window.clamp`;
* :func:`load_spec` — the CLI form (inline JSON or a file path),
  validated by round trip.

A family adds only its vocabulary: leaf specs with a ``compile`` and a
context with the family's one ``emit``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Any, ClassVar, TypeVar

from repro.sim.engine import check_minimums

__all__ = ["Composite", "Spec", "Window", "load_spec"]

_S = TypeVar("_S", bound="Spec")


def _lower(value: Any) -> Any:
    """Spec field value -> JSON value (tuples to lists, specs to objects)."""
    if isinstance(value, tuple):
        return [_lower(v) for v in value]
    return value.to_jsonable() if isinstance(value, Spec) else value


@dataclass(frozen=True)
class Spec:
    """Base of every spec family.

    A family root subclasses ``Spec`` and sets ``family`` (the noun used
    in error messages); each concrete spec is a
    ``@dataclass(frozen=True)`` subclass of the root that sets
    ``spec_type`` — its JSON ``type`` tag — and is thereby registered.
    """

    family: ClassVar[str] = ""
    spec_type: ClassVar[str] = ""
    _root: ClassVar[type[Any]]
    _registry: ClassVar[dict[str, type[Any]]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "family" in cls.__dict__:
            cls._root, cls._registry = cls, {}
        tag = cls.__dict__.get("spec_type", "")
        if tag:
            cls._registry[tag] = cls

    def __or__(self, other: Spec) -> Any:
        """``a | b``: the family's composite of both (flattened)."""
        if not isinstance(other, self._root):
            return NotImplemented
        return self._registry["compose"](parts=(self, other))

    __add__ = __or__

    def to_jsonable(self) -> dict[str, Any]:
        """Stable JSON form ``{"type": <tag>, <field>: <value>, …}`` —
        what rides in trial params and on the CLI flags."""
        return {"type": self.spec_type, **{
            f.name: _lower(getattr(self, f.name)) for f in fields(self)}}

    @classmethod
    def from_jsonable(cls: type[_S], data: Any) -> _S:
        """Rebuild any registered spec of this family (exact inverse of
        :meth:`to_jsonable`).  Every malformed document is a
        ``ValueError``; nothing is silently dropped."""
        if not isinstance(data, Mapping) or "type" not in data:
            raise ValueError(
                f"a serialized {cls._root.__name__} is an object with a "
                f"'type' tag; got {data!r}")
        tag = data["type"]
        target = cls._registry.get(tag)
        if target is None:
            raise ValueError(
                f"unknown {cls.family} type {tag!r} "
                f"(known: {', '.join(sorted(cls._registry))})")
        payload = {k: cls._lift(v) for k, v in data.items() if k != "type"}
        unknown = sorted(set(payload) - {f.name for f in fields(target)})
        if unknown:
            raise ValueError(f"unknown field(s) {', '.join(unknown)} for "
                             f"{cls.family} type {tag!r}")
        try:
            return target(**payload)
        except (TypeError, KeyError) as exc:
            raise ValueError(f"invalid {cls.family} type {tag!r}: "
                             f"{exc}") from exc

    @classmethod
    def _lift(cls, value: Any) -> Any:
        """JSON value -> spec field value (lists to tuples, objects to
        nested specs of this family)."""
        if isinstance(value, list):
            return tuple(cls._lift(v) for v in value)
        return (cls.from_jsonable(value) if isinstance(value, Mapping)
                else value)


class Composite:
    """Mixin for a family's composition class (tag ``"compose"``, one
    ``parts`` field).  However the composite is built — directly, from
    JSON or with ``|`` — its parts are leaves of its own family, in
    order: composing composites concatenates their parts."""

    parts: tuple[Any, ...]
    _root: ClassVar[type[Any]]

    def __post_init__(self) -> None:
        flat: list[Any] = []
        for part in self.parts:
            if not isinstance(part, self._root):
                raise TypeError(
                    f"expected {self._root.__name__}, got {part!r}")
            flat += part.parts if isinstance(part, Composite) else (part,)
        object.__setattr__(self, "parts", tuple(flat))


@dataclass(frozen=True)
class Window:
    """Base of every compile context: the ``[start_ns, end_ns)`` window
    and the seed.  A family's context adds its inventory fields (tuples
    of names; lists, e.g. straight from JSON, are coerced) and its one
    ``emit``, which places every instant through :meth:`clamp`."""

    horizon_ns: int
    start_ns: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        check_minimums(self, {"horizon_ns": 1, "start_ns": 0})
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                object.__setattr__(self, f.name, tuple(value))

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.horizon_ns

    def clamp(self, at_ns: int) -> int:
        """Clamp one instant into ``[start_ns, end_ns)``."""
        return min(max(int(at_ns), self.start_ns), self.end_ns - 1)


def load_spec(family: type[Spec], text: str) -> dict[str, Any]:
    """Parse a CLI spec argument — inline JSON or the path of a JSON
    file — and validate it by round-tripping through ``family``; bad
    input is a ``ValueError`` (unparseable: ``json.JSONDecodeError``)."""
    if os.path.isfile(text):
        with open(text, encoding="utf-8") as handle:
            text = handle.read()
    return family.from_jsonable(json.loads(text)).to_jsonable()
