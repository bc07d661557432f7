"""The docs/SPECS.md contract, checked once for every spec family.

``repro.specs`` is the only implementation of the contract, so one
suite covers fault profiles, update plans and a throwaway third family
defined right here — which proves the kernel needs nothing
family-specific.  Vocabulary (what each spec compiles to) is tested in
tests/faults/test_profile.py and tests/updates/test_plan.py.
"""

import hashlib
import json
from dataclasses import dataclass, fields
from typing import ClassVar, NamedTuple

import pytest
from hypothesis import given, strategies as st

from repro.faults import (CorrelatedGroup, FaultProfile, IndependentFaults,
                          MaintenanceWindow, ProfileContext)
from repro.sim.engine import MS
from repro.specs import Composite, Spec, Window, load_spec
from repro.updates import (PhasedUpdate, TimedSwap, TwoPhaseVersioned,
                           UpdateContext, UpdatePlan)


class Chime(Spec):
    """Third family: a chime rings at clamped instants."""

    family: ClassVar[str] = "chime"


@dataclass(frozen=True)
class Ring(Chime):
    spec_type: ClassVar[str] = "ring"

    at_ns: int = 0
    notes: tuple = ()

    def __post_init__(self):
        if self.at_ns < 0:
            raise ValueError(f"at_ns must be >= 0, got {self.at_ns}")

    def compile(self, ctx):
        return [[ctx.clamp(self.at_ns), list(map(list, self.notes))]]


@dataclass(frozen=True)
class Peal(Composite, Chime):
    spec_type: ClassVar[str] = "compose"

    parts: tuple = ()

    def compile(self, ctx):
        return [ring for part in self.parts for ring in part.compile(ctx)]


@dataclass(frozen=True)
class Belfry(Window):
    bells: tuple = ()


class Family(NamedTuple):
    root: type
    leaves: tuple      # three distinct leaf specs (one with nested tuples)
    ctx: Window
    bad_field: dict    # a document whose constructor raises TypeError


ROUTES = (("sw0", "h1", ("sw1",)), ("sw1", "h1", ()))
FAMILIES = [
    Family(FaultProfile,
           (IndependentFaults(intensity=1.5, kinds=("link_down", "cp_crash")),
            CorrelatedGroup(switch="sw1", at_ns=20 * MS, jitter_ns=100),
            MaintenanceWindow(targets=("sw0-sw1",), offset_ns=5 * MS)),
           ProfileContext(horizon_ns=50 * MS, links=["sw0-sw1"],
                          switches=["sw0", "sw1"], clocks=["sw0", "sw1"],
                          start_ns=10 * MS, seed=7),
           {"type": "independent", "intensity": "high"}),
    Family(UpdatePlan,
           (TimedSwap(at_ns=20 * MS, routes=ROUTES, label="detour"),
            PhasedUpdate(at_ns=20 * MS, routes=ROUTES, order=("sw1", "sw0")),
            TwoPhaseVersioned(at_ns=30 * MS, routes=ROUTES, tag="x")),
           UpdateContext(horizon_ns=50 * MS, switches=["sw0", "sw1"],
                         edges=["sw0"]),
           {"type": "timed_swap", "at_ns": "soon"}),
    Family(Chime,
           (Ring(at_ns=3, notes=(("c", 4), ("e", 4))), Ring(at_ns=99),
            Ring(at_ns=5, notes=(("g", 3),))),
           Belfry(horizon_ns=10, start_ns=2, bells=["great", "small"]),
           {"type": "ring", "at_ns": "noon"}),
]
family = pytest.mark.parametrize(
    "fam", FAMILIES, ids=lambda fam: fam.root.family.replace(" ", "-"))


@family
def test_round_trip_is_exact(fam):
    a, b, c = fam.leaves
    for spec in (a, b, c, a | b | c):
        data = spec.to_jsonable()
        assert json.loads(json.dumps(data)) == data     # plain JSON types
        restored = fam.root.from_jsonable(data)
        assert restored == spec and hash(restored) == hash(spec)
        assert restored.to_jsonable() == data
        assert restored.compile(fam.ctx) == spec.compile(fam.ctx)


@family
def test_malformed_documents_are_value_errors(fam):
    leaf = fam.leaves[0].to_jsonable()
    with pytest.raises(ValueError, match=f"unknown {fam.root.family} type"):
        fam.root.from_jsonable({"type": "gremlins"})
    with pytest.raises(ValueError, match="unknown field"):
        fam.root.from_jsonable({**leaf, "bogus": 3})
    with pytest.raises(ValueError, match="unknown field"):   # nested part
        fam.root.from_jsonable(
            {"type": "compose", "parts": [{**leaf, "bogus": 3}]})
    for untagged in ({"intensity": 1.0}, "independent", [leaf]):
        with pytest.raises(ValueError, match="'type' tag"):
            fam.root.from_jsonable(untagged)
    with pytest.raises(ValueError,
                       match=f"invalid {fam.root.family} type '"):
        fam.root.from_jsonable(fam.bad_field)


@family
def test_or_flattens_and_add_is_or(fam):
    a, b, c = fam.leaves
    composite = a | b | c
    assert isinstance(composite, Composite)
    assert composite.parts == (a, b, c)
    assert (a | (b | c)) == composite == (a + b + c)


@family
def test_composite_parts_are_leaves_however_built(fam):
    a, b, _ = fam.leaves
    compose = type(a | b)
    nested = compose(parts=(compose(parts=[a]), compose(parts=(b,))))
    from_json = fam.root.from_jsonable(
        {"type": "compose", "parts": [
            {"type": "compose", "parts": [a.to_jsonable()]},
            b.to_jsonable()]})
    assert nested == from_json == (a | b)
    assert nested.to_jsonable() == (a | b).to_jsonable()
    assert nested.parts == (a, b)


@family
def test_composition_stays_inside_the_family(fam):
    a = fam.leaves[0]
    stranger = next(f for f in FAMILIES if f is not fam).leaves[0]
    with pytest.raises(TypeError):
        a | stranger
    with pytest.raises(TypeError):
        a | "link_down"
    with pytest.raises(TypeError, match=fam.root.__name__):
        type(a | a)(parts=(a, stranger))


@family
def test_context_window_and_inventories(fam):
    ctx = fam.ctx
    window = {f.name for f in fields(Window)}
    inventories = [getattr(ctx, f.name) for f in fields(ctx)
                   if f.name not in window]
    assert inventories and all(isinstance(v, tuple) for v in inventories)
    assert ctx.end_ns == ctx.start_ns + ctx.horizon_ns
    with pytest.raises(ValueError, match="horizon_ns"):
        type(ctx)(horizon_ns=0)
    with pytest.raises(ValueError, match="start_ns"):
        type(ctx)(horizon_ns=1, start_ns=-1)


@given(horizon=st.integers(1, 10**12), start=st.integers(0, 10**12),
       at=st.integers(-10**13, 10**13))
def test_clamp_lands_every_instant_in_the_window(horizon, start, at):
    window = Window(horizon_ns=horizon, start_ns=start)
    assert window.start_ns <= window.clamp(at) < window.end_ns
    if window.start_ns <= at < window.end_ns:
        assert window.clamp(at) == at


@family
def test_load_spec_inline_file_and_directory(fam, tmp_path):
    data = (fam.leaves[0] | fam.leaves[1]).to_jsonable()
    assert load_spec(fam.root, json.dumps(data)) == data
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert load_spec(fam.root, str(path)) == data
    with pytest.raises(json.JSONDecodeError):    # not a regular file
        load_spec(fam.root, str(tmp_path))


def test_trial_fingerprints_are_pinned():
    """The spec codec feeds every fault/update trial's cache key.  This
    digest (recorded before repro.specs replaced the hand-written
    codecs) covers the default and quick batches of the four
    experiments that embed specs; a codec edit that changes it silently
    invalidates every cached result — bump it only on purpose.
    Re-recorded when trials stopped carrying compiled schedules: every
    faults, recovery and updates spec lost its ``schedule`` param and
    each recovery spec gained its ``profile``; nothing else moved.
    Re-recorded when the digest flush timer became a constant: the 21
    specs that carry a recovery policy lost its ``digest_timeout_ns``;
    nothing else moved.
    Re-recorded when every trial began carrying its whole experiment
    config (``TrialSpec.of``, the fingerprint of ``(kind, config,
    point)``) instead of a hand-copied subset of it plus a seed: every
    key moved, no trial's data did."""
    from repro.experiments import registry

    reg = registry()
    lines = [f"{name}/{'quick' if quick else 'default'}/{spec.fingerprint()}"
             for name in ("faults", "recovery", "updates", "scaling")
             for quick in (False, True)
             for spec in reg[name].specs(reg[name].config(quick=quick))]
    assert len(lines) == 56
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "424b6abfd60b13ef28ae8a449bc9d7dfa5d646569388295e3a46baa47774ad2d")
