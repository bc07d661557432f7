"""Every config refuses an impossible value by name, or runs with it;
every field of every config is read somewhere in ``src``; and every
``src`` definition has a caller outside the tests.

The configs and specs are found by introspection, not from a list: every
dataclass defined under ``repro`` whose name ends in ``Config``, ``Spec``
or ``Policy``, every member of a :class:`repro.specs.Spec` family and
every compile context (:class:`repro.specs.Window`).  For each numeric
field a draw sets that one field to 0, -1, 1, 2**62, 0.5, NaN, +inf or
-inf (an ``Optional`` field also to None; a list of numbers, a sweep, to
a one-entry list of the value; a fat-tree ``arities`` sweep also to the
in-range odd arity 3) on an otherwise valid instance.
The oracle: construction raises ``ValueError`` or ``TypeError`` naming
``Class.field`` (an overlay such as ``RecoveryPolicy`` may name the
config the value lands in), or a bounded smoke run finishes:

* a runtime config drives a tiny leaf-spine rig, cut off after a fixed
  number of events (``Simulator.run`` is capped for the smoke);
* a ``Spec`` family member compiles against a small context, and a
  context compiles every default member of its family;
* an experiment config builds its trial specs and runs the first one
  (cut off by the same event budget).

A smoke run must also finish inside a wall-clock guard and an address
space guard, so a hang or a runaway allocation fails the draw instead of
the machine.  A config nested in another (``DeploymentConfig.observer``)
runs through its parent; a new config nobody nests needs one line in
``_SMOKES``, and the test says so until it has it.

Each example draws one bad value for every field of every class.
Hypothesis tries the simplest draw, every field at 0, first; tier-1 runs
three examples, and ``make config-fuzz-deep`` a thousand
(``REPRO_CONFIG_FUZZ_EXAMPLES``), which covers every (field, value) pair.

A field nothing reads is a knob that does nothing.  The reader check
parses ``src`` and types each attribute read's receiver from the
annotations in reach (parameters, class fields, ``self.x = ...``
assignments, constructor calls); a field counts as read when a read of
its name has a receiver of its class (or a related one), or an
unresolved receiver, or when an instance of its class is passed whole
to ``asdict``/``replace``.  Its declaration, its bounds table and its
own ``__post_init__`` are not readers.

A runtime field only tests set is a calibration with one value in use.
The set check walks ``src``, ``bench`` and ``examples`` with the same
typing and fails on a runtime-config field no keyword there sets.

A function, method or class only tests call serves no workload.  The
definition check walks ``src``, ``bench``, ``examples`` and
``benchmarks`` and fails on a ``src`` definition whose name nothing
there loads.  The three source checks share one parse of each module.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import math
import os
import pkgutil
import re
import resource
import signal
import types
import typing
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Optional, Union
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import repro
from repro.core import ControlPlaneConfig, ObserverConfig, deploy
from repro.faults import IndependentFaults
from repro.experiments import ExperimentConfig, registry
from repro.experiments.campaigns import (CampaignSpec, snapshot_campaign,
                                         uplink_egress_targets)
from repro.experiments.fig9 import Fig9Config
from repro.experiments.fig10 import AggKneeConfig
from repro.experiments.fig12 import Fig12Config
from repro.experiments.scaling import ScalingConfig
from repro.lb.flowlet import FlowletBalancer
from repro.polling.poller import PollingConfig, PollingObserver, PollTarget
from repro.runtime import TrialRunner
from repro.runtime.streaming import ServiceRun, ServiceSpec
from repro.service.pipeline import SnapshotPipeline
from repro.service.store import EpochStore, StoreConfig
from repro.sim.engine import MS, Simulator
from repro.sim.network import Network, NetworkConfig
from repro.specs import Composite, Spec, Window
from repro.topology import Topology, leaf_spine
from repro.topology.graph import LinkSpec
from repro.workloads.base import Workload, WorkloadConfig
from repro.workloads.memcache import MemcacheConfig
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

EXAMPLES = int(os.environ.get("REPRO_CONFIG_FUZZ_EXAMPLES", "3"))

BAD_VALUES = (0, -1, 1, 2**62, 0.5, math.nan, math.inf, -math.inf)
#: In-range values a field of this name must still refuse: an odd
#: fat-tree arity.
BAD_BY_NAME = {"arities": (3,)}
#: Events a smoke run may execute before it counts as finished (the
#: default rig runs all of its 20 ms, three snapshots, in ~540).
EVENTS = 1000
#: Seconds a smoke run may take; a hang fails the draw.
GUARD_S = 2.0
#: Address space a smoke run may add to the process.
GUARD_BYTES = 1 << 30


class _Spent(BaseException):
    """The smoke run used its event budget: bounded, and finished."""


class _Hung(BaseException):
    """The smoke run outlived its wall-clock guard."""


@contextmanager
def _guarded(events: int = EVENTS) -> Iterator[None]:
    """Cap every ``Simulator.run`` at one shared event budget, and arm
    the wall-clock and address-space guards."""
    real = Simulator.run
    left = [events]

    def capped(self: Simulator, until: Optional[int] = None,
               max_events: Optional[int] = None) -> int:
        # A call spends budget by running events or moving the clock; a
        # loop that does neither never finishes, and the guard fires.
        cap = left[0] if max_events is None else min(max_events, left[0])
        before = self.now
        done = real(self, until=until, max_events=cap)
        left[0] -= done or self.now > before
        if left[0] <= 0:
            raise _Spent
        return done

    def hung(signum: int, frame: Any) -> None:
        raise _Hung(f"smoke run took longer than {GUARD_S} s")

    with open("/proc/self/statm") as statm:
        in_use = int(statm.read().split()[0]) * resource.getpagesize()
    limits = resource.getrlimit(resource.RLIMIT_AS)
    ceiling = in_use + GUARD_BYTES
    if limits[1] != resource.RLIM_INFINITY:
        ceiling = min(ceiling, limits[1])
    previous = signal.signal(signal.SIGALRM, hung)
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, limits[1]))
    signal.setitimer(signal.ITIMER_REAL, GUARD_S)
    try:
        with mock.patch.object(Simulator, "run", capped):
            yield
    except _Spent:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        resource.setrlimit(resource.RLIMIT_AS, limits)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# The smoke runs
# ----------------------------------------------------------------------
def _topology() -> Topology:
    return leaf_spine(num_leaves=2, num_spines=1, hosts_per_leaf=1)


def _rig(network: Optional[NetworkConfig] = None,
         workload: Callable[[Network], Workload] = (
             lambda net: PoissonWorkload(net, PoissonConfig(
                 rate_pps=2_000.0, stop_ns=10 * MS))),
         topology: Optional[Topology] = None, **fields: Any) -> Network:
    """A two-leaf fabric with traffic and a three-snapshot campaign,
    run for at most 20 ms (and the event budget)."""
    net = Network(topology or _topology(), network or NetworkConfig())
    deployment = deploy(net, **fields)
    workload(net).start()
    deployment.schedule_campaign(3, 2 * MS)
    net.run(until=20 * MS)
    return net


def _poll(config: PollingConfig) -> None:
    net = Network(_topology())
    deploy(net)
    PollingObserver(net, [PollTarget("leaf0", 0, "egress", "packet_count")],
                    config).run_campaign(3, 1 * MS)
    net.run(until=20 * MS)


def _store(config: StoreConfig) -> None:
    run = ServiceRun(ServiceSpec(chunk_ns=2 * MS))
    run.pipeline = SnapshotPipeline(run.sim, run.deployment.observer,
                                    config=run.spec.pipeline,
                                    store=EpochStore(config))
    run.run(epochs=3)


def _link(spec: Any) -> None:
    topology = _topology()
    topology.add_switch("leaf2")
    topology.add_link("spine0", "leaf2", spec.bandwidth_bps,
                      spec.propagation_ns)
    _rig(topology=topology)


#: The smoke run of each config nothing else nests.
_SMOKES: dict[str, Callable[[Any], None]] = {
    "ServiceSpec": lambda spec: ServiceRun(spec).run(epochs=3),
    "DeploymentConfig": lambda config: _rig(**{
        f.name: getattr(config, f.name) for f in dataclasses.fields(config)}),
    "NetworkConfig": lambda config: _rig(network=config),
    "FlowletConfig": lambda config: _rig(network=NetworkConfig(
        lb_factory=lambda salt: FlowletBalancer(config))),
    "PollingConfig": _poll,
    "StoreConfig": _store,
    "RecoveryPolicy": lambda policy: _rig(
        control_plane=policy.control_plane_config(),
        observer=policy.observer_config()),
    "CampaignSpec": lambda spec: snapshot_campaign(spec,
                                                   uplink_egress_targets),
    "LinkSpec": _link,
}

#: A valid instance of each class whose fields have no defaults.
_BASES: dict[str, Callable[[], Any]] = {
    "CampaignSpec": lambda: CampaignSpec(workload="memcache", rounds=3,
                                         interval_ns=2 * MS),
    "LinkSpec": lambda: LinkSpec("a", "b"),
}


def _discover() -> list[type]:
    found: dict[str, type] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)
                    and (name.endswith(("Config", "Spec", "Policy"))
                         or issubclass(obj, (Spec, Window)))):
                found[f"{obj.__module__}.{name}"] = obj
    return [found[key] for key in sorted(found)]


#: ``Optional[int]`` and ``int | None``.
_UNIONS = (Union, getattr(types, "UnionType", Union))


@functools.cache
def _numeric(cls: type) -> dict[str, str]:
    """Each numeric init field of ``cls`` -> ``"optional"``, ``"list"``
    (a sweep of numbers, drawn as a one-entry list) or ``"plain"``."""
    hints = typing.get_type_hints(cls)
    out: dict[str, str] = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = set(typing.get_args(hint))
        optional = (typing.get_origin(hint) in _UNIONS and type(None) in args)
        if not f.init:
            continue
        if hint in (int, float):
            out[f.name] = "plain"
        elif optional and args - {type(None)} <= {int, float}:
            out[f.name] = "optional"
        elif typing.get_origin(hint) is list and args <= {int, float}:
            out[f.name] = "list"
    return out


def _drawn(name: str, kind: str) -> st.SearchStrategy:
    values = BAD_VALUES + BAD_BY_NAME.get(name, ())
    if kind == "list":
        return st.sampled_from(values).map(lambda value: [value])
    return st.sampled_from(values + ((None,) if kind == "optional" else ()))


@functools.cache
def _nesting(cls: type) -> Optional[tuple[type, str]]:
    """A covered class with a field of type ``cls`` (or Optional of it)."""
    for parent in CLASSES:
        for name, hint in typing.get_type_hints(parent).items():
            if hint is cls or cls in typing.get_args(hint):
                return parent, name
    return None


def _family_context(member: type) -> Window:
    ctx_cls = typing.get_type_hints(member._root.compile)["ctx"]
    return ctx_cls.for_topology(_topology(), horizon_ns=20 * MS)


def _base(cls: type) -> Any:
    if cls.__name__ in _BASES:
        return _BASES[cls.__name__]()
    if cls in _experiments():
        return cls.quick()
    if issubclass(cls, Window):
        return cls.for_topology(_topology(), horizon_ns=20 * MS)
    return cls()


@functools.cache
def _experiments() -> dict[type, Any]:
    return {exp.config_cls: exp for exp in registry().values()}


def _smoke(instance: Any) -> None:
    cls = type(instance)
    if cls in _experiments():
        # The first trial, cut off by the event budget: a value in range
        # that fails inside a trial (a sweep's entry) fails the draw.
        TrialRunner().run_batch(_experiments()[cls].specs(instance)[:1])
    elif cls.__name__ in _SMOKES:
        _SMOKES[cls.__name__](instance)
    elif issubclass(cls, Spec):
        instance.compile(_family_context(cls))
    elif issubclass(cls, Window):
        for member in _members_of(cls):
            member().compile(instance)
    elif issubclass(cls, WorkloadConfig):
        _rig(workload=lambda net: _workload_for(cls)(net, instance))
    else:
        nest = _nesting(cls)
        assert nest is not None, (
            f"no smoke run takes {cls.__name__}: nest it in a covered "
            "config or add it to _SMOKES")
        parent, name = nest
        _smoke(dataclasses.replace(_base(parent), **{name: instance}))


def _members_of(ctx_cls: type) -> list[type]:
    return [member for member in CLASSES
            if issubclass(member, Spec) and member.spec_type
            and typing.get_type_hints(member._root.compile)["ctx"] is ctx_cls
            and not issubclass(member, Composite)]


def _workload_for(config_cls: type) -> type:
    stack = list(Workload.__subclasses__())
    while stack:
        workload = stack.pop()
        stack += workload.__subclasses__()
        hint = typing.get_type_hints(workload.__init__).get("config")
        if config_cls in typing.get_args(hint):
            return workload
    raise AssertionError(f"no workload takes {config_cls.__name__}")


CLASSES = _discover()
#: The classes with something to draw; a base class whose fields are all
#: drawn through a covered subclass needs no draw of its own.
DRAWN = [cls for cls in CLASSES if _numeric(cls) and not any(
    other is not cls and issubclass(other, cls) for other in CLASSES)]


def test_discovery_finds_the_known_configs():
    names = {cls.__name__ for cls in DRAWN}
    assert {"ServiceSpec", "ControlPlaneConfig", "SwitchConfig",
            "IndependentFaults", "TimedSwap", "ProfileContext",
            "Fig9Config", "MemcacheConfig", "RecoveryPolicy"} <= names


# No shrink phase: the failure already names the field and value, and a
# hang would cost the wall-clock guard once per shrink step.
@settings(max_examples=EXAMPLES, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate),
          suppress_health_check=list(HealthCheck))
@given(st.fixed_dictionaries({
    cls: st.fixed_dictionaries({
        name: _drawn(name, kind) for name, kind in _numeric(cls).items()})
    for cls in DRAWN}))
def test_a_bad_field_is_refused_by_name_or_runs(draw):
    """Each example draws one bad value for every field of every class,
    and tries each field on its own."""
    for cls, values in draw.items():
        for name, value in values.items():
            try:
                instance = dataclasses.replace(_base(cls), **{name: value})
            except (ValueError, TypeError) as exc:
                assert f".{name} " in str(exc), (
                    f"{cls.__name__}({name}={value!r}) refused without "
                    f"naming the field: {exc!r}")
                continue
            try:
                with _guarded():
                    _smoke(instance)
            except (Exception, _Hung) as exc:
                raise AssertionError(
                    f"{cls.__name__}({name}={value!r}) was accepted, and its "
                    f"smoke run failed: {exc!r}") from exc


@pytest.mark.parametrize("cls, field, value", [
    # Each was accepted, then failed inside the simulator or ran silently.
    (ObserverConfig, "retry_timeout_ns", math.inf),  # OverflowError in run
    (ObserverConfig, "lead_time_ns", math.nan),  # unnamed ValueError in run
    (MemcacheConfig, "mean_request_gap_ns", 0),  # ZeroDivisionError
    (ControlPlaneConfig, "notification_service_ns", 1.5),  # TypeError: read_ns
    (PollingConfig, "per_read_ns", -1),  # accepted
    # Accepted with their trial specs; refused only in a worker's trial.
    (Fig9Config, "rate_pps", math.nan),
    (Fig12Config, "interval_ns", math.nan),
    # In range, then fat_tree's unnamed "k must be a positive even integer".
    (AggKneeConfig, "arities", [3]),
    (ScalingConfig, "arities", [5]),
])
def test_a_probed_defect_is_refused_by_name(cls, field, value):
    with pytest.raises((ValueError, TypeError),
                       match=rf"^{cls.__name__}\.{field} must be "):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field, value", [
    (ObserverConfig, "lead_time_ns", 2e6),
    # Kept as a float, it failed the run at freeze: "read_ns ... does not
    # fit an int64 column".
    (ControlPlaneConfig, "notification_service_ns", 55e3),
    (IndependentFaults, "mean_duration_ns", 5e6),  # a frozen spec
])
def test_a_whole_float_is_the_integer_it_equals(cls, field, value):
    # Config arithmetic such as 2.5 * MS gives 2500000.0; as in exact_ns,
    # an integer field takes it as that int, and refuses a fraction.
    config = cls(**{field: value})
    assert type(getattr(config, field)) is int
    assert getattr(config, field) == value
    with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{field} must "
                                         r"be an integer >= \d+, got "):
        cls(**{field: value + 0.5})
    if cls is ControlPlaneConfig:
        with _guarded():
            _rig(control_plane=config)


def test_no_field_annotation_is_a_pep_604_union():
    """``int | None`` raises ``TypeError`` on Python 3.9, the project's
    floor, wherever a field's annotations are evaluated: in
    ``typing.get_type_hints`` (:func:`_numeric`) and in
    ``TrialSpec.config``.  ``Optional[int]`` works on every version."""
    unions = [f"{cls.__name__}.{f.name}: {f.type}" for cls in CLASSES
              for f in dataclasses.fields(cls) if "|" in str(f.type)]
    assert unions == []


# ----------------------------------------------------------------------
# Every field has a reader
# ----------------------------------------------------------------------
#: Calls that read every field of their first argument.
_WHOLE = {"asdict", "replace"}


def _hint(node: Optional[ast.expr]) -> Optional[str]:
    """The class an annotation names, unwrapping ``Optional``/``| None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript) and _hint(node.value) == "Optional":
        return _hint(node.slice)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                return _hint(side)
    return None


def _params(fn: ast.FunctionDef, owner: Optional[str]) -> dict[str, str]:
    """Parameter name -> annotated class; an unannotated first parameter
    of a method is the owner."""
    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    env = {arg.arg: hint for arg in args
           if (hint := _hint(arg.annotation)) is not None}
    if owner and args and args[0].annotation is None:
        env[args[0].arg] = owner
    return env


class _Types:
    """Class name -> bases and typed attributes, over every module."""

    def __init__(self, trees: list[ast.Module]) -> None:
        self.bases: dict[str, set[Optional[str]]] = {}
        self.attrs: dict[str, dict[str, str]] = {}
        classes = [node for tree in trees for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)]
        for cls in classes:
            self.bases.setdefault(cls.name, set()).update(
                _hint(base) for base in cls.bases)
            attrs = self.attrs.setdefault(cls.name, {})
            for item in cls.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and (hint := _hint(item.annotation))):
                    attrs[item.target.id] = hint
                elif (isinstance(item, ast.FunctionDef)
                      and (hint := _hint(item.returns))):
                    attrs[item.name] = hint  # a property or method
        for cls in classes:  # ``self.x = ...`` in the methods
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                env = _params(fn, cls.name)
                for node in ast.walk(fn):
                    if isinstance(node, ast.AnnAssign):
                        target, hint = node.target, _hint(node.annotation)
                    elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, hint = node.targets[0], self.of(node.value, env)
                    else:
                        continue
                    if (hint and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        self.attrs[cls.name].setdefault(target.attr, hint)

    def lineage(self, name: Optional[str]) -> list[str]:
        """``name`` and its bases, transitively."""
        seen: list[str] = []
        stack = [name]
        while stack:
            current = stack.pop()
            if current and current not in seen:
                seen.append(current)
                stack += self.bases.get(current, ())
        return seen

    def of(self, node: Optional[ast.expr], env: dict[str, str]
           ) -> Optional[str]:
        """The class an expression evaluates to, where it is plain."""
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, (ast.Attribute, ast.Call)):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    return node.func.id if node.func.id in self.bases else None
                node = node.func
            if isinstance(node, ast.Attribute):
                owner = self.of(node.value, env)
                for name in self.lineage(owner):
                    if node.attr in self.attrs.get(name, {}):
                        return self.attrs[name][node.attr]
        if isinstance(node, ast.BoolOp):
            return next(filter(None, (self.of(v, env) for v in node.values)),
                        None)
        if isinstance(node, ast.IfExp):
            return self.of(node.body, env) or self.of(node.orelse, env)
        return None


@functools.cache
def _parse(path: Path) -> ast.Module:
    """One module's tree, parsed once per session: the three source
    checks share it, and none of them changes a tree."""
    return ast.parse(path.read_text())


def _modules(*roots: Path) -> list[tuple[Path, ast.Module]]:
    """Every module under ``roots``, tests left out, with its path."""
    return [(path, _parse(path))
            for root in roots for path in sorted(root.rglob("*.py"))
            if "tests" not in path.relative_to(root).parts]


def _trees(*roots: Path) -> list[ast.Module]:
    """Every module under ``roots``, tests left out."""
    return [tree for _path, tree in _modules(*roots)]


def _walk(trees: list[ast.Module], types_: _Types
          ) -> Iterator[tuple[ast.AST, dict[str, str], bool]]:
    """Each node of ``trees`` with the names typed in reach of it, and
    whether it sits in its own class's ``__post_init__``."""

    def visit(node: ast.AST, env: dict[str, str], owner: Optional[str],
              checking: bool) -> Iterator[tuple[ast.AST, dict[str, str],
                                                bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, {}, child.name, False)
                continue
            if isinstance(child, ast.FunctionDef):
                yield from visit(child, {**env, **_params(child, owner)},
                                 None,
                                 bool(owner) and child.name == "__post_init__")
                continue
            if (isinstance(child, ast.Assign) and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Name)
                    and (hint := types_.of(child.value, env))):
                env[child.targets[0].id] = hint
            yield child, env, checking
            yield from visit(child, env, owner, checking)

    for tree in trees:
        yield from visit(tree, {}, None, False)


def _reads() -> tuple[_Types, set[tuple[Optional[str], str]]]:
    """(receiver class or None, attribute name) of every read in
    ``src``; the name ``*`` for a call that reads every field."""
    trees = _trees(Path(repro.__file__).parent)
    types_ = _Types(trees)
    found: set[tuple[Optional[str], str]] = set()
    for child, env, checking in _walk(trees, types_):
        receiver: Optional[ast.expr] = None
        name: Optional[str] = None
        if (isinstance(child, ast.Attribute)
                and not isinstance(child.ctx, ast.Store)):
            receiver, name = child.value, child.attr
        elif isinstance(child, ast.Call) and child.args:
            called = getattr(child.func, "id",
                             getattr(child.func, "attr", None))
            if called in _WHOLE:
                receiver, name = child.args[0], "*"
            elif (called == "getattr" and len(child.args) > 1
                  and isinstance(child.args[1], ast.Constant)):
                receiver, name = child.args[0], child.args[1].value
        # A class's own __post_init__ checks its fields; it is not a
        # reader.
        if name is not None and not (
                checking and isinstance(receiver, ast.Name)
                and receiver.id == "self"):
            found.add((types_.of(receiver, env), name))
    return types_, found


def test_every_field_is_read_in_src():
    """A field no code reads is a knob that does nothing (the old
    ``SwitchConfig.egress_latency_ns``, read nowhere, and
    ``SwitchConfig.enable_tracing``, set by ``Network`` and read by
    nothing).  A calibration no caller changes is a module constant."""
    types_, found = _reads()
    unread = []
    for cls in CLASSES:
        related = set(types_.lineage(cls.__name__)) | {
            name for name in types_.bases
            if cls.__name__ in types_.lineage(name)}
        declared = cls.__dict__.get("__annotations__", {})
        for f in dataclasses.fields(cls):
            if f.name in declared and not any(
                    receiver in related if name == "*" else (
                        name == f.name
                        and (receiver is None or receiver in related))
                    for receiver, name in found):
                unread.append(f"{cls.__name__}.{f.name}")
    assert unread == []


# ----------------------------------------------------------------------
# Every runtime field is set outside the tests
# ----------------------------------------------------------------------
#: Inputs that name the hosts of the network at hand; the default fits
#: every shipped topology, and a caller with other hosts sets them.
_HOST_INPUTS = {"WorkloadConfig.hosts", "GraphXConfig.master",
                "MemcacheConfig.clients"}
#: Records built from positional arguments, which the keyword scan
#: cannot see.
_POSITIONAL = {"LinkSpec"}


def _sets() -> tuple[_Types, set[tuple[Optional[str], str]]]:
    """(class or None, keyword) of every call in ``src``, ``bench`` and
    ``examples``: the class constructed, or given to ``replace``, and
    None for a function or an unresolved receiver."""
    root = Path(__file__).resolve().parents[1]
    trees = _trees(Path(repro.__file__).parent, root / "bench",
                   root / "examples")
    types_ = _Types(trees)
    found: set[tuple[Optional[str], str]] = set()
    for child, env, _ in _walk(trees, types_):
        if not isinstance(child, ast.Call):
            continue
        called = getattr(child.func, "id", getattr(child.func, "attr", None))
        if called == "replace" and child.args:
            owner = types_.of(child.args[0], env)
        elif called in types_.bases:
            owner = called
        else:
            owner = None
        found.update((owner, kw.arg) for kw in child.keywords if kw.arg)
    return types_, found


def test_every_runtime_field_is_set_outside_tests():
    """A runtime config field that only tests set has one value in use,
    and is a module constant beside its reader; a test that needs
    another value patches the constant.  Experiment configs (every
    registered ``config_cls``, ``Table1Config`` too, which has no seed
    and so no ``ExperimentConfig`` base), ``Spec`` family members and
    compile contexts hold user inputs and the paper's parameters, and
    are left out.

    A keyword passed to a function, or to ``replace`` on a receiver the
    typing does not resolve, counts for every class with a field of its
    name (``deploy(net, **fields)`` forwards to ``DeploymentConfig``),
    so a name shared with a field set elsewhere (``seed``) can hide an
    unset one."""
    types_, found = _sets()
    unset = set()
    for cls in CLASSES:
        if (issubclass(cls, (ExperimentConfig, Spec, Window))
                or cls in _experiments() or cls.__name__ in _POSITIONAL):
            continue
        declared = cls.__dict__.get("__annotations__", {})
        for f in dataclasses.fields(cls):
            if f.name in declared and f.init and not any(
                    name == f.name and (
                        owner is None or cls.__name__ in types_.lineage(owner))
                    for owner, name in found):
                unset.add(f"{cls.__name__}.{f.name}")
    only_tests = sorted(unset - _HOST_INPUTS)
    assert not only_tests, f"set by no caller outside the tests: {only_tests}"


# ----------------------------------------------------------------------
# Every definition has a caller outside the tests
# ----------------------------------------------------------------------
#: Definitions no workload reads, kept because a golden or a
#: differential reads them as its observation; each names that test.
_ORACLES = {
    "_EgressQueue.bytes_sent":
        "GOLDEN_STATE_SHA256, tests/integration/test_golden_trace.py",
    "_EgressQueue.depth_bytes":
        "the fused-hop differential, tests/sim/test_fused_hop.py",
    "_EgressQueue.packets_sent":
        "GOLDEN_STATE_SHA256, tests/integration/test_golden_trace.py",
}

_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


def _registered(node: _Def) -> bool:
    """A ``@trial`` function, or a ``Spec`` member with a ``spec_type``:
    the registries call them by their tag, not by their name."""
    if isinstance(node, ast.ClassDef):
        return any(isinstance(item, ast.AnnAssign)
                   and getattr(item.target, "id", None) == "spec_type"
                   and item.value is not None for item in node.body)
    return any(isinstance(deco, ast.Call)
               and getattr(deco.func, "id", None) == "trial"
               for deco in node.decorator_list)


def _loaded(node: ast.AST) -> Optional[str]:
    """The name ``node`` loads: a name or an attribute (an augmented
    assignment reads its target first), a keyword, or a string that is
    an identifier (``getattr``, string annotations)."""
    if isinstance(node, ast.AugAssign):
        node = node.target
        return getattr(node, "attr", getattr(node, "id", None))
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return node.id
    if isinstance(node, ast.Attribute) and not isinstance(node.ctx,
                                                          ast.Store):
        return node.attr
    if isinstance(node, ast.keyword):
        return node.arg
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()):
        return node.value
    return None


def test_every_src_def_has_a_caller_outside_tests():
    """A function, method or class only the tests call serves no
    workload: it is deleted, or the tests keep it as a fixture.  A
    definition is reached when its name is loaded in ``src``, ``bench``,
    ``examples`` or ``benchmarks`` outside its own body, appears in the
    Makefile, or is registered (:func:`_registered`).  Names are matched
    without types, so a definition sharing a name with a reached one
    passes too; ``__all__`` lists and imports are not loads, and dunder
    methods are called by the language."""
    root = Path(__file__).resolve().parents[1]
    loads: dict[str, int] = {}
    own: dict[_Def, int] = {}  # loads of a definition's name in its body
    defs: list[tuple[str, _Def]] = []

    def visit(node: ast.AST, enclosing: tuple[_Def, ...], qual: str,
              where: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__"
                    for target in child.targets)):
                continue
            name = _loaded(child)
            if name:
                loads[name] = loads.get(name, 0) + 1
                for outer in enclosing:
                    if outer.name == name:
                        own[outer] = own.get(outer, 0) + 1
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if where is not None:
                    defs.append((f"{where}:{qual}{child.name}", child))
                visit(child, enclosing + (child,), f"{qual}{child.name}.",
                      where)
            else:
                visit(child, enclosing, qual, where)

    for path, tree in _modules(Path(repro.__file__).parent):
        visit(tree, (), "", str(path.relative_to(root)))
    for _path, tree in _modules(root / "bench", root / "examples",
                                root / "benchmarks"):
        visit(tree, (), "", None)
    makefile = set(re.findall(r"\w+", (root / "Makefile").read_text()))
    unreached = sorted(
        where for where, node in defs
        if loads.get(node.name, 0) <= own.get(node, 0)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in makefile and not _registered(node)
        and where.partition(":")[2] not in _ORACLES)
    assert not unreached, f"called by nothing outside the tests: {unreached}"
