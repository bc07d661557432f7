"""Every experiment config field reaches its trials.

A trial gets its config back from its spec in one call
(``spec.config(Cls)``), so a field the specs leave behind would silently
take its default inside the trial (how ``Fig13Config.master`` once never
reached its workload).  For every registered experiment, at its quick
and its default config, each field is set on its own to another valid
value; every spec must then carry exactly that config, each sweep list
narrowed to the spec's own entries.
"""

import dataclasses
from collections.abc import Iterator
from typing import Any

import pytest

from repro.experiments import registry

#: The other valid value of a field no arithmetic reaches: a name, or an
#: optional field that is None by default.
_OTHER: dict[str, Any] = {
    "starved_switch": "leaf0",
    "agg_degree": 2,
    "deploy_switches": ["leaf0", "leaf1"],
    "fault_switches": ["spine0"],
    "profile": {"type": "independent", "intensity": 0.25,
                "kinds": ["link_delay"]},
    "plan": {"type": "timed_swap", "at_ns": 20_000_000,
             "routes": [["leaf0", "server1", ["spine1"]]]},
}

#: A new entry for each sweep list, the first one not already in it.
_ADDED: dict[str, tuple[Any, ...]] = {
    "port_counts": (8, 12),
    "arities": (6, 10),
    "router_counts": (20, 50),
    "rates_pps": (50_000.0, 150_000.0),
    "clock_error_ns": (1_000, 3_000),
    "degrees": (3, 6),
    "service_costs_ns": (330_000, 660_000),
    "residual_sigmas_ns": (50_000, 70_000),
    "intensities": (0.75, 0.3),
}

EXPERIMENTS = list(registry())


def _candidates(name: str, value: Any) -> Iterator[Any]:
    """Other values for field ``name``, most likely valid first."""
    if name in _OTHER:
        yield _OTHER[name]
    if isinstance(value, bool):
        yield not value
    elif isinstance(value, int):
        yield from (value + 2, value - 2, value + 1, value - 1)
    elif isinstance(value, float):
        yield from (value * 2, value / 2)
    elif isinstance(value, (list, tuple)) and value:
        if len(value) > 1:
            yield value[::-1]
            yield value[1:]
        for other in _candidates(name, value[0]):
            yield type(value)([other, *value[1:]])
    elif isinstance(value, dict) and len(value) > 1:
        yield dict(list(value.items())[1:])
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            for other in _candidates(f.name, getattr(value, f.name)):
                yield dataclasses.replace(value, **{f.name: other})


def _perturbed(exp, config: Any, name: str) -> tuple[Any, list]:
    """``config`` with field ``name`` at another valid value, and its
    specs."""
    current = getattr(config, name)
    for value in _candidates(name, current):
        if value == current:
            continue
        try:
            other = dataclasses.replace(config, **{name: value})
            return other, exp.specs(other)
        except (ValueError, TypeError):
            continue
    raise AssertionError(f"no other valid value for "
                         f"{type(config).__name__}.{name}: add one to _OTHER")


def _narrowed(got: Any, full: Any) -> bool:
    """``got`` is one entry of the sweep ``full``."""
    if isinstance(full, dict):
        return len(got) == 1 and all(full.get(k) == v for k, v in got.items())
    return (isinstance(full, (list, tuple)) and type(got) is type(full)
            and len(got) == 1 and got[0] in full)


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "default"])
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_config_field_reaches_every_trial(name, quick):
    exp = registry()[name]
    config = exp.config(quick=quick)
    for field in dataclasses.fields(config):
        perturbed, specs = _perturbed(exp, config, field.name)
        assert specs
        for spec in specs:
            got = spec.config(exp.config_cls)
            for f in dataclasses.fields(got):
                mine, full = getattr(got, f.name), getattr(perturbed, f.name)
                assert mine == full or _narrowed(mine, full), (
                    f"{spec.describe()} with {field.name} perturbed: "
                    f"{f.name} is {mine!r}, the config has {full!r}")


def _sweeps() -> list[tuple[str, str]]:
    return [(name, field) for name in EXPERIMENTS for field in _ADDED
            if field in {f.name for f in
                         dataclasses.fields(registry()[name].config_cls)}]


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "default"])
@pytest.mark.parametrize("name, field", _sweeps())
def test_a_new_sweep_entry_leaves_the_other_fingerprints(name, field, quick):
    """Each trial carries only its own sweep entry, so one more entry
    adds trials and moves no cached one."""
    exp = registry()[name]
    config = exp.config(quick=quick)
    sweep = getattr(config, field)
    added = next(value for value in _ADDED[field] if value not in sweep)
    before = {spec.fingerprint() for spec in exp.specs(config)}
    after = {spec.fingerprint() for spec in exp.specs(
        dataclasses.replace(config, **{field: [*sweep, added]}))}
    assert before < after
