"""One-call deployment builder: :func:`repro.core.deploy`.

Every experiment used to spell out the same two lines::

    deployment = SpeedlightDeployment(
        network, DeploymentConfig(metric="packet_count", channel_state=True))

:func:`deploy` collapses that boilerplate — and is the single place
where the optional overlays (recovery policies, the aggregation fabric,
coordinated update plans) compose::

    deployment = deploy(network, metric="packet_count", channel_state=True,
                        recovery=recovery_preset("paper"),
                        aggregation=AggregationConfig(degree=4),
                        updates=plan, update_horizon_ns=100 * MS)

Passing a :class:`~repro.sim.shard.ShardWorker` instead of a
:class:`~repro.sim.network.Network` wires that shard's slice — same
class, same surface.  The constructor remains the primitive —
``deploy`` is sugar plus update wiring, nothing else — so existing code
keeps working unchanged.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.deployment import DeploymentConfig, SpeedlightDeployment
from repro.sim.network import Network

__all__ = ["deploy"]


def _compile_updates(network: Network, updates: Any,
                     update_horizon_ns: Optional[int],
                     update_seed: int):
    """Normalize the ``updates`` argument into an armed-ready schedule."""
    from repro.updates.plan import UpdateContext, UpdatePlan, UpdateSchedule

    if isinstance(updates, UpdateSchedule):
        return updates
    if not isinstance(updates, UpdatePlan):
        # JSON form (inline dict, e.g. straight off --update-plan).
        updates = UpdatePlan.from_jsonable(updates)
    if update_horizon_ns is None:
        raise ValueError(
            "deploy(updates=<plan>) needs update_horizon_ns to compile "
            "the plan's window (pass a compiled UpdateSchedule to skip "
            "compilation)")
    ctx = UpdateContext.for_topology(network.topology,
                                     horizon_ns=update_horizon_ns,
                                     seed=update_seed)
    return updates.compile(ctx)


def deploy(target, *, metric: str = "packet_count",
           channel_state: bool = False, max_sid: Optional[int] = 255,
           switches: Optional[list] = None, ideal_units: bool = False,
           gate_host_channels: bool = False,
           cos_classes: Optional[list] = None,
           control_plane=None, observer=None, aggregation=None,
           recovery=None, updates=None,
           update_horizon_ns: Optional[int] = None,
           update_seed: int = 0) -> SpeedlightDeployment:
    """Wire a Speedlight deployment onto ``target`` in one call.

    ``target`` is a :class:`~repro.sim.network.Network` (single-process)
    or a :class:`~repro.sim.shard.ShardWorker` (space-parallel; wires
    that shard's slice).  Keyword arguments mirror
    :class:`~repro.core.deployment.DeploymentConfig` field-for-field;
    ``control_plane``/``observer`` default to the config's defaults when
    None.

    ``updates`` accepts an :class:`~repro.updates.plan.UpdatePlan`, its
    JSON form, or a pre-compiled
    :class:`~repro.updates.plan.UpdateSchedule`; plans additionally need
    ``update_horizon_ns`` (the compile window).  The compiled schedule
    is armed through an :class:`~repro.updates.driver.UpdateDriver`
    exposed as ``deployment.update_driver`` — with no plan the driver is
    absent and the event stream stays bit-identical (sharded callers
    pre-slice the schedule with
    :meth:`~repro.updates.plan.UpdateSchedule.restrict` and pass the
    slice).
    """
    config_kwargs: dict[str, Any] = dict(
        metric=metric, channel_state=channel_state, max_sid=max_sid,
        switches=switches, ideal_units=ideal_units,
        gate_host_channels=gate_host_channels, cos_classes=cos_classes,
        aggregation=aggregation, recovery=recovery)
    if control_plane is not None:
        config_kwargs["control_plane"] = control_plane
    if observer is not None:
        config_kwargs["observer"] = observer
    deployment = SpeedlightDeployment(target,
                                      DeploymentConfig(**config_kwargs))

    if updates is not None:
        from repro.updates.driver import UpdateDriver

        network = deployment.network
        schedule = _compile_updates(network, updates, update_horizon_ns,
                                    update_seed)
        driver = UpdateDriver(network, schedule)
        driver.arm()
        deployment.update_driver = driver
    return deployment
