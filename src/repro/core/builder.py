"""The one deployment constructor: :func:`repro.core.deploy`.

A deployment is one value, :class:`~repro.core.deployment.DeploymentConfig`
— each field, its default and its doc live there and nowhere else.
:func:`deploy` takes those fields as keywords, wires the deployment, and
is the single place where the optional overlays (the aggregation
fabric, a compiled routing-update schedule) compose; a recovery policy
is applied by passing the two configs it builds::

    schedule = plan.compile(UpdateContext.for_topology(
        network.topology, horizon_ns=100 * MS))
    policy = RECOVERY_PRESETS["eager"]
    deployment = deploy(network, metric="packet_count", channel_state=True,
                        control_plane=policy.control_plane_config(),
                        observer=policy.observer_config(),
                        aggregation=AggregationConfig(degree=4),
                        updates=schedule)

Passing a :class:`~repro.sim.shard.ShardWorker` instead of a
:class:`~repro.sim.network.Network` wires that shard's slice — same
call, same surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Union

from repro.core.deployment import DeploymentConfig, SpeedlightDeployment
from repro.sim.network import Network
from repro.sim.shard import ShardWorker

if TYPE_CHECKING:
    from repro.updates.plan import UpdateSchedule

__all__ = ["deploy"]


def deploy(target: Union[Network, ShardWorker], *,
           updates: Optional[UpdateSchedule] = None,
           **fields: Any) -> SpeedlightDeployment:
    """Wire a Speedlight deployment onto ``target`` in one call.

    ``target`` is a :class:`~repro.sim.network.Network` (single-process)
    or a :class:`~repro.sim.shard.ShardWorker` (space-parallel; wires
    that shard's slice).  ``fields`` are the fields of
    :class:`~repro.core.deployment.DeploymentConfig`; an unknown name is
    a ``TypeError``.

    ``updates`` is a compiled :class:`~repro.updates.plan.UpdateSchedule`
    (``plan.compile(UpdateContext.for_topology(...))``), armed through an
    :class:`~repro.updates.driver.UpdateDriver` exposed as
    ``deployment.update_driver`` — with no schedule the driver is absent
    and the event stream stays bit-identical.  A shard takes the whole
    schedule; its driver arms the commands of the devices it owns.
    """
    deployment = SpeedlightDeployment(target, DeploymentConfig(**fields))
    if updates is not None:
        from repro.updates.driver import UpdateDriver
        from repro.updates.plan import UpdateSchedule

        if not isinstance(updates, UpdateSchedule):
            raise TypeError(
                f"deploy(updates=) takes a compiled UpdateSchedule, got "
                f"{type(updates).__name__}; compile a plan with "
                "plan.compile(UpdateContext.for_topology(...))")
        driver = UpdateDriver(deployment.network, updates)
        driver.arm()
        deployment.update_driver = driver
    return deployment
