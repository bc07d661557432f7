"""The one deployment constructor: :func:`repro.core.deploy`.

A deployment is one value, :class:`~repro.core.deployment.DeploymentConfig`
— each field, its default and its doc live there and nowhere else.
:func:`deploy` takes those fields as keywords, wires the deployment, and
is the single place where the optional overlays (recovery policies, the
aggregation fabric, coordinated update plans) compose::

    deployment = deploy(network, metric="packet_count", channel_state=True,
                        recovery=recovery_preset("paper"),
                        aggregation=AggregationConfig(degree=4),
                        updates=plan, update_horizon_ns=100 * MS)

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


def _compile_updates(network: Network, updates: Any,
                     update_horizon_ns: Optional[int],
                     update_seed: int) -> UpdateSchedule:
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


def deploy(target: Union[Network, ShardWorker], *, updates: Any = None,
           update_horizon_ns: Optional[int] = None, update_seed: int = 0,
           **fields: Any) -> SpeedlightDeployment:
    """Wire a Speedlight deployment onto ``target`` in one call.

    ``target`` is a :class:`~repro.sim.network.Network` (single-process)
    or a :class:`~repro.sim.shard.ShardWorker` (space-parallel; wires
    that shard's slice).  ``fields`` are the fields of
    :class:`~repro.core.deployment.DeploymentConfig`; an unknown name is
    a ``TypeError``.

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
    deployment = SpeedlightDeployment(target, DeploymentConfig(**fields))

    if updates is not None:
        from repro.updates.driver import UpdateDriver

        network = deployment.network
        schedule = _compile_updates(network, updates, update_horizon_ns,
                                    update_seed)
        driver = UpdateDriver(network, schedule)
        driver.arm()
        deployment.update_driver = driver
    return deployment
