#!/usr/bin/env python3
"""Use case: localizing a lossy link from one snapshot.

Classically, finding a silently lossy link needs network tomography:
statistics over many end-to-end paths, solved as an inference problem
(§2.1: "a total path-level drop count in combination with network
tomography to pinpoint lossy components").  With causally consistent
snapshots of packet counts *with channel state*, the problem becomes
arithmetic: for each link, the sender's count (plus in-flight credits)
minus the receiver's count is exactly that link's loss so far — no
inference, no long averaging window.

The script degrades one fabric link, runs traffic, takes channel-state
snapshots, and lets :class:`repro.analysis.LinkAudit` point at the
culprit.

Run:  python examples/loss_localization.py
"""

from repro.analysis import LinkAudit
from repro.core import ControlPlaneConfig, deploy
from repro.sim.channel import BernoulliLoss, NoLoss
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

BAD_LINK = ("leaf0", "spine1")  # the silently lossy cable
LOSS_RATE = 0.02


def main() -> None:
    def loss_factory(spec, rng):
        if {spec.a, spec.b} == set(BAD_LINK):
            return BernoulliLoss(LOSS_RATE, rng)
        return NoLoss()

    net = Network(leaf_spine(hosts_per_leaf=1),
                  NetworkConfig(seed=17, loss_factory=loss_factory))
    wl = PoissonWorkload(net, PoissonConfig(
        rate_pps=40_000, stop_ns=1 * S, sport_churn=True))
    wl.start()
    deployment = deploy(
        net, metric="packet_count", channel_state=True,
        control_plane=ControlPlaneConfig(probe_delay_ns=2 * MS))
    epochs = deployment.schedule_campaign(count=6, interval_ns=30 * MS)
    net.run(until=1 * S)

    snaps = deployment.observer.completed_snapshots(require_consistent=True)
    print(f"{len(snaps)} consistent snapshots collected; auditing links "
          "from the last one…\n")
    audit = LinkAudit(net)
    reports = audit.audit(snaps[-1])
    print(f"{'link':<22} {'sent':>8} {'received':>9} {'lost':>6} {'rate':>7}")
    worst = None
    for report in sorted(reports, key=lambda r: -r.discrepancy):
        name = f"{report.sender.device}->{report.receiver.device}"
        rate = report.discrepancy / report.sent if report.sent else 0.0
        print(f"{name:<22} {report.sent:>8} {report.received:>9} "
              f"{report.discrepancy:>6} {rate:>6.2%}")
        if worst is None:
            worst = (name, rate)

    print(f"\nculprit: {worst[0]} at {worst[1]:.2%} "
          f"(injected: {'-'.join(BAD_LINK)} at {LOSS_RATE:.0%})")
    print("one consistent cut replaces a tomography campaign: the "
          "discrepancy column *is* the per-link loss.")
    assert audit.violations(snaps[-1]) == []


if __name__ == "__main__":
    main()
