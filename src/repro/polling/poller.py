"""Sequential per-port counter polling.

Model (matching §2.1 and §8.1 of the paper):

* the observer issues one read request per (switch, port, direction,
  counter) target over the management plane;
* at the switch, a control-plane agent performs the register read, which
  costs :attr:`PollingConfig.per_read_ns` of CPU/driver time ("without
  driver-level modifications, polling a single counter on a modern switch
  typically takes on the order of 1 ms");
* reads of targets on the *same* switch are serialised behind one another
  (one control-plane agent); different switches poll in parallel if
  :attr:`PollingConfig.parallel_across_switches` is set, as in the
  paper's testbed with its four independent virtual control planes.

Each sample records the counter value *at the instant the read executed*
— the smear of those instants across a round is precisely the
asynchronicity that makes polling misleading for whole-network questions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Optional

from repro.sim.engine import US, check_minimums
from repro.sim.network import Network
from repro.sim.switch import unit_key

#: Jitter on each register read's duration (uniform, ±).
READ_JITTER_NS = 40 * US


@dataclass(frozen=True)
class PollTarget:
    """One counter to poll."""

    switch: str
    port: int
    direction: str
    counter: str

    def __str__(self) -> str:
        return f"{unit_key(self.switch, self.port, self.direction)}:{self.counter}"


@dataclass
class PollSample:
    """The result of one register read."""

    target: PollTarget
    value: int
    read_ns: int  # true simulation time at which the read executed


@dataclass
class PollRound:
    """One sweep over all targets."""

    index: int
    samples: list[PollSample] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return bool(self.samples)

    @property
    def spread_ns(self) -> int:
        """Time between the first and last read of the round — the
        "synchronization" of polling in Figure 9's terms."""
        if not self.samples:
            return 0
        times = [s.read_ns for s in self.samples]
        return max(times) - min(times)

    def value_of(self, target: PollTarget) -> int:
        for sample in self.samples:
            if sample.target == target:
                return sample.value
        raise KeyError(f"no sample for {target}")


@dataclass
class PollingConfig:
    """Latency model of the polling framework."""

    #: Control-plane cost of one register read (Thrift + driver).  The
    #: default reproduces the testbed's ~2.6 ms round spread over 4
    #: switches polled in parallel, ~8 units each.
    per_read_ns: int = 350 * US
    #: Whether distinct switches poll concurrently (one CP agent each).
    parallel_across_switches: bool = True
    seed: int = 7

    def __post_init__(self) -> None:
        check_minimums(self, {"per_read_ns": 0})


class PollingObserver:
    """Drives polling campaigns over a set of targets."""

    def __init__(self, network: Network, targets: list[PollTarget],
                 config: Optional[PollingConfig] = None) -> None:
        if not targets:
            raise ValueError("need at least one poll target")
        self.network = network
        self.targets = list(targets)
        self.config = config or PollingConfig()
        self.rng = random.Random(self.config.seed)
        self.rounds: list[PollRound] = []
        self._campaign_remaining = 0
        for target in self.targets:
            unit = self._unit(target)
            if target.counter not in unit.counters:
                raise ValueError(f"{target} has no counter {target.counter!r}")

    def _unit(self, target: PollTarget):
        return self.network.switch(target.switch).unit(target.port, target.direction)

    def _read_duration_ns(self) -> int:
        jitter = self.rng.randint(-READ_JITTER_NS, READ_JITTER_NS)
        return max(1, self.config.per_read_ns + jitter)

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------
    def poll_round(self, done: Optional[Callable[[PollRound], None]] = None) -> PollRound:
        """Start one polling sweep; returns the (initially empty) round.

        The round fills in as simulation time advances; ``done`` fires
        when the last read completes.
        """
        round_ = PollRound(index=len(self.rounds))
        self.rounds.append(round_)

        by_switch: dict[str, list[PollTarget]] = {}
        for target in self.targets:
            by_switch.setdefault(target.switch, []).append(target)

        pending = {"switches": len(by_switch)}

        def chain_done() -> None:
            pending["switches"] -= 1
            if pending["switches"] == 0 and done is not None:
                done(round_)

        sim = self.network.sim
        mgmt = self.network.mgmt
        chains = list(by_switch.values())
        if not self.config.parallel_across_switches:
            # One flat chain across everything.
            chains = [[t for chain in chains for t in chain]]
            pending["switches"] = 1

        for chain in chains:
            def start_chain(chain=chain) -> None:
                self._poll_chain(chain, 0, round_, chain_done)
            # Request reaches the switch agent over the management plane.
            mgmt.send(start_chain)
        return round_

    def _poll_chain(self, chain: list[PollTarget], index: int,
                    round_: PollRound, chain_done: Callable[[], None]) -> None:
        if index >= len(chain):
            chain_done()
            return
        target = chain[index]

        def finish_read() -> None:
            # Value is sampled *now*, when the driver read completes.
            value = self._unit(target).read_counter(target.counter)
            round_.samples.append(PollSample(target, value, self.network.sim.now))
            self._poll_chain(chain, index + 1, round_, chain_done)

        self.network.sim.schedule(self._read_duration_ns(), finish_read)

    # ------------------------------------------------------------------
    # Campaigns
    # ------------------------------------------------------------------
    def run_campaign(self, num_rounds: int, interval_ns: int) -> None:
        """Schedule ``num_rounds`` rounds, ``interval_ns`` apart.

        Results accumulate in :attr:`rounds`; run the simulator to
        completion (or past the campaign end) to fill them.
        """
        if num_rounds < 1:
            raise ValueError("num_rounds must be positive")
        self._campaign_remaining = num_rounds
        for i in range(num_rounds):
            self.network.sim.schedule(i * interval_ns, self._campaign_tick)

    def _campaign_tick(self) -> None:
        self.poll_round(done=lambda _r: None)
        self._campaign_remaining -= 1

    @property
    def complete_rounds(self) -> list[PollRound]:
        """Rounds in which every target produced a sample."""
        want = len(self.targets)
        return [r for r in self.rounds if len(r.samples) == want]
