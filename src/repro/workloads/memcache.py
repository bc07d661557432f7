"""memcache-shaped traffic: closed-loop multi-get fan-out.

The paper runs memcached under mc-crusher's 50-key multi-get load (§8).
Each client request fans out a multi-get; the addressed servers answer
with small values immediately.  The resulting traffic is:

* **small packets** — requests of ~100 B, responses of a few hundred
  bytes;
* **smooth and dense** — the closed loop keeps a steady request stream,
  so port loads are very even and vary only at microsecond scale
  (Figure 12c's x-axis is µs where Hadoop's is ms);
* **fan-in** — many servers answer one client (mild incast).

The client rotates multi-gets across key ranges spread over the server
pool; each request/response pair is a distinct 5-tuple so the ECMP hash
sees high flow diversity (which is why ECMP balances memcache almost as
well as flowlets in Figure 12c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import US, check_minimums
from repro.workloads.base import Workload, WorkloadConfig

#: Size of one multi-get request packet.
REQUEST_SIZE_BYTES = 120
#: Server-side lookup time before the response leaves.
SERVER_THINK_NS = 2 * US


@dataclass
class MemcacheConfig(WorkloadConfig):
    #: Hosts acting as clients; remaining participants are servers.
    clients: Optional[list[str]] = None
    #: Keys per multi-get (mc-crusher's default workload uses 50).
    keys_per_multiget: int = 50
    #: Mean gap between multi-gets per client (closed-ish loop).
    mean_request_gap_ns: int = 40 * US
    value_size_bytes: int = 400

    def __post_init__(self) -> None:
        super().__post_init__()
        # Each server emits its share of a multi-get's responses, one per
        # ten keys, in one event, ~300 bytes each: 2**25 keys hold ~1 GB.
        check_minimums(self, {
            "keys_per_multiget": (1, 1 << 25), "mean_request_gap_ns": 1,
            "value_size_bytes": 1})


class MemcacheWorkload(Workload):
    """Multi-get request/response traffic."""

    def __init__(self, network, config: Optional[MemcacheConfig] = None) -> None:
        super().__init__(network, config or MemcacheConfig())
        self.config: MemcacheConfig
        self.requests_sent = 0

    @property
    def clients(self) -> list[str]:
        if self.config.clients is not None:
            return list(self.config.clients)
        return self.hosts[:1]  # first host drives the load by default

    @property
    def servers(self) -> list[str]:
        clients = set(self.clients)
        return [h for h in self.hosts if h not in clients]

    def _begin(self) -> None:
        servers = self.servers
        if not servers:
            raise ValueError("memcache workload needs at least one server")
        for client in self.clients:
            self.sim.schedule(self.exp_delay(self.config.mean_request_gap_ns),
                              self._multiget, client)

    def _multiget(self, client: str) -> None:
        if not self.active:
            return
        self.requests_sent += 1
        servers = self.servers
        # Keys hash uniformly over the pool: each server owns a share of
        # the multi-get, answering with one response packet per few keys.
        keys_per_server = max(1, self.config.keys_per_multiget // len(servers))
        for server in servers:
            sport = self.next_sport()
            self.emit(client, server, sport=sport, dport=11211,
                      size_bytes=REQUEST_SIZE_BYTES)
            # Response: value payloads, sent after a tiny lookup delay.
            responses = max(1, keys_per_server // 10)
            self.sim.schedule(SERVER_THINK_NS,
                              self._respond, server, client, sport, responses)
        self.sim.schedule(self.exp_delay(self.config.mean_request_gap_ns),
                          self._multiget, client)

    def _respond(self, server: str, client: str, sport: int, responses: int) -> None:
        if not self.active:
            return
        for seq in range(responses):
            self.emit(server, client, sport=11211, dport=sport,
                      size_bytes=self.config.value_size_bytes, seq=seq)
