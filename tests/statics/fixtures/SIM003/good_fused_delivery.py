# statics-fixture-scope: sim
def serve(sim: object, link: object, side: int, delay_ns: int,
          packet: object) -> int:
    # The fused hop: the link's own delivery site is the callback and
    # gets the receiving side, never the receive callable itself.
    return sim.schedule_fast(delay_ns + link.propagation_ns, link._deliver,
                             side, packet)


def inject(sim: object, link: object, at_ns: int, packet: object) -> None:
    sim.inject_at(at_ns, link._deliver, 0, packet)


def wire(port: object, ingress_handler: object) -> None:
    port.rx = ingress_handler
