# statics-fixture-scope: sim
def shortcut(port: object, packet: object) -> None:
    port.rx(packet)


def shortcut_via_link(link: object, side: int, packet: object) -> None:
    link._rx[side](packet)


def arm(sim: object, host: object, delay_ns: int, packet: object) -> None:
    sim.schedule_fast(delay_ns, host.rx, packet)


def arm_at(sim: object, link: object, at_ns: int, packet: object) -> None:
    sim.inject_at(at_ns, link._rx[0], packet)
