#!/usr/bin/env python3
"""The ideal detector and why it is impractical (§2.3, Fig 2.1).

A replica r′ shadows router r: same inputs, recompute the outputs,
compare.  Three acts:

1. a correct router under congestion — the replica predicts every benign
   drop, zero discrepancies;
2. a compromised router — every class of tampering surfaces immediately;
3. the nondeterminism trap: a RED queue rolls dice.  Give the replica the
   router's RNG seed and it is exact; withhold it and a *correct* router
   drowns in false alarms — the paper's argument for traffic validation
   over active replication.

Run:  python examples/active_replication.py
"""

import random

from repro.core import ReplicaDetector
from repro.net import (
    DropTailQueue,
    MBPS,
    ModifyAttack,
    Network,
    PoissonSource,
    REDParams,
    REDQueue,
    Topology,
    install_static_routes,
)


def bottleneck_net(red=False, red_seed=42):
    topo = Topology("replica-demo")
    topo.add_link("s", "r", bandwidth=20 * MBPS, delay=0.001)
    topo.add_link("r", "d", bandwidth=1 * MBPS, delay=0.001,
                  queue_limit=20_000)
    params = REDParams(min_th=4_000, max_th=12_000, max_p=0.2,
                       weight=0.02, byte_mode=False)

    def qf(link):
        if red and link.src == "r" and link.dst == "d":
            return REDQueue(link.queue_limit, params=params,
                            rng=random.Random(red_seed))
        return DropTailQueue(link.queue_limit)

    net = Network(topo, queue_factory=qf)
    install_static_routes(net)
    return net


def main() -> None:
    # Act 1: honest router, real congestion.
    net = bottleneck_net()
    detector = ReplicaDetector(net, "r")
    net.add_tap(detector)
    PoissonSource(net, "s", "d", "f", rate_pps=200, duration=3.0, seed=1)
    net.run(6.0)
    drops = net.routers["r"].interfaces["d"].queue.drops
    print(f"act 1 — honest router: {drops} congestive drops, "
          f"{len(detector.compare())} discrepancies (all predicted)")

    # Act 2: a payload modifier.
    net = bottleneck_net()
    detector = ReplicaDetector(net, "r")
    net.add_tap(detector)
    net.routers["r"].compromise = ModifyAttack(fraction=0.2, seed=2)
    PoissonSource(net, "s", "d", "f", rate_pps=100, duration=3.0, seed=1)
    net.run(6.0)
    kinds = sorted({d.kind for d in detector.compare()})
    print(f"act 2 — modifier: {len(detector.compare())} discrepancies "
          f"({', '.join(kinds)})")

    # Act 3: RED nondeterminism.
    for shared in (True, False):
        net = bottleneck_net(red=True, red_seed=42)
        seeds = {("r", "d"): 42} if shared else None
        detector = ReplicaDetector(net, "r", red_seeds=seeds)
        net.add_tap(detector)
        PoissonSource(net, "s", "d", "f", rate_pps=160, duration=5.0,
                      seed=9)
        net.run(8.0)
        label = "shared RNG" if shared else "divergent RNG"
        print(f"act 3 — correct router, RED, {label}: "
              f"{len(detector.compare())} discrepancies")
    print("\nsame inputs, same router — the only difference is whether the")
    print("replica shares the randomization source (§2.3).")


if __name__ == "__main__":
    main()
