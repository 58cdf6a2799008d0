"""repro — Detecting Malicious Routers (PODC 2004), reproduced in Python.

A traffic-validation framework for detecting routers whose data plane has
been compromised, together with the full substrate the paper's evaluation
needs: a discrete-event packet network simulator, cryptographic tooling,
distributed-systems primitives, the prior-work baselines, and a benchmark
harness regenerating every table and figure.

Package map
-----------
``repro.net``        network simulator (routers, queues, routing, TCP,
                     adversaries)
``repro.crypto``     fingerprints, keys, signatures, hash chains
``repro.dist``       clocks/rounds, robust flooding, signed consensus,
                     set reconciliation
``repro.core``       the paper's contribution: traffic summaries, TV
                     predicates, the failure-detector spec, protocols Π2 /
                     Πk+2 / χ, Fatih, the §2.3 replica detector
``repro.baselines``  the Ch. 3 protocols the evaluation compares against:
                     WATCHERS, PERLMAN, SecTrace, AWERBUCH, ZHANG
``repro.eval``       metrics, scenario specs, the paper's experiments

Quick start: see ``examples/quickstart.py`` or run
``python -m repro run fig5_7`` for the Fatih timeline.
"""

__version__ = "1.0.0"

__all__ = ["net", "crypto", "dist", "core", "baselines", "eval",
           "__version__"]
