"""Literature comparators (Chapter 3).

Faithful (and where the paper says so, faithfully *flawed*) models of the
prior detection protocols the evaluation compares against:

* :mod:`repro.baselines.watchers` — WATCHERS conservation-of-flow
  detection, including the consorting-router flaw of Fig 3.3 and its fix.
* :mod:`repro.baselines.perlman` — route-setup acks with Byzantine
  detection, and the PERLMANd per-hop-ack variant whose colluding-router
  inaccuracy (Fig 3.8) motivated the paper's specification work.
* :mod:`repro.baselines.sectrace` — Secure Traceroute, with the
  attack-after-validation framing scenario of Fig 3.7.
* :mod:`repro.baselines.awerbuch` — binary-search adaptive probing
  (log M rounds to a 2-segment).
* :mod:`repro.baselines.zhang` — ZHANG (§3.12) Poisson-model loss
  thresholds, χ's closest prior.

PERLMAN, SecTrace and AWERBUCH run on the shared abstract
:mod:`repro.baselines.pathmodel` so the comparison benches can sweep
adversaries cheaply.  The other protocols Ch. 3 reviews are not part of
the evaluation and are not modelled here.
"""

from repro.baselines.pathmodel import FaultyNode, PathModel
from repro.baselines.watchers import WatchersProtocol, WatchersReport
from repro.baselines.perlman import perlman_route_setup, perlman_per_hop_acks
from repro.baselines.sectrace import secure_traceroute
from repro.baselines.awerbuch import awerbuch_binary_search
from repro.baselines.zhang import ZhangDetector, mm1k_loss_probability

__all__ = [
    "FaultyNode",
    "PathModel",
    "WatchersProtocol",
    "WatchersReport",
    "perlman_route_setup",
    "perlman_per_hop_acks",
    "secure_traceroute",
    "awerbuch_binary_search",
    "ZhangDetector",
    "mm1k_loss_probability",
]
