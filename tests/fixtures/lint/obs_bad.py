# repro-lint: module=repro.obs.trace_fixture
"""Clock fixture: no module under repro.obs may read a clock or entropy.

Every read below must fire DET003 — the timestamp clocks, the interval
clocks (perf_counter/monotonic: an elapsed time is as host-dependent as
a timestamp once it reaches a trace) and OS entropy alike.
"""

import os
import time
from datetime import datetime


def stamp() -> float:
    return time.time()  # DET003 (line 15)


def started() -> str:
    return datetime.now().isoformat()  # DET003 (line 19)


def token() -> bytes:
    return os.urandom(8)  # DET003 (line 23)


def stamp_event(rec):
    t0 = time.perf_counter()  # DET003 (line 27)
    rec.event("tick", t=t0)


def stamp_metric(rec):
    elapsed = time.monotonic() - 5.0  # DET003 (line 32)
    rec.metrics.counter("repro.obs.lag").inc(elapsed)
