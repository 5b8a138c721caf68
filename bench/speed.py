"""Speed probe, so that times are reported at a nominal machine speed.

On the shared VM the benchmark was built on (2 vCPUs, Intel Xeon), the
host's speed drifted by up to half for minutes at a time and by about 15%
within seconds: far more than a longer run averages out.  The probe is a
fixed integer loop that allocates nothing the garbage collector tracks; a
pass took about 1.5 ms there.

* Ops: between ops, outside their timing, the child probes at least every
  PROBE_EVERY_S and scales each op's latency by NOMINAL_PROBE_S / (median
  of the PROBE_NEIGHBOURS probes nearest in time).
* Set-up: the child probes SETUP_PROBES times when it starts, before any
  import, and reports the median and the time spent; run.py subtracts
  that time from set-up and scales the rest the same way.

Raw values are reported next to the scaled ones.
"""

import sys
import time

PROBE_ITERATIONS = 20000
PROBE_EVERY_S = 0.2
PROBE_NEIGHBOURS = 9
NOMINAL_PROBE_S = 0.001
SETUP_PROBES = 3


def probe() -> float:
    """Duration of the fixed integer loop: the machine's current speed."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise RuntimeError("a trace or profile hook would slow the speed probe")
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


