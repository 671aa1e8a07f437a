"""CPU-speed probe for the benchmark's time metrics.

The VM the bounds were set on changes CPU speed by ±20% over seconds to
minutes; process CPU time changes with it.  So every timed unit is
expressed in units of `probe_s()`, a fixed pure-Python loop timed in bursts
between units and, through SIGALRM, every SAMPLE_INTERVAL_S during them,
and scaled back to seconds at PROBE_REF_S.  The probe shares no code with
egrtools.

    python3 perfbench/probe.py

with src/ on PYTHONPATH is the set-up child of run.measure_setup: it
probes, imports egrtools and egrtools.cli, and prints when each step ended.
"""

import signal
import time

PROBE_LOOPS = 30_000
# Typical probe_s() on the reference VM (2 vCPUs, Python 3.11).
PROBE_REF_S = 0.0025
BURST = 4
SAMPLE_INTERVAL_S = 0.1


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def burst() -> list[float]:
    return [probe_s() for _ in range(BURST)]


class Sampler:
    """While entered, times probe_s() from a SIGALRM handler every
    SAMPLE_INTERVAL_S; the durations land in ``samples``.  Main thread only."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        self.samples.append(probe_s())

    def __enter__(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _setup_child() -> None:
    start = time.time()
    probes = burst() + burst()
    probed = time.time()
    import egrtools  # noqa: F401
    import egrtools.cli  # noqa: F401

    imported = time.time()
    import json

    print(json.dumps({"start": start, "probed": probed, "imported": imported, "probes": probes}))


if __name__ == "__main__":
    _setup_child()
