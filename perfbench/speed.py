"""Machine-speed sampling, so job times can be rescaled to a fixed speed.

On shared cloud VMs, CPU speed can drift by up to 2x within a minute
while the VM reports almost no steal time. While a job phase runs,
SIGALRM fires every ``SAMPLE_INTERVAL_S`` of wall time, and the handler
times a small fixed chunk of benchmark-owned work in the same thread. The chunk mixes blake2b,
PCG64 seeding and dict updates, like madd's hot paths, but runs no madd
code, so a change to madd cannot make it faster.

A phase's normalized time is its raw time minus the time spent in
samples, multiplied by the mean relative speed ``NOMINAL_S / chunk``
over the phase's samples. Sampling costs about 3 % of a phase; that time
is removed from the phase before scaling.
"""

from __future__ import annotations

import hashlib
import signal
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.05
CHUNK_ITERATIONS = 60
# a chunk's usual time on the 2-vCPU x86_64 VM the bounds were set on
NOMINAL_S = 0.0015


def reference_chunk() -> float:
    """Seconds this process takes for the fixed chunk of reference work."""
    started = time.perf_counter()
    totals: dict = {}
    for i in range(CHUNK_ITERATIONS):
        key = f"agent_{i % 97}"
        digest = hashlib.blake2b(key.encode(), digest_size=16).digest()
        entropy = [i, int.from_bytes(digest[:4], "little")]
        value = totals.get(key, 0.0)
        value += np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy))).random()
        for j in range(40):
            value += j * 0.5
        totals[key] = value
    return time.perf_counter() - started


class SpeedMeter:
    """Samples speed between ``start`` and ``stop``; one phase at a time.

    With a tracer, sample time is charged to the open span as covered
    child time, so it never counts as any layer's self time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.sampled_s = 0.0
        self.speeds: list[float] = []

    def _sample(self, signum, frame) -> None:
        elapsed = reference_chunk()
        self.sampled_s += elapsed
        self.speeds.append(NOMINAL_S / elapsed)
        if self.tracer is not None:
            self.tracer.exclude(elapsed)

    def start(self) -> None:
        self.sampled_s = 0.0
        self.speeds = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_speed(self) -> float | None:
        return sum(self.speeds) / len(self.speeds) if self.speeds else None
