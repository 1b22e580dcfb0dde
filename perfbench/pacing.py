"""Timing scaled to the host's speed, for a shared and noisy host.

Other tenants of a shared host slow interpreter-bound code by up to about
40% for periods from under a second to minutes, in CPU time as much as in
wall time, so raw times of the same work differ that much between runs.
``probe`` times a fixed pure-Python task that does the kind of work the
hypermatch code does (dict inserts and look-ups of big integers).  A
``Pacer`` runs it between the calls of a timed section, at most every
``PROBE_EVERY_S`` seconds, and scales each stretch of work between two
probes by ``PROBE_REFERENCE_S`` over the mean of the two.  A scaled time
reads as seconds at the speed the reference was taken at, and the probes'
own time is left out of it.
"""

from __future__ import annotations

import time

# Seconds ``probe`` takes on an uncontended core of the 2.1 GHz Xeon (KVM,
# 2 vCPUs) the baseline was recorded on.
PROBE_REFERENCE_S = 0.015
PROBE_EVERY_S = 0.25
PROBE_KEYS = 40_000
PROBE_MASK = (1 << 192) - 1


def probe() -> float:
    """Seconds the fixed reference task takes now."""
    start = time.perf_counter()
    memo = {}
    acc = 1
    for i in range(PROBE_KEYS):
        acc = (acc * 1000003 + i) & PROBE_MASK
        memo[(i * 2654435761) & 0xFFFFFFFF] = acc
    total = 0
    for i in range(PROBE_KEYS):
        total += memo[(i * 2654435761) & 0xFFFFFFFF] & 0xFF
    return time.perf_counter() - start


class Pacer:
    """Raw and scaled work time of a section, with probes taken inside it.

    ``begin`` starts a section, ``tick`` (after each call into the program)
    probes if the last probe is ``PROBE_EVERY_S`` old, and ``end`` probes
    once more and closes the section; ``raw_s`` and ``scaled_s`` are then its
    work time, probes excluded, and ``probes`` the probe times taken.
    """

    def __init__(self):
        self.last = probe()
        self.probe_total_s = 0.0  # all probe time so far, for callers timing across probes
        self._reset()

    def _reset(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.probes = [self.last]
        self.mark = time.perf_counter()

    def begin(self) -> None:
        self._reset()

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        work = now - self.mark
        if work < PROBE_EVERY_S and not force:
            return
        p = probe()
        self.raw_s += work
        self.scaled_s += work * 2 * PROBE_REFERENCE_S / (self.last + p)
        self.probes.append(p)
        self.last = p
        self.mark = time.perf_counter()
        self.probe_total_s += self.mark - now

    def end(self) -> None:
        self.tick(force=True)
