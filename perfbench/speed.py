"""Speed of the machine, from a fixed unit of work timed between operations.

The 2-core VM the benchmark runs on shares its physical cores with other
tenants.  Over minutes the same ``tables_large`` pass takes anywhere from
about 3.5 s to 6.5 s of CPU time with no steal at all (a busy hyperthread sibling or a
lower clock does this), so medians of runs made minutes apart differ by
more than any bound worth setting.  The code does not change while it
drifts, so a fixed unit of work of the same kind as rydphon's slows down
with it: CSV and JSON text formatting, a batch of small Hermitian
``eigh`` calls and a Python loop over small matrices, as the CLI tables,
``band_structure`` and ``track_bands`` do.

After every operation a ``Probe`` runs units until their CPU time is
``SHARE`` of the operation's wall time, so it samples the machine in the
same moments and in proportion.  A pass's speed factor is the mean
unit time of its samples over ``UNIT_NOMINAL_S``; a time divided by it is
the time the pass would have taken at the machine's usual speed.  The
units are timed with the thread's own CPU clock, which neither steal nor
the program's other threads touch.  The probe runs on one thread, so it
follows single-threaded work only: a workload that keeps both CPUs busy
with its own threads does not speed up when the probe does.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Mean unit time on the 2-core x86-64 VM the baseline was recorded on,
# in its usual state (seconds).  It only sets the scale of the normalised
# times; spreads and ratios between runs do not depend on it.
UNIT_NOMINAL_S = 0.033
# Probe CPU time per second of operation wall time.
SHARE = 0.2
_SEED = 20220823


class Probe:
    """Fixed units of work, and the CPU times of those run since ``take``."""

    def __init__(self):
        rng = np.random.default_rng(_SEED)
        self._rows = rng.standard_normal((2000, 6)).tolist()
        self._doc = {"values": rng.standard_normal(2500).tolist()}
        m = rng.standard_normal((384, 6, 6)) + 1j * rng.standard_normal((384, 6, 6))
        self._h = m + m.conj().transpose(0, 2, 1)
        self._samples = []

    def unit(self) -> float:
        """Run one unit; return and keep its CPU time in seconds."""
        t0 = time.thread_time()
        "\n".join(",".join(repr(x) for x in row) for row in self._rows)
        json.dumps(self._doc, indent=1)
        _, vectors = np.linalg.eigh(self._h)
        prev = vectors[0]
        for vec in vectors[1:]:
            overlaps = np.abs(prev.conj().T @ vec).tolist()
            [row.index(max(row)) for row in overlaps]
            prev = vec
        elapsed = time.thread_time() - t0
        self._samples.append(elapsed)
        return elapsed

    def follow(self, busy_s: float) -> None:
        """Run units until their CPU time reaches ``SHARE`` of ``busy_s``
        (at least one)."""
        spent = self.unit()
        while spent < SHARE * busy_s:
            spent += self.unit()

    def take(self) -> list:
        """The unit times since the last call, oldest first."""
        samples, self._samples = self._samples, []
        return samples


def factor(samples) -> float:
    """How much slower than usual the machine ran during ``samples``.

    The mean, not the median: the machine flips between a fast and a slow
    state many times a second, and a pass's time adds up both."""
    return statistics.fmean(samples) / UNIT_NOMINAL_S
