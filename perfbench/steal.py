"""Hypervisor steal time of the machine, read from ``/proc/stat``.

On a shared virtual machine the hypervisor takes the virtual CPUs away
from the guest for part of the time they want to run; Linux counts that
time as ``steal``.  It comes and goes over minutes with other tenants'
load and stretches every wall time of a run alike, so it moves medians
between runs far more than rydphon's own variation does.  A wall time
times the unstolen share of the CPU time asked for during it -- busy /
(busy + steal) -- is the wall time it would have taken without steal.
Process CPU time excludes steal already.  Where ``/proc/stat`` is
missing the share is 1.
"""

from __future__ import annotations


def counters() -> tuple:
    """(busy, stolen) clock ticks of all CPUs since boot."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    return user + nice + system + irq + softirq, steal


def unstolen_share(before: tuple, after: tuple) -> float:
    """Share of the CPU time asked for between two ``counters()`` readings
    that the guest got."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return busy / (busy + stolen) if busy + stolen > 0 else 1.0
