"""A fixed piece of CPU work that measures the machine's speed during a run.

On the 2-vCPU Intel Xeon VM where the benchmark was defined, load from
outside the VM slows everything for seconds to minutes at a time, by up to
×1.8 over a whole run.  The benchmark times this unit between set-ups and
between operations, all through the run, and scales each timed interval by
the reference time of the unit over its median time around that interval.
The unit is pure-Python dictionary counting, like the program's scans, and
shares no code with afsub, so a change to the program cannot change it.
"""

from __future__ import annotations

from time import perf_counter

_WORD = [(i * 7919 + i // 7) % 4 for i in range(400)]


def unit() -> float:
    """Run the unit once (about 1 ms) and return its wall time in seconds."""
    start = perf_counter()
    for i in range(0, len(_WORD) - 1, 8):
        counts: dict[int, int] = {}
        for j in range(i, len(_WORD)):
            sym = _WORD[j]
            counts[sym] = counts.get(sym, 0) + 1
    return perf_counter() - start
