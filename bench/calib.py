"""Fixed big-integer workload, timed to track host-speed drift.

On a shared 2-vCPU virtual machine the host's speed was seen to change by
up to a third over seconds to minutes.  The loop below does fixed work of
the same kind as the program (a convolution table of big integers and rank
walks over it, from the benchmark's own ``oracle``), so its time moves with
the host's speed and not with the program.  The worker times it between
consecutive ops.
"""

from __future__ import annotations

import time

from oracle import Tower

_WORD = tuple((7 * i) % 5 for i in range(70))


def calibrate() -> float:
    t0 = time.perf_counter()
    tower = Tower((1, 1, 3), 70)
    for _ in range(3):
        tower.rank(_WORD)
    return time.perf_counter() - t0
