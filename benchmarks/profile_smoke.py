"""CI profile-smoke: the kernel hot paths must stay instrumented.

Runs one small pipelined instance on the reference backend under an
active :class:`~repro.obs.ProfileSession` and asserts that every timer
in :data:`repro.obs.KERNEL_TIMERS` recorded samples.  The node-state
kernels serve the per-message paths; the default engine's bulk kernel
reads the key columns directly and records only its round timer.  The HOT-timer pattern
fails *open* -- uninstrumented code runs fine, it just stops reporting --
so without this gate a kernel refactor could silently drop the timers
and PERFORMANCE.md's breakdowns would quietly go stale.  Exits non-zero
(naming the missing timers) if any expected name is absent.

Run:  PYTHONPATH=src python benchmarks/profile_smoke.py
"""

import sys

from repro.core import run_hk_ssp
from repro.graphs import path_graph
from repro.obs import KERNEL_TIMERS, ProfileSession


def main() -> int:
    g = path_graph(48, w=3)
    with ProfileSession() as prof:
        res = run_hk_ssp(g, [0, 16, 32], 47, backend="reference")
    assert res.metrics.rounds > 0
    print(prof.report())
    names = set(prof.timers)
    missing = [t for t in KERNEL_TIMERS if t not in names]
    if missing:
        print(f"FAIL: kernel hot paths lost their HOT timers: {missing} "
              f"(recorded: {sorted(names)})", file=sys.stderr)
        return 1
    print(f"OK: kernel timers present: {list(KERNEL_TIMERS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
