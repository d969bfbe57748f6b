"""Machine-speed calibration: a fixed pure-Python kernel that never imports compstats.

The speed of a shared machine can drift by a factor of two within minutes,
and every op of a run drifts with it.  The benchmark times this kernel just
before and just after each op and multiplies the op's time by the reference
time below over the mean of those two kernel times, so a timed value reads
as seconds on a machine where the kernel takes the reference time.  Cold
ops are calibrated by a fresh interpreter running the kernel (startup
included, like the ops), warm ops by the kernel run inside the session.  A
change to compstats cannot move the kernel.
"""

from __future__ import annotations

from time import perf_counter

# a sparse product of dicts keyed by exponent tuples, the shape of Poly.__mul__
KERNEL = """
a = {(i, j, 0, 0, 0): i * 7 + j + 1 for i in range(30) for j in range(8)}
out = {}
for ka, ca in a.items():
    for kb, cb in a.items():
        key = (ka[0] + kb[0], ka[1] + kb[1], 0, 0, 0)
        out[key] = out.get(key, 0) + ca * cb
"""
# kernel times at a quiet moment of the shared two-core x86-64 VM the bounds were set on
CHILD_REFERENCE_S = 0.08
IN_PROCESS_REFERENCE_S = 0.025

_CODE = compile(KERNEL, "calibration-kernel", "exec")


def time_in_process() -> float:
    """Seconds the kernel takes in this process."""
    began = perf_counter()
    exec(_CODE, {})
    return perf_counter() - began
