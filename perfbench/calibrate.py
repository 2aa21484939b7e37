"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a small shared machine the speed of one core drifts by a quarter or more
over tens of seconds while other tenants come and go, which is wider than
any useful regression bound.  The benchmark therefore runs this fixed kernel
between the steps it times and reports each step in reference seconds:

    reference_s = wall_s * REFERENCE_S / (median kernel time near the step)

The kernel is pure Python in the program's style (frozen dataclass trees,
memoized recursive evaluation over big-int bit vectors, frozenset hashing)
but shares no code with the program, so a change to the program cannot move
it.  Raw wall times are kept next to the reference ones in the results file.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from dataclasses import dataclass

# Kernel time at the reference speed: roughly its median on the shared
# 2-CPU machine where the seed commit was first measured.  Only the scale of
# the reported times depends on it.
REFERENCE_S = 0.008
# Kernels up to this many seconds before or after a step describe its speed.
_WINDOW_S = 2.0
# After a long step, spend about this share of its time on kernels.
_SHARE = 0.02


@dataclass(frozen=True)
class _Node:
    op: int
    kids: tuple


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(0, (i % 11,))
    return _Node(depth % 3 + 1, tuple(_build(depth - 1, i * 3 + k) for k in range(3)))


def _eval(n: _Node, env: list[int], memo: dict) -> int:
    got = memo.get(n)
    if got is not None:
        return got
    if n.op == 0:
        v = env[n.kids[0]]
    elif n.op == 1:
        v = env[-1]
        for k in n.kids:
            v &= _eval(k, env, memo)
    elif n.op == 2:
        v = 0
        for k in n.kids:
            v |= _eval(k, env, memo)
    else:
        v = (env[-1] ^ _eval(n.kids[0], env, memo)) | _eval(n.kids[1], env, memo)
    memo[n] = v
    return v


def kernel_seconds() -> float:
    """Time one run of the fixed kernel, with the cyclic collector paused so
    that the program's heap does not change the kernel's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for r in range(6):
            env = [((1 << 64) - 1) // (k + 3) for k in range(11)] + [(1 << 64) - 1]
            acc += _eval(_build(5, r), env, {}).bit_count()
            acc += len({frozenset((i % 13, i % 7, r)) for i in range(400)})
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Kernel samples over time, and the reference factor of a time span."""

    def __init__(self):
        kernel_seconds()  # warm-up, not recorded
        self.times: list[float] = []
        self.kernels: list[float] = []

    def sample(self, after_s: float = 0.0) -> None:
        """Run kernels for about _SHARE of the step just timed, at least one."""
        for _ in range(max(1, min(20, round(after_s * _SHARE / REFERENCE_S)))):
            k = kernel_seconds()
            self.times.append(time.perf_counter())
            self.kernels.append(k)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median kernel time within _WINDOW_S of the
        span [t0, t1], always including the samples just before and after."""
        lo = bisect.bisect_left(self.times, t0 - _WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + _WINDOW_S)
        first_after = bisect.bisect_left(self.times, t1)
        lo = min(lo, max(0, first_after - 1))
        hi = max(hi, min(len(self.times), first_after + 1))
        return REFERENCE_S / statistics.median(self.kernels[lo:hi])
