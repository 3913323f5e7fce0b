"""Host-speed calibration: rescale host time to a reference host speed.

The hosts this benchmark runs on change speed by up to ~1.7x from one
minute to the next (neighbours on shared cores), which moves a raw
host-time median by 40-55% between runs of the same code.  Each timed
call therefore sits between two runs of a fixed pure-Python kernel
(heap pushes and pops, dict updates, float arithmetic: the interpreter
work the simulator itself does), and its host time is rescaled by
``REF_KERNEL_S / kernel time``.  The result reads as the time the call
would take on a host where the kernel takes ``REF_KERNEL_S``; the speed
of the moment cancels out.  The kernel never touches the program, so a
change to the program moves only the numerator.

The kernel runs with the cyclic garbage collector off, so a collection
of the program's heap never lands in it: all collector cost stays in the
numerator.

The slower of the two kernel runs is used: when the host changes speed
during a call, the call is rescaled by the slower speed instead of
reading as a spike.  In back-to-back calls the kernel run after one call
is the run before the next.
"""

from __future__ import annotations

import gc
import heapq
import time
import typing as t

#: Host seconds of one kernel run on the reference host (a 2-vCPU
#: Intel Xeon container at 2.1 GHz running Python 3.11, in its slower
#: speed regime).
REF_KERNEL_S = 0.0028
#: A kernel run that ended longer ago than this is not reused as the
#: run before the next call.
FRESH_S = 0.001

_T = t.TypeVar("_T")


def kernel() -> float:
    """A fixed amount of interpreter work, independent of the program."""
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    for i in range(2000):
        key = (i * 7919) % 1009
        heapq.heappush(heap, (key * 0.5, i))
        table[key] = table.get(key, 0.0) + i * 0.25
    total = 0.0
    while heap:
        when, i = heapq.heappop(heap)
        total += when * table[(i * 7919) % 1009]
    return total


class Calibrator:
    """Times calls between kernel runs (one per benchmark run)."""

    def __init__(self) -> None:
        #: ``(kernel seconds, end time)`` of the latest kernel run.
        self._last: tuple[float, float] | None = None

    def _kernel(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self._last = (end - start, end)
        return end - start

    def timed(self, call: t.Callable[[], _T]) -> tuple[_T, float, float]:
        """Run ``call`` between two kernel runs.

        Returns ``(result, host seconds, reference seconds)``.
        """
        last = self._last
        if last is not None and time.perf_counter() - last[1] < FRESH_S:
            before = last[0]
        else:
            before = self._kernel()
        start = time.perf_counter()
        result = call()
        host_s = time.perf_counter() - start
        kernel_s = max(before, self._kernel())
        return result, host_s, host_s * REF_KERNEL_S / kernel_s
