"""Machine-speed calibration for timed sections.

On a shared machine the speed of the same code swings by a third from one
half minute to the next, as neighbours load the cores.  A benchmark that
reports raw wall time then measures the neighbours.  So a fixed reference
kernel (integer arithmetic, tuples, a dict and a KMP loop, like the package's
own hot paths but owned by the benchmark) is timed every ``INTERVAL_S`` of
timed work, and each timed call is scaled by ``REFERENCE_S`` over the rolling
median of the recent kernel times.  Scaled times read as they would on a
machine that runs the kernel in ``REFERENCE_S``; a change to the package
cannot change the kernel's speed.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.00075  # typical kernel time between timed calls on the baseline machine
INTERVAL_S = 0.05
WINDOW = 5


def kernel_time() -> float:
    """Seconds the reference kernel takes now; the collector is held off so
    that the size of the caller's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        w = tuple(i * 7919 % 5 for i in range(300))
        for _ in range(3):
            f, k = [0] * len(w), 0
            for i in range(1, len(w)):
                while k and w[i] != w[k]:
                    k = f[k - 1]
                if w[i] == w[k]:
                    k += 1
                f[i] = k
        table = {}
        for i in range(1500):
            table[(i % 97, i)] = (i, i + 1)
        x = 3**1500
        for _ in range(150):
            x = x * 12345 + x // 7
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Scales timed calls to the reference speed, re-timing the kernel as it goes."""

    def __init__(self) -> None:
        self.kernel_s = [kernel_time()]
        self._since = 0.0

    def scale(self, elapsed: float) -> float:
        scaled = elapsed * REFERENCE_S / statistics.median(self.kernel_s[-WINDOW:])
        self._since += elapsed
        if self._since >= INTERVAL_S:
            self.kernel_s.append(kernel_time())
            self._since = 0.0
        return scaled
