"""Calibration workload: how fast the host runs Python right now.

The host this benchmark runs on is shared, and its speed drifts by tens of
percent within seconds. Each worker is calibrated twice, by the worker
itself before set-up and by ``bench/run.py`` just after the worker exits,
and ``speed_factor`` in ``bench/run.py`` scales the worker's times by the
result. Neither sample sees the program's objects, so how much memory the
program keeps cannot change them.
"""

import gc
import time


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: str) -> None:
        self.a = a
        self.b = b


def calibrate(n: int = 20000) -> float:
    """Host seconds for a fixed pure-Python workload with healsim's mix of
    small objects, attribute reads, tuple keys, dict updates and sorting.
    It touches no healsim code and runs with the collector off, so it
    measures the host and not the program, and it keeps little memory (a
    few hundred kB), so it does not raise a worker's peak RSS."""
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(n):
            pair = _Pair(i % 97, "s%d" % (i % 13))
            key = (pair.a, pair.b)
            counts[key] = counts.get(key, 0) + 1
        ",".join(f"{a}:{b}={c}" for (a, b), c in sorted(counts.items()))
        return time.perf_counter() - start
    finally:
        gc.enable()


def calibration_samples(k: int = 4) -> list[float]:
    calibrate()  # unmeasured: lets the allocator settle after other work
    return [calibrate() for _ in range(k)]
