"""Host speed probe: scales the benchmark's timings to a fixed host speed.

On a shared virtual machine the speed of the same code drifts with what the
host's other tenants run: a fixed piece of Python takes from 1.1 ms to over
2.3 ms, in phases of seconds to minutes, with no steal time to show for it.
The same command then takes 30% longer in one minute than in the next, and
runs of the benchmark a few minutes apart disagree by as much.

`SpeedProbe` pins the benchmark to one CPU: the thread that enters it (which
runs set-up and starts the commands), the command processes it starts, and a
background thread that runs a fixed probe every `PERIOD_S` seconds and times
it in thread CPU time.  The host's slowness over an interval is the mean
probe time in it divided by `REFERENCE_S`; a timing divided by that factor is
the time the work would have taken at the reference speed.  The probe must
share the command's CPU: a probe on the machine's other CPU tracked the
command's speed far less closely (correlation 0.37-0.55 against 0.98 on a
2-CPU KVM guest).  The probe takes about 2% of that CPU's time, the same
share on every commit, and its working set (a few hundred KB) stays inside
the core's L2, so the command's own memory traffic barely moves it.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time

PERIOD_S = 0.1
# samples this long before and after an interval also describe it, so a
# set-up of a few milliseconds still has several
WINDOW_S = 0.25
WARMUP = 20
# a typical probe time on the 2-CPU Xeon guest the benchmark was written on;
# only the scale of the scaled timings depends on it
REFERENCE_S = 0.0015

_BLOB = json.dumps([{"paper_id": f"p{i}", "paragraph": i, "probs": [0.1 * j for j in range(15)]}
                    for i in range(40)])


def probe() -> int:
    """A fixed piece of interpreter work: dict inserts, iteration, JSON parsing."""
    table = {}
    for i in range(3000):
        table[f"k{i}"] = i * i
    total = 0
    for value in table.values():
        total += value & 7
    for _ in range(3):
        total += len(json.loads(_BLOB))
    return total


class SpeedProbe:
    """Pins to one CPU and samples its speed; use as a context manager."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []   # (perf_counter at start, CPU seconds)
        self._stop = threading.Event()
        self._warm = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedprobe", daemon=True)
        self._affinity = os.sched_getaffinity(0)
        self.cpu = max(self._affinity)   # CPU 0 takes most device interrupts

    def __enter__(self) -> "SpeedProbe":
        # pid 0 is the calling thread; threads and processes it starts inherit the mask
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        self._warm.wait()   # so that warm-up does not slow the first timed set-up
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _run(self) -> None:
        for _ in range(WARMUP):
            probe()
        self._warm.set()
        while not self._stop.is_set():
            started, cpu = time.perf_counter(), time.thread_time()
            probe()
            self.samples.append((started, time.thread_time() - cpu))
            self._stop.wait(self.period)

    def settle(self, end: float) -> None:
        """Wait until the samples that describe an interval ending at `end` exist."""
        while time.perf_counter() < end + WINDOW_S + self.period:
            time.sleep(0.05)

    def factor(self, start: float, end: float) -> float:
        """Host slowness over [start, end] against the reference; above 1 is slower."""
        times = [cpu for at, cpu in self.samples if start - WINDOW_S <= at <= end + WINDOW_S]
        if not times:
            raise RuntimeError("the speed probe took no sample in the interval")
        return statistics.mean(times) / REFERENCE_S

    def scaled(self, start: float, end: float) -> float:
        """The interval's length at the reference speed."""
        return (end - start) / self.factor(start, end)
