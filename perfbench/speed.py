"""The machine's speed during a run, from a fixed reference load.

The benchmark runs on a shared host whose speed moves by up to 2x over
tens of seconds and from one minute to the next; every process slows
together, the program's and any other.  To keep that out of the
comparison between two commits, the harness times a fixed load that
involves nothing of ffstat (an interpreter loop and a numpy sort, about
30 ms) between operations, and scales each run's times by

    REFERENCE_S / median(probe times of the run)

so a run at the reference speed reports plain seconds, and a run on a
machine twice as slow reports the same figure.  The probe runs while no
operation runs, so it never competes with the program for a core, and in
a child process of its own: the operations are spawned from the harness,
and a child's peak RSS as the kernel reports it includes the harness's,
which must stay small.

    python3 perfbench/speed.py     # serves probes: reads a count per line, answers a JSON list of times
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

# median probe time on the reference machine (2 cores, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.031
BURST = 4  # probes per sampling point
MIN_GAP_S = 2.0  # sampling points are at least this far apart


class Speed:
    """Asks the probe process for timings between operations; `factor` rescales the run's times."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        """Ends the probe process and waits for it."""
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def sample(self, n: int = BURST) -> None:
        self._proc.stdin.write(f"{n}\n")
        self._proc.stdin.flush()
        self.samples += json.loads(self._proc.stdout.readline())
        self._last = time.monotonic()

    def maybe_sample(self) -> None:
        """Sample unless the last sampling point was less than MIN_GAP_S ago."""
        if time.monotonic() - self._last >= MIN_GAP_S:
            self.sample()

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        return REFERENCE_S / self.median_s()


def serve() -> None:
    import numpy as np

    data = np.arange(600_000, dtype=np.int64)

    def probe() -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(150_000):
            s += i * i % 7
        np.sort(data * 2654435761 % 1000003)
        return time.perf_counter() - t0

    probe()  # warm-up: first allocations and page faults are not timed
    for line in sys.stdin:
        print(json.dumps([probe() for _ in range(int(line))]), flush=True)


if __name__ == "__main__":
    serve()
