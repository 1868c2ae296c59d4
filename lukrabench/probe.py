"""Machine-speed probe: corrects job times for the speed swings of a shared
machine.

Run as a script, it times a fixed pure-Python loop (about 1.6 ms) 20 times a
second and appends "start duration" lines (time.monotonic, seconds) to a file,
until it is killed or its parent exits. It uses about 3% of one CPU.

On the shared two-CPU machine this benchmark was built on, the same CLI job
took from 2.3 s to 3.8 s within minutes, because of load outside the
machine; the loop slowed down with it (correlation 0.8). In one measurement
there, dividing each job's time by `Speed.factor` over the job's interval cut
the quartile spread of the median job time over six seeds from 24% to 2.4%,
and of the batch time from 21% to 3.4%. The correction assumes
single-threaded jobs: a job that used the probe's CPU would slow the probe and
be over-corrected.
"""

from __future__ import annotations

import bisect
import os
import statistics
import sys
import time

# Median loop time on an unloaded machine of the reference kind: factor 1.
NOMINAL_S = 0.0016
PERIOD_S = 0.05
# Window around each interval (speed swings within a second), and the fewest
# samples a factor is taken from.
PAD_S = 0.25
MIN_SAMPLES = 10


def _loop() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def main(path: str) -> None:
    parent = os.getppid()
    with open(path, "w", encoding="utf-8", buffering=1) as out:
        while os.getppid() == parent:  # stop if the runner dies without killing us
            start = time.monotonic()
            _loop()
            out.write(f"{start:.6f} {time.monotonic() - start:.6f}\n")
            time.sleep(PERIOD_S)


class Speed:
    """Slowdown factors from probe samples [(start, duration)]."""

    def __init__(self, samples: list[tuple[float, float]]):
        self.samples = sorted(samples)
        self.starts = [s for s, _ in self.samples]

    @staticmethod
    def read(path) -> "Speed":
        samples = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2:
                    samples.append((float(parts[0]), float(parts[1])))
        return Speed(samples)

    def factor(self, start: float, end: float) -> float:
        """Median probe time around [start, end] over NOMINAL_S; the window
        widens until it holds MIN_SAMPLES samples (1.0 with no samples)."""
        if not self.samples:
            return 1.0
        pad = PAD_S
        while True:
            i = bisect.bisect_left(self.starts, start - pad)
            j = bisect.bisect_right(self.starts, end + pad)
            if j - i >= MIN_SAMPLES or (i == 0 and j == len(self.samples)):
                return statistics.median(d for _, d in self.samples[i:j]) / NOMINAL_S
            pad *= 2


if __name__ == "__main__":
    main(sys.argv[1])
