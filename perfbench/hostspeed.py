"""Host-speed calibration: how fast this machine runs right now.

The benchmark's host is a shared 2-vCPU virtual machine whose speed
drifts by up to a third over minutes as neighbours load it. Raw host
time then measures the neighbours as much as the program. Each run
therefore times :func:`calibration_sample`, a fixed piece of
interpreter, JSON and NumPy work, at points spread through the run.
Every reported duration is multiplied by ``NOMINAL_SAMPLE_S`` over the
samples' interquartile mean, so it reads as host time at the reference
speed. The samples spread over a run come out bimodal, so their median
jumps between the modes where the mean of their middle half moves
smoothly. The samples run in a helper process of their own that
never imports the program, so no program change can move them. The raw
figures and the scale factor go in the run's metadata.

Set-up is a different kind of work: fresh interpreters that start,
import and exit. Its speed follows the host's less closely than
steady computation does (when the samples above ran 2.4x faster, set-up
ran 1.7x faster), so set-up times get a factor of their own, from a
fresh interpreter that imports NumPy and exits. Like the set-ups
themselves, its times fall in modes about 50 ms apart, so it too is
summed up by the interquartile mean.

Run as a script, this module is that helper: each line ``N`` on its
standard input is answered with ``N`` sample times on one line.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from typing import List

import numpy as np

from stats import interquartile_mean

#: Median calibration sample on the reference host: a 2-vCPU Intel Xeon
#: virtual machine at 2.1 GHz, with Python 3.11 and NumPy 2.4.
NOMINAL_SAMPLE_S = 0.0080
#: Interquartile mean of the start-up samples on the same host.
NOMINAL_STARTUP_S = 0.20
#: A program-free fresh interpreter: start, import NumPy and JSON, exit.
STARTUP_COMMAND = [sys.executable, "-c", "import json, numpy"]


def calibration_sample() -> float:
    """Seconds one fixed batch of string, dict, float, JSON and NumPy work takes."""

    start = time.perf_counter()
    table = {}
    for i in range(5000):
        key = f"layer{i % 53}|{i % 7}|{i}"
        table[key] = (i * 0.5, math.sqrt(i + 1.0), [i, i + 1])
    text = json.dumps([[key, value[0]] for key, value in table.items()][:1000])
    total = sum(pair[1] for pair in json.loads(text))
    values = np.arange(1, 4001, dtype=float)
    for _ in range(30):
        values = np.sqrt(values * 1.0001 + total * 1e-9 + 1.0)
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples taken through one run by a helper process."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.startup_samples: List[float] = []
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def sample(self, count: int) -> None:
        self._helper.stdin.write(f"{count}\n")
        self._helper.stdin.flush()
        self.samples.extend(float(value) for value in self._helper.stdout.readline().split())

    def sample_startup(self, count: int = 2) -> None:
        for _ in range(count):
            start = time.perf_counter()
            subprocess.run(STARTUP_COMMAND, check=True, timeout=60)
            self.startup_samples.append(time.perf_counter() - start)

    @property
    def scale(self) -> float:
        """Factor turning host seconds now into host seconds at the reference speed."""

        return NOMINAL_SAMPLE_S / interquartile_mean(self.samples)

    @property
    def setup_scale(self) -> float:
        """The same factor for set-up time, from the start-up samples."""

        return NOMINAL_STARTUP_S / interquartile_mean(self.startup_samples)

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=30)


if __name__ == "__main__":
    for line in sys.stdin:
        print(" ".join(repr(calibration_sample()) for _ in range(int(line))), flush=True)
