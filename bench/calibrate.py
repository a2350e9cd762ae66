"""How fast the shared machine runs right now, from a fixed slice of work.

The machine's speed drifts by a third and more over minutes, for work of
every kind (BLAS, the interpreter, small numpy calls), because other tenants
share its cores. A run takes calibration slices between the steps of its
job; every timed metric is scaled by REFERENCE_S over the median slice time,
so it reads in seconds on a machine where one slice takes REFERENCE_S. The
slice shares no code with smoothrank, so a change to the program moves the
metrics and not the scale.

The slices run in a helper process (``python3 calibrate.py --serve``), so
the slice's arrays stay out of the measured process's peak resident set.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# about the median slice time on this machine (2 cores, 2.1 GHz)
REFERENCE_S = 0.05


class Slice:
    """The fixed work of one calibration slice and its arrays (about 11 MB)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((128, 1024))
        self.w = rng.standard_normal((1024, 256))
        self.v = rng.random(24)
        self.big = rng.standard_normal(500_000)
        self.buf = np.empty_like(self.big)

    def seconds(self) -> float:
        """One slice: matmuls with an elementwise pass, passes over a 4 MB
        array (twice the L2 cache), an interpreter loop and many small-array
        numpy calls, in about equal shares."""
        tic = time.perf_counter()
        for _ in range(4):
            float(np.maximum(self.a @ self.w, 0.0).sum())
        for _ in range(20):
            np.multiply(self.big, 1.0001, out=self.buf)
            float(self.buf.sum())
        total = 0
        for j in range(100_000):
            total += j * j
        for _ in range(2_000):
            e = np.exp(self.v - self.v.max())
            e /= e.sum()
        return time.perf_counter() - tic


class Calibrator:
    """Asks the helper process for slices; started on the first slice."""

    def __init__(self):
        self.samples: list[float] = []
        self._proc: subprocess.Popen | None = None

    def slice(self) -> None:
        if self._proc is None:
            self._proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--serve"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._proc.stdin.write("slice\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited {self._proc.wait()}")
        self.samples.append(float(line))

    def scale(self) -> float:
        """Multiply a measured time by this to read it at reference speed."""
        return REFERENCE_S / statistics.median(self.samples)

    def close(self) -> None:
        """Stop the helper process and wait until it has ended."""
        if self._proc is not None:
            self._proc.stdin.close()
            self._proc.wait()
            self._proc.stdout.close()
            self._proc = None


def serve() -> int:
    """Time one slice for every line read from standard input."""
    work = Slice()
    for _ in sys.stdin:
        print(repr(work.seconds()), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        print("usage: calibrate.py --serve", file=sys.stderr)
        sys.exit(2)
    sys.exit(serve())
