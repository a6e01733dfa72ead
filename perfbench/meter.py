"""Times at a fixed reference speed, on a machine whose speed drifts.

The vCPUs of a shared virtual machine change speed by up to 1.8x, within
tenths of a second and over minutes, and process CPU time slows down with
them, so a raw wall time mostly measures the phase the machine was in.  The meter takes
that phase out:

- Commands started from the thread that entered the meter run on its CPUs
  (`work_cpus`).
- Every period (PERIOD_S by default) a background thread stops the running command's process
  group (SIGSTOP), runs a fixed piece of exact-arithmetic work on each of
  those CPUs, and lets the command go on (SIGCONT).  The piece is
  benchmark code, so no change to grothtab moves it.
- A sample's speed is REFERENCE_S over the time the piece took.  The
  speed flips between two levels within tenths of a second, so one piece
  is a noisy reading of the speed around it; each sample's speed is
  smoothed to the mean over the samples within a window (WINDOW_S by
  default) of it.  Between two samples the speed is the mean of their
  smoothed speeds.
- `scaled(a, b)` integrates that speed over the running time in [a, b],
  pauses excluded: the seconds the interval would have taken on a machine
  where the piece takes REFERENCE_S.

The piece mixes what grothtab's hot paths do: big-integer Fraction
arithmetic, dict inserts keyed by tuples, and list allocation.  A tight
integer loop tracks the drift much worse than such a mix.
"""

import os
import signal
import threading
import time
from fractions import Fraction

PERIOD_S = 0.5
WINDOW_S = 2.5
CALIBRATION_STEPS = 3500
REFERENCE_S = 0.018        # the piece on the reference machine


def calibrate() -> float:
    """Seconds the fixed piece of work takes on the calling thread's CPU."""
    start = time.perf_counter()
    x, table = Fraction(1, 3), {}
    for i in range(CALIBRATION_STEPS):
        x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 7)
        table[i, i % 17] = [x.numerator % 1000003, i]
    rows = [list(range(200)) for _ in range(250)]
    del rows, table
    return time.perf_counter() - start


def work_cpus(count: int) -> list[int]:
    return sorted(os.sched_getaffinity(0))[:count]


class Meter:
    """Samples the speed of `cpus` while commands run; see the module doc."""

    def __init__(self, cpus, period=PERIOD_S, window=WINDOW_S):
        self.cpus = list(cpus)
        self.period = period
        self.window = window
        self.samples = []          # (paused at, resumed at, speed)
        self.smoothed = []         # the samples with smoothed speeds
        self.lock = threading.Lock()
        self.group = None          # process group of the running command
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        # Commands started from this thread inherit its CPUs.
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()
        os.sched_setaffinity(0, self._affinity)
        self.smoothed = smooth(self.samples, self.window)

    def _loop(self):
        while not self._stop.wait(self.period):
            self.sample()

    def _signal(self, sig):
        if self.group is not None:
            try:
                os.killpg(self.group, sig)
            except ProcessLookupError:   # the command has just ended
                pass

    def sample(self):
        with self.lock:
            paused = time.monotonic()
            self._signal(signal.SIGSTOP)
            affinity = os.sched_getaffinity(0)
            try:
                took = []
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})   # this thread only
                    took.append(calibrate())
            finally:
                os.sched_setaffinity(0, affinity)
                self._signal(signal.SIGCONT)
            resumed = time.monotonic()
        speeds = [REFERENCE_S / t for t in took]
        self.samples.append((paused, resumed, sum(speeds) / len(speeds)))

    def start_command(self, popen):
        """Start a command (popen() -> Popen in a new session) between two
        samples; the samples stop it while they run."""
        with self.lock:
            proc = popen()
            self.group = proc.pid
        return proc

    def end_command(self):
        with self.lock:
            self.group = None

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed that [start, end] ran, pauses excluded."""
        return scaled(self.smoothed, start, end)


def smooth(samples, window):
    """The samples, each speed replaced by the mean speed of the samples
    taken within `window` seconds of it."""
    out = []
    for paused, resumed, _ in samples:
        near = [speed for at, _, speed in samples if abs(at - paused) <= window]
        out.append((paused, resumed, sum(near) / len(near)))
    return out


def scaled(samples, start: float, end: float) -> float:
    total = 0.0
    for (_, resumed, before), (paused, _, after) in zip(samples, samples[1:]):
        overlap = min(end, paused) - max(start, resumed)
        if overlap > 0:
            total += overlap * (before + after) / 2
    return total
