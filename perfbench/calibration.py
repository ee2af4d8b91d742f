"""Wall time, and wall time calibrated against the machine's changing speed.

On a shared 2-core Xeon virtual machine the same pass can take 1.6 times as
long from one minute to the next, because the CPU runs every instruction
slower for seconds at a time; that swing is larger than any regression
bound.  While a calibrated block runs, a profiling timer interrupts it every
PERIOD_S of CPU time and times a fixed pure-Python loop.  Each stretch of
wall time is divided by the loop's time at its end, so a slow stretch counts
in proportion to how much slower the loop ran.  The sum, times
REFERENCE_LOOP_S, is the block's duration in seconds at the speed where the
loop takes REFERENCE_LOOP_S.  The loop and the handler cost about 0.5% of
the block.
"""

import signal
import time

PERIOD_S = 0.05
LOOP_ITERATIONS = 3000
# The loop's time on an unloaded 2-core Xeon virtual machine; it only sets
# the scale of calibrated times.
REFERENCE_LOOP_S = 1.6e-4


def loop_time() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(LOOP_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - start


class Stopwatch:
    """Times a block; with calibrate=True also its calibrated time.

    After the block, wall_s holds its wall time and calibrated_s its
    calibrated time in seconds (None without calibration).  Calibrating
    takes the SIGPROF handler and ITIMER_PROF for the block's duration.
    """

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.wall_s = 0.0
        self.calibrated_s = None
        self._samples = []

    def _tick(self, signum, frame):
        self._samples.append((time.perf_counter(), loop_time()))

    def __enter__(self):
        if self.calibrate:
            self._previous = signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        if not self.calibrate:
            self.wall_s = end - self._start
            return False
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._samples.append((end, loop_time()))
        self.wall_s = end - self._start
        units, previous_end = 0.0, self._start
        for at, took in self._samples:
            units += (at - previous_end) / took
            previous_end = at + took
        self.calibrated_s = units * REFERENCE_LOOP_S
        return False
