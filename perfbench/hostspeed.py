"""Host-speed scaling of measured times, against a fixed reference load.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes, for every process alike. To keep that drift
out of the end-to-end metrics, a round times ``reference()``, a fixed
pure-Python load of the same kind as the library's (Fractions, big-integer
arithmetic, lists), every ``SAMPLE_S`` of the work it measures, and scales
each stretch of work between two reference timings by ``REF_NOMINAL_S`` over
their mean. A scaled second is a second on a host that runs ``reference()``
in ``REF_NOMINAL_S``. The reference is the benchmark's own code and never
calls the library, so a change to the library moves scaled times as it moves
wall times measured at one host speed.
"""

import signal
import statistics
import time
from fractions import Fraction

# reference() time on the quiet 2-core host of the README's baseline; the
# unit of host speed (a constant, so scaled times of two commits compare)
REF_NOMINAL_S = 0.005
# wall time between two reference timings while a clock samples
SAMPLE_S = 0.25


def reference():
    """The fixed reference load: about 5 ms on the baseline host."""
    acc = Fraction(0)
    x = 1
    counts = [0] * 97
    for i in range(1, 1600):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        x = (x * 6364136223846793005 + i) % (1 << 127)
        counts[x % 97] += 1
    return acc, x, counts


def time_reference(repeats=1):
    """Median wall time of ``repeats`` runs of ``reference()``."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def scale(seconds, ref_before, ref_after):
    """``seconds`` of work, timed between two reference timings, in scaled seconds."""
    return seconds * REF_NOMINAL_S * 2 / (ref_before + ref_after)


class ScaledClock:
    """Wall and scaled seconds of the work done since the clock was made.

    The reference is timed when the clock is made, at every ``read()`` and,
    if ``sampling``, every ``SAMPLE_S`` from a SIGALRM timer, between the
    work's own bytecodes. Each stretch of work between two timings is scaled
    by their mean; the reference timings count in neither time. ``stop()``
    ends the sampling.
    """

    def __init__(self, sampling):
        reference()  # warm-up, untimed
        self.first_ref = self._last_ref = time_reference(3)
        self.wall_s = self.scaled_s = 0.0
        self._busy = False
        self._mark = time.perf_counter()
        if sampling:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def _sample(self, *_):
        if self._busy:  # a timer signal during a sample: skip it
            return
        self._busy = True
        now = time.perf_counter()
        ref = time_reference()
        self.wall_s += now - self._mark
        self.scaled_s += scale(now - self._mark, self._last_ref, ref)
        self._last_ref = ref
        self._mark = time.perf_counter()
        self._busy = False

    def read(self):
        """(wall, scaled) seconds of work from the clock's start to now."""
        self._sample()
        return self.wall_s, self.scaled_s

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
