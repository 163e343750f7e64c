"""The speed of the machine while an operation runs.

On a shared virtual machine the same work can take half as long again
from one minute to the next, and the slow spells last from a fraction
of a second to minutes; no statistic over one run removes a spell that
covers the run.  A Speedometer therefore times a short fixed loop of
pure-Python Fraction arithmetic from a signal handler, every
INTERVAL_S of CPU time, inside the processes that do the work.  The
loop slows down with the work, so an operation's time divided by the
loop's mean time around it, times REFERENCE_S, is the time it takes on
a machine where the loop takes REFERENCE_S: see ``timed``.
"""

import gc
import signal
import time
from fractions import Fraction

TERMS = 400            # about 1 ms per loop on a 2.0 GHz Xeon core
INTERVAL_S = 0.01      # of process CPU time from one loop to the next
REFERENCE_S = 0.001    # the loop time every reported figure is scaled to
# An operation's speed is the mean over the loops timed this long on
# either side of it as well as during it, in any of the run's processes:
# the loops of one short process alone spread more than its time does.
WINDOW_S = 1.0


def loop_seconds():
    """Seconds of one pass of the loop: a harmonic sum of Fractions."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, TERMS):
        s += Fraction(1, i)
    return time.perf_counter() - t0


class Speedometer:
    """Loop timings (time.monotonic() at start, seconds) taken while it
    runs; that clock is the same in every process.

    The handler runs between two bytecodes of the code being measured.
    It keeps the garbage collector off while it loops, so a collection
    the work has made due happens in the work's time, not the loop's.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append((time.monotonic(), loop_seconds()))
        finally:
            if enabled:
                gc.enable()

    def start(self):
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        """Stop the timer; if no loop ran yet, time one now, so that
        every operation has a speed to be judged by."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        if not self.samples:
            self._tick(None, None)


def timed(t0, t1, loops):
    """(seconds, seconds at the reference speed) of an operation that ran
    from time.monotonic() t0 to t1, given the (start, seconds) of every
    loop timed in the run.  The loops timed during it are not its work.
    """
    inside = sum(dt for t, dt in loops if t0 <= t <= t1)
    around = [dt for t, dt in loops if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
    work = t1 - t0 - inside
    return work, work * REFERENCE_S * len(around) / sum(around)
