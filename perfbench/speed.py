"""Host-speed reference for the benchmark's timings.

Seen from one vCPU of a shared 2-vCPU AMD EPYC virtual machine, the CPU's
speed changes by up to 1.7x from one second to the next, as other tenants
load the same physical cores, and the two vCPUs change independently; CPU time slows as much as
wall time.  Raw times of the same code then differ by 30-40% between runs
a few minutes apart, whatever statistic a run takes of them.

So every timed interval is scaled by a reference: a fixed pure-Python
computation (dict, tuple and small-int work, as in the package's inner
loops) that runs on the same thread as the timed code, at every mark and
from a SIGALRM handler every SAMPLE_S seconds in between.  An interval of
raw length T, with the reference runs inside it taken out of T, is
reported as

    T * mean(REF_NOMINAL_S / r_i)   over the reference times r_i in it,

that is, in seconds of a host on which the reference takes REF_NOMINAL_S
(that machine at its fast speed).  Work that halves halves the scaled time;
a change of host speed during the interval cancels.  The raw times are
kept next to the scaled ones in the run record.
"""

from __future__ import annotations

import signal
import time

REF_LOOPS = 6000
REF_NOMINAL_S = 0.00085  # the reference's time on that 2-vCPU machine at its fast speed
SAMPLE_S = 0.05
WARMUP_RUNS = 3  # untimed first runs: a fresh interpreter runs the loop slowly at first


def reference() -> int:
    acc, d = 0, {}
    for i in range(REF_LOOPS):
        k = (i * 7) % 61
        key = (k, i & 7)
        d[key] = d.get(key, 0) + k
        acc += len(d) ^ k
    return acc


class Mark:
    """A point in time at which the reference ran: `at` and `spent` (the
    reference time so far) just before that run, for the interval that ends
    here; `after` and `spent_after` just after it, for the one that starts
    here; `index` the position of its sample."""

    __slots__ = ("at", "spent", "after", "spent_after", "index")


class Speed:
    """Reference samples on the calling thread: at each `mark()`, and
    every SAMPLE_S seconds between `start()` and `stop()`."""

    def __init__(self):
        self.samples = []  # reference times, in the order taken
        t0 = time.monotonic()
        for _ in range(WARMUP_RUNS):
            reference()
        self.spent = time.monotonic() - t0  # total time of the reference runs

    def _sample(self):
        t0 = time.monotonic()
        reference()
        dt = time.monotonic() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Mark:
        m = Mark()
        m.at, m.spent = time.monotonic(), self.spent
        self._sample()
        m.index = len(self.samples) - 1
        m.after, m.spent_after = time.monotonic(), self.spent
        return m

    def raw(self, start: Mark, end: Mark) -> float:
        """Seconds from `start` to `end`, without the reference runs."""
        return (end.at - start.after) - (end.spent - start.spent_after)

    def scale(self, start: Mark, end: Mark) -> float:
        """REF_NOMINAL_S / reference time, averaged over the samples from
        `start`'s to `end`'s."""
        refs = self.samples[start.index:end.index + 1]
        return sum(REF_NOMINAL_S / r for r in refs) / len(refs)

    def raw_since(self, since: float, end: Mark) -> float:
        """Seconds from the monotonic time `since`, before this object was
        made, to `end`, without the reference runs."""
        return end.at - since - end.spent

    def scaled(self, start: Mark, end: Mark, since: float | None = None) -> float:
        """The scaled length of the interval from `start` to `end`, or from
        `since` (see `raw_since`) to `end`; `start` only bounds the samples."""
        raw = self.raw(start, end) if since is None else self.raw_since(since, end)
        return raw * self.scale(start, end)
