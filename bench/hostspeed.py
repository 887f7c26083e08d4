"""Timings scaled to a nominal host speed, so that a shared host's drift cancels.

On a shared host the speed of a core drifts by up to 2x over seconds to
minutes: the same instructions simply take longer, and in bursts the
hypervisor also takes the core away (steal).  A fixed slice of reference
work (plain Python: calls, dict, set and integer-bit operations, like the
library's own) slows down with the program.  Timing it next to the program
and scaling each stretch of program time by ``REF_NOMINAL_S / reference
time`` gives the time the program would have taken at a fixed host speed: a
change to the program moves it, a change of host speed mostly does not.

The slices are timed in thread CPU time, which leaves out waiting for the
GIL, for a core or for the hypervisor.  A single-threaded program is timed
the same way, in its own thread CPU time, so stolen time cancels as well; on
a host of its own its CPU time is its wall time.  A program that waits on
other processes (a worker pool) is timed in wall time.

``Sampler`` interleaves the slices with the program: a real-time interval
timer interrupts the main thread every ``SAMPLE_PERIOD_S``, and the signal
handler runs one slice.  The slices' own time is taken out of the program's.
"""

from __future__ import annotations

import signal
import time

#: Thread CPU time of one reference slice at the nominal host speed: about
#: its median on the 2-vCPU Xeon KVM guest where the baseline was taken.
REF_NOMINAL_S = 0.0017
#: Program time between two reference slices.
SAMPLE_PERIOD_S = 0.05
_REF_ROUNDS = 2000


def _step(table: dict, seen: set, i: int) -> int:
    key = (i * 7919) & 511
    mask = (1 << (key & 63)) | (key << 3)
    table[key] = table.get(key, 0) + mask.bit_count()
    if key in seen:
        seen.discard(key)
    else:
        seen.add(key)
    return key if i & 1 else mask


def reference_slice() -> float:
    """Run the fixed reference work once; return the thread CPU time it took."""
    t0 = time.thread_time()
    table: dict[int, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(_REF_ROUNDS):
        acc ^= _step(table, seen, i)
    acc ^= sum(sorted(table.values())[:8]) + len(seen)
    elapsed = time.thread_time() - t0
    return elapsed if acc >= 0 else -elapsed


class Sampler:
    """Context manager that times the program inside it at nominal host speed.

    ``clock`` is ``time.thread_time`` for a program that runs on the main
    thread alone, ``time.perf_counter`` for one that waits on others.  After
    the block, ``raw_s`` is its wall time without the reference slices,
    ``norm_s`` its ``clock`` time scaled stretch by stretch, and ``refs`` the
    slices' times.  Only the main thread may use it, and nothing else in the
    process may use SIGALRM meanwhile.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.raw_s = self.norm_s = 0.0
        self.refs: list[float] = []

    def _marks(self) -> tuple[float, float]:
        return time.perf_counter(), self.clock()

    def _sample(self, signum, frame) -> None:
        end = self._marks()
        self._stretch(end, reference_slice())
        self._mark = self._marks()

    def _stretch(self, end: tuple[float, float], ref: float) -> None:
        """Account the program time from the last mark to ``end`` at ``ref``'s speed."""
        self.raw_s += end[0] - self._mark[0]
        self.norm_s += scaled(end[1] - self._mark[1], ref)
        self.refs.append(ref)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._mark = self._marks()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = self._marks()
        signal.signal(signal.SIGALRM, self._previous)
        # the last stretch is scaled by a slice taken right after it
        self._stretch(end, reference_slice())


def scaled(seconds: float, ref_s: float) -> float:
    """``seconds`` of program time at nominal speed, when a slice took ``ref_s``."""
    return seconds * REF_NOMINAL_S / ref_s
