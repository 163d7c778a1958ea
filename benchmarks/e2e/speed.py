"""Host-speed normalisation of the benchmark's timings.

On the 2-vCPU reference VM each vCPU runs the same code at speeds up to
~2x apart, in spells from milliseconds to minutes, and the two vCPUs do
so independently.  CPU time slows with wall time, so neither is steady
from one 30 s run to the next.

So every process the benchmark times samples its own speed.  Every
:data:`PERIOD_S` of wall time a ``SIGALRM`` handler runs :func:`kernel`,
a fixed mix of interpreter and NumPy work on data that fits in the L1
cache, and appends ``(time, kernel CPU seconds)`` to a sample file;
forked pool workers inherit the file and arm their own timer.  The
speed of a sample is ``REFERENCE_S`` over its kernel time, and a timed
interval is reported at the reference speed::

    normalised = measured * mean speed of the samples in the interval

The kernel shares the measured process's caches; its data is kept small
and each sample times its second run, so that the program's own cache
pressure moves it little.  README.md gives the measured effect.  The
handler runs between bytecodes of the main thread, takes ~1% of the
process's time and restarts interrupted system calls.
"""

from __future__ import annotations

import atexit
import bisect
import json
import os
import signal
import struct
import time

PERIOD_S = 0.02
#: Seconds :func:`kernel` takes at the reference speed: its time with
#: warm caches on the reference VM at the fast speed.
REFERENCE_S = 8.0e-5
_RECORD = struct.Struct("dd")
_DOC = json.dumps({str(i): [i, i * 0.5, "x" * (i % 7)] for i in range(60)})

_fd: int | None = None
_data = _sort = None


def kernel() -> float:
    """CPU seconds one fixed piece of work takes now (~0.1 ms).

    JSON decoding, dict and list building, a sort in the interpreter and
    one in NumPy, and an integer loop: the mix the benchmarked code runs.
    Of four candidates it tracked warm replays best, with an elasticity
    of 1.09-1.15 (replay slowdown over kernel slowdown) where an integer
    loop alone had 1.23-1.47.  CPU time of this thread, not wall time: in
    a process whose other threads hold the interpreter lock, or on a vCPU
    shared with another process, wall time would measure the wait.
    """
    start = time.thread_time()
    doc = json.loads(_DOC)
    _sort(_data)
    firsts = {key: value[0] for key, value in doc.items()}
    sorted(firsts.values(), reverse=True)
    total = 0
    for i in range(1000):
        total += i & 7
    return time.thread_time() - start


def sample() -> None:
    """Take one speed sample now, beside the timer's (after :func:`start`).

    The kernel runs twice and the second run is kept: the first brings
    its code and data back into the caches, which the program or an idle
    spell emptied, so the sample measures the vCPU's speed rather than
    the caches' state.
    """
    if _fd is None:
        return
    now = time.perf_counter()
    kernel()
    os.write(_fd, _RECORD.pack(now, kernel()))


def stop() -> None:
    """Stop the timer of this process; :func:`sample` still works."""
    signal.setitimer(signal.ITIMER_REAL, 0)


def _arm() -> None:
    signal.signal(signal.SIGALRM, lambda signum, frame: sample())
    signal.siginterrupt(signal.SIGALRM, False)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def start(path) -> None:
    """Sample this process, and the processes it forks, into ``path``."""
    global _fd, _data, _sort
    import numpy as np

    _data, _sort = np.random.default_rng(0).permutation(512), np.sort
    for _ in range(20):  # first calls pay lazy set-up
        kernel()
    _fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.register_at_fork(after_in_child=_arm)
    # interpreter shutdown restores SIGALRM's default action, which kills
    atexit.register(stop)
    _arm()


class Samples:
    """The speed samples of one sample file, for normalising intervals."""

    def __init__(self, path) -> None:
        with open(path, "rb") as fh:
            records = sorted(_RECORD.iter_unpack(fh.read()))
        if not records:
            raise ValueError(f"no speed samples in {path}")
        self.times = [t for t, _ in records]
        self.prefix = [0.0]  # running sums of the speed, REFERENCE_S / k
        for _, k in records:
            self.prefix.append(self.prefix[-1] + REFERENCE_S / k)

    def factor(self, start: float, end: float) -> float:
        """The mean speed relative to the reference of the samples in
        ``[start, end]``, or of the two bracketing it when none falls in it.

        Work done is speed integrated over time, so the mean speed, not
        the mean kernel time, turns a duration into reference seconds;
        with pool workers sampling too, it is the rate of the whole pool."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi == lo:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return (self.prefix[hi] - self.prefix[lo]) / (hi - lo)

    def seconds(self, start: float, end: float) -> float:
        """The interval's length at the reference speed."""
        return (end - start) * self.factor(start, end)
