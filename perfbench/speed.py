"""Wall time rescaled to a reference machine speed.

On a shared host the speed of a core drifts by up to 2x over tens of
seconds, for CPU time as much as for wall time, so medians of raw wall
time differ between runs by more than any useful regression bound.
Each measured stretch is therefore bracketed by samples of fixed
reference work that calls nothing in clusterdilog, and its wall time is
scaled by

    reference duration / (mean of the samples just before and after).

The result is "seconds at reference speed": equal to wall time when the
reference work takes its reference duration.  Two kinds of sample:

- in-process work (stretches of at least SEGMENT_S of consecutive
  tasks) is bracketed by `speed_sample`, a block of interpreter loop,
  dict stores and big-integer products run in this process;
- work in a fresh interpreter (a cold command-line launch, a set-up
  probe) is bracketed by `launch_sample`, the wall time of a fresh
  interpreter that imports a fixed set of standard-library modules and
  runs the same block.  A sample in this process does not track the
  speed a child process sees.

Raw wall times are kept beside the scaled ones in the run record.
"""

import os
import subprocess
import sys
import time

# Reference durations: fast-phase medians on the machine the benchmark
# was defined on (x86_64, 2 vCPU, CPython 3.11).
REFERENCE_S = 0.0085
REFERENCE_LAUNCH_S = 0.17

# shortest stretch of in-process work between two speed samples
SEGMENT_S = 0.25

_MASK = (1 << 6000) - 1
_HERE = os.path.dirname(os.path.abspath(__file__))
_LAUNCH_CODE = (
    "import argparse, asyncio, decimal, email.message, fractions, "
    "http.client, json, statistics, unittest, xml.dom.minidom\n"
    f"import sys; sys.path.insert(0, {_HERE!r})\n"
    "import speed; speed.reference_block()\n")


def reference_block():
    """Fixed work, independent of clusterdilog; returns its wall time."""
    t0 = time.perf_counter()
    s = 0
    table = {}
    for i in range(50000):
        s += i * i % 7
        table[i & 255] = s
    x = (1 << 3000) + 12345
    for i in range(250):
        x = (x * 3 + i) * (x >> 2800) & _MASK
    return time.perf_counter() - t0


def speed_sample():
    """Shortest of three reference blocks: short bursts of contention
    are dropped, while a slow phase lasting seconds still shows."""
    return min(reference_block() for _ in range(3))


def launch_sample():
    """Wall time of one fresh reference interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _LAUNCH_CODE], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class SpeedClock:
    """Converts measured stretches of wall time to reference speed."""

    def __init__(self, sample=speed_sample, reference=REFERENCE_S):
        self.sample = sample
        self.reference = reference
        self.before = None

    def restart(self):
        """Take a fresh `before` sample (after a gap in the work)."""
        self.before = self.sample()

    def scale(self, raw):
        """Close a stretch of `raw` wall seconds that ran since the last
        sample: sample again and return the stretch at reference speed."""
        after = self.sample()
        scaled = raw * self.reference / (0.5 * (self.before + after))
        self.before = after
        return scaled
