"""Machine-speed references for the benchmark's call times.

On a shared host, code runs up to 2x slower for seconds to minutes at a
time.  On a 2-vCPU KVM guest (Xeon, 2.1 GHz) the median find_ne call of one
25 s search-isolated run ranged over 0.18-0.36 s, and the median CLI sweep
call over 0.53-0.77 s.  A fixed reference workload, timed right before and
right after each call, follows the same swings if it runs in a process of
the same shape as the call:

  * library calls run in a long-running worker, and are referenced by
    `kernel()` timed in the long-running benchmark process;
  * CLI calls are fresh interpreters, and are referenced by a fresh
    interpreter running this file, timed from start to exit.

Call times are reported scaled to the speed at which their reference takes
its reference time,

    scaled = kept + (measured - kept) * reference time / mean(reference before, after),

where `kept` is 0 for a library call and, for a CLI call, the run's median
set-up time: a fresh interpreter's `import ghzgames.cli` did not slow with
the calls, so that share of a CLI call is kept as measured, like the set-up
metric itself.

Over 160 CLI sweep calls timed against both references, whole-call times
spread 0.15 of their median unscaled, 0.16 scaled by the in-process kernel
and 0.08 scaled by the fresh-interpreter reference.  With whole CLI calls
scaled, one set of ten sweep runs still spread 0.18, as start-up and
computation changed speed separately; with the set-up share kept, the next
set spread 0.05.  Over ten runs of each workload, scaling cuts the spread
of the median call from 0.12-0.28 of the median to 0.02-0.06.  The
references never run inside the package's processes, so nothing the
package does to its own interpreter is scaled away, and every run prints
the measured times too.

Run as a script, this file is the fresh-interpreter reference.
"""

from __future__ import annotations

import math
import time

#: kernel() time, and the time of one reference process from start to
#: exit, in the fast state of the machine the first baseline was taken on,
#: so that scaled times read as seconds there.
REFERENCE_S = 0.0090
REFERENCE_PROCESS_S = 0.16
#: kernel() runs in one reference process.
PROCESS_KERNELS = 12


def kernel() -> float:
    """Fixed work whose memory use resembles the package's: float math,
    small tuples and a dict.  Returns a value so nothing is optimized out."""
    acc = 0.0
    table = {}
    for i in range(40_000):
        row = (i * 0.5, math.sqrt(i + 1.0), i % 7)
        acc += row[0] * row[1] - row[2]
        table[i & 255] = row
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(PROCESS_KERNELS):
        kernel()
