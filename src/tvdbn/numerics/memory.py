"""Process memory: the allocator setting the tape needs, and the peak-RSS and free-memory readouts.

`Tensor.backward` frees a training step's tape node by node, and the next
step allocates one of the same size. glibc's defaults hand such memory back
to the kernel (large blocks are unmapped on free, and the heap top is
trimmed past 128 KiB), so every step would fault its tape in again page by
page. Importing this module raises both thresholds once, so freed tape pages
stay in the process for the next step to reuse, and keeps every thread on
one malloc arena. The structure learner's two pool threads make every GRU
and graph-head buffer; with an arena each, every thread keeps free pages of
its own. Even with kernels that allocate their scratch once per task,
structure-train peak RSS was 163.3 MB with an arena each against 148.5 MB
with one (+10%), at 161 against 150 train windows/s, inside either side's
spread (medians of 5 alternating `perfbench/run.py --seconds 30` pairs,
2-core box). Where the process has no ``mallopt`` (a C library other than
glibc, such as macOS's) nothing changes.
"""

from __future__ import annotations

import ctypes
import resource

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# Blocks below 32 MiB, glibc's largest mmap threshold, come from the heap: one
# (B, N*N, H) GRU activation is 20 MB at B = 32, N = 50, H = 32. Setting either
# threshold also stops glibc from adapting them, so both are set.
_MMAP_THRESHOLD = 32 * 2**20
# The heap keeps up to 1 GiB of free pages at its top instead of trimming them:
# more than a step's tape at the sizes measured so far.
_TRIM_THRESHOLD = 2**30


def _keep_freed_pages() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def available_mb() -> float | None:
    """The kernel's MemAvailable in MB, or None where /proc/meminfo does not report it."""
    try:
        with open("/proc/meminfo") as fh:
            return next(int(line.split()[1]) / 1024.0 for line in fh if line.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        return None


_keep_freed_pages()
