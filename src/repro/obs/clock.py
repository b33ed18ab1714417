"""The only module in ``repro`` allowed to read process clocks.

Every wall-clock or monotonic read in the codebase funnels through these
three functions so that reprolint rule RPL010 can enforce, by a pure
AST scan, that no other module observes time.  Keeping the readers in
one place is what makes the observation-only contract checkable: span
timestamps and cache metadata may *record* time, but nothing outside
``repro.obs`` may *branch* on it, and so nothing may feed it into a
content address (the fingerprint modules lie outside ``repro.obs``).

>>> isinstance(wall_time(), float)
True
>>> monotonic() <= monotonic()
True
"""

from __future__ import annotations

import time

__all__ = ["wall_time", "monotonic", "perf_counter"]


def wall_time() -> float:
    """Seconds since the Unix epoch (``time.time``)."""
    return time.time()


def monotonic() -> float:
    """Monotonic seconds, unaffected by wall-clock steps."""
    return time.monotonic()


def perf_counter() -> float:
    """Highest-resolution monotonic counter, for benchmarks."""
    return time.perf_counter()
