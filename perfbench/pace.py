"""Scales the benchmark's timings to a fixed machine speed.

The hosts this benchmark runs on are shared, and their speed drifts. On the
2-core host it was written on, one deterministic request took anywhere from
its fastest time to twice that, in phases lasting from seconds to minutes, and
a pure-Python loop that never touches tdpoly slowed down with it; the wall-time
median latency of 30-second runs spread by 20-40% (first to third quartile, as
a share of the median) from one run to the next.

So the benchmark times ``reference``, a fixed pure-Python loop that does not
call tdpoly, right before every request and once after the last one. A
request's wall time is divided by the mean time of the two reference loops
before it and the two after it and multiplied by NOMINAL_S: the result is the
request's latency on a machine on which the reference loop takes NOMINAL_S.
A change to tdpoly moves these times as it moves wall time; a change in the
machine's speed moves the request and the reference loops around it together,
and cancels out. Wall times are reported beside the scaled ones in the run
description.
"""

from __future__ import annotations

import statistics
import time

# About what one reference loop takes on the host the benchmark was written on
# when that host is not slowed down, so scaled times read close to wall times
# there. It is a unit, fixed once: changing it rescales every timing.
NOMINAL_S = 0.003


def reference() -> int:
    """A fixed amount of interpreter work of the kinds tdpoly does: integer
    arithmetic, dict and list updates, and small tuples and strings allocated,
    sorted and dropped. Both halves are needed: of the loops tried, allocation
    tracked tdpoly's slow-downs best, and the dict loop alone slowed down more
    than tdpoly's requests did."""
    counts: dict[int, int] = {}
    pairs = []
    for i in range(5000):
        key = (i * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + i
        if i % 7 == 0:
            pairs.append((key, i))
    pairs.sort()
    table = dict(sorted((i * 7919 % 1009, str(i)) for i in range(3000)))
    return len(pairs) + len(table) + sum(counts.values()) % 97


def time_reference(loops: int = 1) -> float:
    """Seconds one reference loop takes now: the median of ``loops`` timed loops."""
    samples = []
    for _ in range(loops):
        t0 = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scaled(duration: float, reference_s: float) -> float:
    """``duration`` on a machine on which the reference loop, which took ``reference_s``, takes NOMINAL_S."""
    return duration * NOMINAL_S / reference_s


def scale(durations: list[float], refs: list[float]) -> list[float]:
    """Scale each duration to the nominal machine speed.

    ``refs[j]`` is a reference time taken right before ``durations[j]`` and
    ``refs[j + 1]`` one taken right after it. Duration j is scaled by the mean
    of ``refs[j - 1 : j + 3]``, two reference times on each side of it (fewer
    at the ends): one loop of a few milliseconds samples the machine's speed
    too briefly to stand for a request's.
    """
    if len(refs) != len(durations) + 1:
        raise ValueError(f"need one reference time more than durations, got {len(refs)} for {len(durations)}")
    return [scaled(d, statistics.fmean(refs[max(0, j - 1): j + 3])) for j, d in enumerate(durations)]
