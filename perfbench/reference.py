"""A fixed pure-Python job that measures how fast the machine runs right now.

On a shared machine the speed of one core swings by a quarter within
seconds, with the load of its neighbours.  The benchmark times this job
just before and just after every op and scales the op's time by
``REFERENCE_S`` over the mean of the two, which gives the seconds the op
would take at the speed where the job takes ``REFERENCE_S``.  The job uses
the same kind of work as commagraph (tuples, a set, a dict, a deque), so it
slows down with the same neighbours.  It belongs to the benchmark and never
changes with the program, so the scaled times of two commits compare.
"""

from __future__ import annotations

import time
from collections import deque

# Seconds the job takes on an idle core of the machine the benchmark was
# written on (Xeon, Python 3.11): the fastest of 400 runs.
REFERENCE_S = 0.0165


def reference_s() -> float:
    """Time one breadth-first closure of the orderings of 7 points under
    adjacent swaps."""
    start = time.perf_counter()
    first = tuple(range(7))
    seen, order, queue = {first}, {}, deque((first,))
    while queue:
        u = queue.popleft()
        for i in range(6):
            v = u[:i] + (u[i + 1], u[i]) + u[i + 2:]
            if v not in seen:
                seen.add(v)
                order[v] = len(order)
                queue.append(v)
    return time.perf_counter() - start


def scaled(seconds: float, before_s: float, after_s: float) -> float:
    """seconds at reference speed, given the job's times around them."""
    return seconds * REFERENCE_S * 2 / (before_s + after_s)
