"""Statistics helpers: the tail percentile rule and span self time.

Pure functions on plain lists, so the unit tests in test_measure.py can pin
them down without running the library.
"""

import math
from array import array

# Percentiles the tail rule may pick, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def nearest_rank(pct, n):
    """1-based rank of the pct-th percentile of n samples, in exact arithmetic
    (pct has at most one decimal)."""
    return max(1, -(-round(pct * 10) * n // 1000))


def tail(values):
    """(value, percentile, samples_beyond) at the highest ladder percentile
    that leaves at least TAIL_MIN_BEYOND samples strictly above its rank.

    With fewer than 2 * TAIL_MIN_BEYOND samples no rung qualifies and the
    maximum is returned with percentile 100 and no samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = nearest_rank(pct, n)
        if n - rank >= TAIL_MIN_BEYOND:
            return xs[rank - 1], pct, n - rank
    return xs[-1], 100.0, 0


def self_times(names, starts, ends, parents):
    """Total self time per span name.

    Span i has the given name, start, end and parent index (-1 for a root),
    and spans are listed in order of their start, as a tracer records them,
    so children follow their parent.  A span's self time is its duration
    minus the part of its interval that the union of its children's
    intervals covers.
    """
    n = len(starts)
    covered = array("d", bytes(8 * n))
    run_lo = array("d", bytes(8 * n))
    run_hi = array("d", [-math.inf]) * n
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo, hi = max(starts[i], starts[p]), min(ends[i], ends[p])
        if hi <= lo:
            continue
        if lo > run_hi[p]:
            if run_hi[p] > run_lo[p]:
                covered[p] += run_hi[p] - run_lo[p]
            run_lo[p], run_hi[p] = lo, hi
        elif hi > run_hi[p]:
            run_hi[p] = hi
    out = {}
    for i in range(n):
        if run_hi[i] > run_lo[i]:
            covered[i] += run_hi[i] - run_lo[i]
        name = names[i]
        out[name] = out.get(name, 0.0) + (ends[i] - starts[i]) - covered[i]
    return out
