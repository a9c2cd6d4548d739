"""Summaries of timing samples, as the benchmark reports them."""

from __future__ import annotations

import math
import statistics

#: Percentile levels a tail may be reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, level: float) -> float:
    """Linear-interpolated percentile of ``values`` (``level`` in 0..100)."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = (len(data) - 1) * level / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def summarize(values) -> dict:
    """Median, the highest percentile with ten samples beyond it, and ``n``.

    With fewer than 40 samples no listed level has ten samples beyond it;
    the tail is then the maximum and is labelled so.
    """
    data = [float(v) for v in values]
    if not data:
        return {"n": 0, "median": math.nan, "tail": math.nan, "tail_level": "none"}
    out = {"n": len(data), "median": statistics.median(data)}
    for level in TAIL_LEVELS:
        if len(data) * (100.0 - level) / 100.0 >= 10.0:
            out["tail"] = percentile(data, level)
            out["tail_level"] = f"p{level:g}"
            return out
    out["tail"] = max(data)
    out["tail_level"] = "max"
    return out
