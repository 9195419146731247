"""Arithmetic behind the reported figures: the tail percentile and the
self time of traced spans. Pure functions, tested in test_perfbench.py."""

from __future__ import annotations

import math

TAIL_BEYOND = 10


def tail_share(round_size: int) -> float:
    """Highest percentile, as a share, that leaves TAIL_BEYOND jobs of one
    round beyond it.

    The share comes from the round, not from the pooled sample, so it stays
    put when a faster commit fits more rounds into the same seconds: k
    rounds then leave k * TAIL_BEYOND jobs beyond it.
    """
    if round_size <= TAIL_BEYOND:
        raise ValueError(f"a round needs more than {TAIL_BEYOND} jobs")
    return (round_size - TAIL_BEYOND) / round_size


def nearest_rank(values, share: float) -> float:
    """Value at the nearest-rank percentile `share` of `values`."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return ordered[rank - 1]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it covered
    by its child spans, minus time it spent in untraced counted calls.

    `spans` is a list of (start, end, parent_index, counted_s), with
    parent_index None for a root.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (start, end, _, counted_s), kids in zip(spans, children):
        clipped = [(max(a, start), min(b, end)) for a, b in kids]
        out.append(end - start - covered(clipped) - counted_s)
    return out
