"""Order statistics the benchmark reports, and their plateau check."""

from __future__ import annotations

import statistics

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, rank)``: the nearest-rank percentile
    ``100 * (rank + 1) / n``, the sample at that 0-based rank of the
    sorted values, and the rank itself. Needs at least eleven samples.
    """
    n = len(values)
    if n < TAIL_BEYOND + 1:
        raise ValueError(f"a tail needs at least {TAIL_BEYOND + 1} samples, got {n}")
    rank = n - TAIL_BEYOND - 1
    return 100.0 * (rank + 1) / n, sorted(values)[rank], rank


def median_ranks(n: int) -> tuple[int, ...]:
    """The 0-based ranks :func:`statistics.median` reads for *n* samples."""
    return (n // 2,) if n % 2 else (n // 2 - 1, n // 2)


def flat_at(values: list[float], ranks: tuple[int, ...], tolerance: float = 0.15) -> bool:
    """Whether the sorted *values* are on one plateau around *ranks*.

    The neighbours one rank below and above the reported ranks must lie
    within *tolerance* (a share of the reported value) of each other. A
    rank that sits on the step between two grammar-cost plateaus fails:
    there, one sample more or less of either grammar moves the statistic
    from one plateau to the other.
    """
    ordered = sorted(values)
    low = ordered[max(min(ranks) - 1, 0)]
    high = ordered[min(max(ranks) + 1, len(ordered) - 1)]
    centre = statistics.median(ordered[r] for r in ranks)
    return (high - low) <= tolerance * centre
