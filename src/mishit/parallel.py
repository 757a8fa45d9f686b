"""Deterministic work distribution.

Work units carry their own derived seed (root seed plus unit index), so
results depend only on the unit, never on scheduling; aggregation in unit
order then gives identical output for any worker count.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    """Map preserving input order; multiprocess when ``workers`` > 1."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (8 * workers))
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:  # forks all up front
        return list(pool.map(fn, items, chunksize=chunk))
