"""Small shared helpers."""

from __future__ import annotations

import csv

import numpy as np

from .errors import ConfigurationError


def check_threads(threads: int) -> int:
    """``threads``, checked to be a usable thread count."""
    if threads < 1:
        raise ConfigurationError(f"thread count must be >= 1, got {threads}")
    return threads


def map_ordered(fn, items, threads: int = 1) -> list:
    """Apply ``fn`` to items, optionally on a thread pool.

    Results come back in input order, so output is identical for any
    thread count as long as ``fn`` is deterministic per item.
    """
    check_threads(threads)
    items = list(items)
    if threads == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor  # only when pooling

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as the one output CSV
    format: UTF-8, Python's csv dialect (``\\r\\n`` row ends), every float,
    numpy's too, in shortest round-trip form, and None as an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, (float, np.floating))
                     else v for v in row] for row in rows)
