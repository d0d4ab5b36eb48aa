"""Small shared helpers."""

from __future__ import annotations

import os

from .errors import ConfigurationError

THREADS_ENV_VAR = "WAVESCALE_THREADS"


def resolve_threads(threads=None) -> int:
    """Thread count from an explicit value or the WAVESCALE_THREADS variable."""
    source = "thread count"
    if threads is None:
        source, threads = THREADS_ENV_VAR, os.environ.get(THREADS_ENV_VAR) or 1
    try:
        threads = int(threads)
    except ValueError:
        raise ConfigurationError(
            f"{source} must be an integer, got {threads!r}") from None
    if threads < 1:
        raise ConfigurationError(f"{source} must be >= 1, got {threads}")
    return threads


def map_ordered(fn, items, threads=1) -> list:
    """Apply ``fn`` to items, optionally on a thread pool.

    Results come back in input order, so output is identical for any
    thread count as long as ``fn`` is deterministic per item.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor  # only when pooling

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def format_float(x: float) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))
