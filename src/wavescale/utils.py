"""Small shared helpers."""

from __future__ import annotations

import csv

import numpy as np

from .errors import ConfigurationError


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a Python or numpy integer or float; a bool is not one."""
    return is_integer(value) or isinstance(value, (float, np.floating))


def check_count(value, source: str, least: int = 1):
    """``value``, checked to be an integer of at least ``least``; the
    error names ``source``, the parameter, flag or key that set it."""
    if not is_integer(value):
        raise ConfigurationError(f"{source} must be an integer, got {value!r}")
    if value < least:
        raise ConfigurationError(f"{source} must be >= {least}, got {value!r}")
    return value


def first_repeat(values):
    """None, or the indices ``(i, j)``, i < j, of the first value equal to
    an earlier one, found in one pass: ``0.0`` equals ``-0.0``, a numpy
    scalar the equal float."""
    first = {}
    for j, value in enumerate(values):
        i = first.setdefault(value, j)
        if i != j:
            return i, j
    return None


def check_distinct(values, what: str, source: str = "") -> list:
    """``values`` as a list, checked by ``first_repeat`` to name each value
    once: a repeat raises ``ConfigurationError("<source>repeated <what>
    <value!r>")``, naming the later of the two values."""
    values = list(values)
    repeat = first_repeat(values)
    if repeat:
        raise ConfigurationError(
            f"{source}repeated {what} {values[repeat[1]]!r}")
    return values


def map_ordered(fn, items, threads: int = 1) -> list:
    """Apply ``fn`` to items, optionally on a thread pool.

    Results come back in input order, so output is identical for any
    thread count as long as ``fn`` is deterministic per item.
    """
    check_count(threads, "threads")
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
