"""Exact-covariance fractional Gaussian noise and the estimator benchmark.

Sampling uses circulant embedding of the fGn autocovariance

    gamma(k) = 0.5 * (|k+1|**2H - 2|k|**2H + |k-1|**2H),

which is exact in distribution when the embedding eigenvalues are
nonnegative, as they are for fGn at every H up to 0.999 and power-of-two
length up to 65536; an eigenvalue below _EIGENVALUE_FLOOR (from rounding,
within about 1e-4 of H = 1) is an EstimationError.  Cumulative summation
turns a noise vector into a fractional Brownian motion path.

The benchmark simulates paths over a grid of Hurst exponents, a chunk of
replicates at a time, runs the configured estimators on every path, and
reports the mean and standard deviation of the estimates per (H, method)
cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EstimationError
from .estimators import METHODS, default_decomposition, descriptor_rows
from .utils import (check_count, check_distinct, is_real, map_ordered,
                    write_csv)
from .wavelets import dyadic_level, make_filter

_EIGENVALUE_FLOOR = -1e-9

# Replicate rows drawn, transformed and estimated together: large enough
# to amortise the per-call overhead, small enough to keep the packet
# tables jones keeps for a chunk at a few megabytes at length 1024.
_CHUNK = 32


def _check_hurst(value) -> float:
    """``value`` as a float, checked to lie strictly inside (0, 1)."""
    if not (is_real(value) and 0.0 < value < 1.0):
        raise ConfigurationError(
            f"hurst must lie strictly inside (0, 1), got {value!r}")
    return float(value)


def _check_length(length) -> int:
    """log2(``length``); a ConfigurationError unless ``length`` is a power
    of two >= 8."""
    J = dyadic_level(length, "length", ConfigurationError)
    if J < 3:
        raise ConfigurationError(f"length must be >= 8, got {length!r}")
    return J


@dataclass(frozen=True)
class FbmSpec:
    """Parameters of one fractional Brownian motion sample."""

    hurst: float
    length: int
    seed: int

    def __post_init__(self):
        _check_hurst(self.hurst)
        _check_length(self.length)


@dataclass(frozen=True)
class BenchmarkEntry:
    """Aggregated estimates for one (H, method) cell."""

    hurst: float
    method: str
    mean: float
    std: float
    n: int
    failures: int


@dataclass(frozen=True)
class BenchmarkReport:
    """All benchmark cells, ordered by H then method."""

    entries: tuple

    def cell(self, hurst: float, method: str) -> BenchmarkEntry:
        for e in self.entries:
            if e.method == method and abs(e.hurst - hurst) < 1e-12:
                return e
        raise KeyError((hurst, method))

    def write_csv(self, path) -> None:
        """Emit rows H,method,mean,std,n,failures."""
        write_csv(path, ["H", "method", "mean", "std", "n", "failures"],
                  ([e.hurst, e.method, e.mean, e.std, e.n, e.failures]
                   for e in self.entries))


def fgn_autocovariance(hurst: float, lags: np.ndarray) -> np.ndarray:
    """Closed-form fGn autocovariance at integer lags (unit variance)."""
    k = np.abs(np.asarray(lags, dtype=float))
    return 0.5 * ((k + 1.0) ** (2 * hurst)
                  - 2.0 * k ** (2 * hurst)
                  + np.abs(k - 1.0) ** (2 * hurst))


def _embedding_eigenvalues(n: int, hurst: float) -> np.ndarray:
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    lam = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if lam.min() < _EIGENVALUE_FLOOR:
        raise EstimationError(
            f"circulant embedding failed for H={hurst} at length {n}")
    return lam


def _fgn_rows(hurst: float, n: int, rngs, lam=None) -> np.ndarray:
    """(len(rngs), n) fGn draws, row r from generator ``rngs[r]``.

    ``lam`` are the embedding eigenvalues of (n, hurst), computed when not
    given.  Each row takes its normals from its own generator in the same
    order as a one-row call, and the rows share one FFT along axis 1, so a
    row does not depend on the other rows of the batch.
    """
    if lam is None:
        lam = _embedding_eigenvalues(n, hurst)
    m = 2 * n
    z = np.empty((len(rngs), m), dtype=complex)
    for row, rng in zip(z, rngs):
        row[0] = rng.standard_normal() * np.sqrt(2.0)
        row[n] = rng.standard_normal() * np.sqrt(2.0)
        v = rng.standard_normal((n - 1, 2))
        row[1:n] = v[:, 0] + 1j * v[:, 1]
    z[:, n + 1:] = np.conj(z[:, n - 1:0:-1])
    scale = np.sqrt(np.clip(lam, 0.0, None) / (2 * m))
    return np.fft.fft(scale * z, axis=1).real[:, :n]


def fgn_sample(spec: FbmSpec) -> np.ndarray:
    """Draw one fractional Gaussian noise vector, deterministic per seed."""
    return _fgn_rows(spec.hurst, spec.length,
                     [np.random.default_rng(spec.seed)])[0]


def fbm_from_fgn(fgn: np.ndarray) -> np.ndarray:
    """Cumulate noise into a motion path; output[0] equals fgn[0]."""
    return np.cumsum(np.asarray(fgn, dtype=float))


def run_estimator_benchmark(h_grid, n_reps: int, length: int = None,
                            methods=None, master_seed: int = 0,
                            threads: int = 1) -> BenchmarkReport:
    """Estimate H on simulated paths and aggregate per (H, method).

    For every H in ``h_grid``, ``n_reps`` paths of the dyadic ``length``
    (None: 1024) are simulated.  Each of ``methods`` (None: METHODS) runs
    on the same paths with its ``default_decomposition`` of the length.
    Spectrum regressions use all decomposed levels.

    Replicates are processed in chunks of _CHUNK rows: one draw, one FFT
    and one cumulative sum per chunk, then one batched estimator call per
    method.  Per-replicate generator seeds derive from ``master_seed``
    through spawn keys (ih, rep), so results do not depend on the chunk
    size, execution order or thread count.  Estimator failures are counted
    per cell and excluded from the aggregates.
    """
    length = 1024 if length is None else length
    h_grid = [_check_hurst(h) for h in h_grid]  # each H checked as given
    methods = METHODS if methods is None else tuple(methods)
    if not h_grid:
        raise ConfigurationError("empty H grid")
    J = _check_length(length)
    check_distinct(h_grid, "H")  # one cell per (H, method)
    check_count(n_reps, "n_reps", least=2)  # for a standard deviation
    check_count(master_seed, "master_seed", least=0)
    if not methods:
        raise ConfigurationError("no methods requested")
    decompositions = {}  # each method's filter, depth and every level
    for m in methods:
        family, depth = default_decomposition(m, length)
        decompositions[m] = (make_filter(family), depth,
                             tuple(range(J - depth, J)))
    check_distinct(methods, "method")

    eigs = [_embedding_eigenvalues(length, h) for h in h_grid]

    def one_chunk(task):
        """Successful H estimates per method for replicates start..stop-1."""
        ih, start, stop = task
        rngs = [np.random.default_rng(
                    np.random.SeedSequence(master_seed, spawn_key=(ih, rep)))
                for rep in range(start, stop)]
        paths = np.cumsum(_fgn_rows(h_grid[ih], length, rngs, eigs[ih]),
                          axis=1)
        out = {}
        for m, (f, depth, levels) in decompositions.items():
            fits = descriptor_rows(m, paths, f, depth, [levels] * len(paths))
            fitted = [error is None for error in fits.row_errors()]
            out[m] = fits.hurst[fitted].tolist()
        return out

    tasks = [(ih, start, min(start + _CHUNK, n_reps))
             for ih in range(len(h_grid))
             for start in range(0, n_reps, _CHUNK)]
    estimates = {(ih, m): [] for ih in range(len(h_grid)) for m in methods}
    for (ih, _, _), out in zip(tasks, map_ordered(one_chunk, tasks,
                                                  threads=threads)):
        for m, vals in out.items():
            estimates[ih, m].extend(vals)

    entries = []
    for ih, h in enumerate(h_grid):
        for m in methods:
            vals = np.array(estimates[ih, m])
            if len(vals) < 2:
                raise EstimationError(
                    f"too few successful replicates for H={h}, method={m}")
            entries.append(BenchmarkEntry(
                hurst=h, method=m,
                mean=float(vals.mean()),
                std=float(vals.std(ddof=1)),
                n=len(vals), failures=n_reps - len(vals)))
    return BenchmarkReport(entries=tuple(entries))
