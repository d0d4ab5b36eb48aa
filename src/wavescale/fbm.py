"""Exact-covariance fractional Gaussian noise and the estimator benchmark.

Sampling uses circulant embedding of the fGn autocovariance

    gamma(k) = 0.5 * (|k+1|**2H - 2|k|**2H + |k-1|**2H),

which is exact in distribution when the embedding eigenvalues are
nonnegative (they are for fGn in practice); a dense Cholesky factorization
of the covariance matrix serves as a fallback otherwise.  Cumulative
summation turns a noise vector into a fractional Brownian motion path.

The benchmark simulates paths over a grid of Hurst exponents, runs the
configured estimators on every path, and reports the mean and standard
deviation of the estimates per (H, method) cell.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EstimationError
from .estimators import METHODS, scaling_descriptor
from .utils import format_float, map_ordered, resolve_threads
from .wavelets import make_filter, wpd_full

_EIGENVALUE_FLOOR = -1e-9

# Benchmark defaults: spectrum methods decompose with Haar to full depth,
# the rank-size method with the 8-tap symmlet to one level less.
_METHOD_FAMILY = {"dwt": "haar", "wang": "haar", "jones": "symmlet4"}


@dataclass(frozen=True)
class FbmSpec:
    """Parameters of one fractional Brownian motion sample."""

    hurst: float
    length: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ConfigurationError(
                f"hurst must lie strictly inside (0, 1), got {self.hurst}")
        n = self.length
        if n < 8 or n & (n - 1):
            raise ConfigurationError(
                f"length must be a power of two >= 8, got {n}")


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
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["H", "method", "mean", "std", "n", "failures"])
            for e in self.entries:
                w.writerow([format_float(e.hurst), e.method,
                            format_float(e.mean), format_float(e.std),
                            e.n, e.failures])


def fgn_autocovariance(hurst: float, lags: np.ndarray) -> np.ndarray:
    """Closed-form fGn autocovariance at integer lags (unit variance)."""
    k = np.abs(np.asarray(lags, dtype=float))
    return 0.5 * ((k + 1.0) ** (2 * hurst)
                  - 2.0 * k ** (2 * hurst)
                  + np.abs(k - 1.0) ** (2 * hurst))


def _embedding_eigenvalues(n: int, hurst: float) -> np.ndarray:
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    c = np.concatenate([gamma, gamma[-2:0:-1]])
    return np.fft.fft(c).real


def _sample_circulant(lam: np.ndarray, n: int, rng) -> np.ndarray:
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    z = np.empty(m, dtype=complex)
    z[0] = rng.standard_normal() * np.sqrt(2.0)
    z[n] = rng.standard_normal() * np.sqrt(2.0)
    v = rng.standard_normal((n - 1, 2))
    z[1:n] = v[:, 0] + 1j * v[:, 1]
    z[n + 1:] = np.conj(z[1:n][::-1])
    return np.fft.fft(np.sqrt(lam / (2 * m)) * z).real[:n]


def _sample_cholesky(hurst: float, n: int, rng) -> np.ndarray:
    gamma = fgn_autocovariance(hurst, np.arange(n))
    cov = gamma[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])]
    return np.linalg.cholesky(cov) @ rng.standard_normal(n)


def _fgn_from_eigenvalues(lam: np.ndarray, hurst: float, n: int,
                          rng) -> np.ndarray:
    """One fGn draw given the embedding eigenvalues of (n, hurst)."""
    if lam.min() < _EIGENVALUE_FLOOR:
        return _sample_cholesky(hurst, n, rng)
    return _sample_circulant(lam, n, rng)


def _fgn(hurst: float, n: int, rng) -> np.ndarray:
    return _fgn_from_eigenvalues(_embedding_eigenvalues(n, hurst), hurst, n,
                                 rng)


def fgn_sample(spec: FbmSpec) -> np.ndarray:
    """Draw one fractional Gaussian noise vector, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    return _fgn(spec.hurst, spec.length, rng)


def fbm_from_fgn(fgn: np.ndarray) -> np.ndarray:
    """Cumulate noise into a motion path; output[0] equals fgn[0]."""
    return np.cumsum(np.asarray(fgn, dtype=float))


def run_estimator_benchmark(h_grid, n_reps: int, length: int = 1024,
                            methods=METHODS, master_seed: int = 0,
                            threads=None) -> BenchmarkReport:
    """Estimate H on simulated paths and aggregate per (H, method).

    For every H in ``h_grid``, ``n_reps`` independent paths of the given
    dyadic length are simulated.  Each path is decomposed once per filter
    family actually needed (Haar at full depth for the spectrum methods,
    symmlet4 one level shallower for the rank-size method) and every
    requested estimator runs on the same paths.  Spectrum regressions use
    all decomposed levels.

    Per-replicate generator seeds derive from ``master_seed`` through
    spawn keys, so results do not depend on execution order or thread
    count.  Estimator failures are counted per cell and excluded from the
    aggregates.
    """
    h_grid = [float(h) for h in h_grid]
    if n_reps < 1:
        raise ConfigurationError(f"n_reps must be >= 1, got {n_reps}")
    methods = tuple(methods)
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ConfigurationError(f"unknown methods: {sorted(unknown)}")
    if not methods:
        raise ConfigurationError("no methods requested")
    FbmSpec(hurst=0.5, length=length, seed=0)  # validate length early

    threads = resolve_threads(threads)
    J = length.bit_length() - 1
    filters = {fam: make_filter(fam)
               for fam in {_METHOD_FAMILY[m] for m in methods}}
    depth = {"haar": J, "symmlet4": J - 1}

    def one_replicate(args):
        ih, rep, eigs = args
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(ih, rep)))
        path = fbm_from_fgn(_fgn_from_eigenvalues(eigs, h_grid[ih], length,
                                                  rng))
        trees = {fam: wpd_full(path, f, depth[fam])
                 for fam, f in filters.items()}
        out = {}
        for m in methods:
            try:
                out[m] = scaling_descriptor(m, trees[_METHOD_FAMILY[m]]).hurst
            except EstimationError:
                out[m] = None
        return out

    entries = []
    for ih, h in enumerate(h_grid):
        eigs = _embedding_eigenvalues(length, h)
        if eigs.min() < _EIGENVALUE_FLOOR and length > 4096:
            raise EstimationError(
                f"circulant embedding failed for H={h} at length {length}")
        results = map_ordered(one_replicate,
                              [(ih, r, eigs) for r in range(n_reps)],
                              threads=threads)
        for m in methods:
            vals = np.array([r[m] for r in results if r[m] is not None])
            failures = n_reps - len(vals)
            if len(vals) < 2:
                raise EstimationError(
                    f"too few successful replicates for H={h}, method={m}")
            entries.append(BenchmarkEntry(
                hurst=h, method=m,
                mean=float(vals.mean()),
                std=float(vals.std(ddof=1)),
                n=len(vals), failures=failures))
    return BenchmarkReport(entries=tuple(entries))
