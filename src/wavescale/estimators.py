"""Slope and Hurst-exponent estimators on wavelet packet decompositions.

Three methods share the machinery here:

* ``dwt``   - log2 level energies of the pyramid detail nodes (the (j, 1)
  packet nodes); the fitted slope s maps to H = -(s + 1) / 2.
* ``wang``  - log2 level energies averaged over every detail node of a
  level; the slope s maps to H = -s / 2.
* ``jones`` - rank-size fit of the entropy-best-basis coefficients: sort
  absolute coefficients in descending order, regress ln(value) on
  ln(rank), and map the slope d to H = |d + 1|.

Level energies are mean squared coefficients, so all slopes are invariant
under positive rescaling of the input signal.  For paths with H inside
(0, 1) the dwt spectrum slope lives in (-3, -1) while the wang slope
lives in (-2, 0); the two level-energy conventions differ and must not be
mixed with the other method's H mapping.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .best_basis import best_basis_rows
from .errors import ConfigurationError, EstimationError
from .wavelets import FilterPair, PacketTree, dyadic_level, packet_cascade

# Each method's default decomposition: its wavelet family and how many
# levels short of the full depth log2(signal length) it stops.
_DEFAULTS = {"dwt": ("haar", 0), "wang": ("haar", 0), "jones": ("symmlet4", 1)}
METHODS = tuple(_DEFAULTS)


def _check_method(method: str) -> None:
    if method not in _DEFAULTS:
        raise ConfigurationError(f"unknown method {method!r}; known methods: "
                                 f"{', '.join(METHODS)}")


def default_decomposition(method: str, length: int) -> tuple:
    """The (wavelet family, depth) ``method`` uses by default on a
    ``length``-point signal; a bad method or length is a ConfigurationError."""
    _check_method(method)
    family, short = _DEFAULTS[method]
    return family, dyadic_level(length, "length", ConfigurationError) - short


@dataclass(frozen=True)
class SpectrumPoint:
    """One spectrum sample: decomposition level and base-2 log energy."""

    level: int
    log_energy: float


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least-squares line through spectrum or rank-size points."""

    slope: float
    intercept: float
    n_points: int
    r_squared: float


@dataclass(frozen=True)
class ScalingDescriptor:
    """Method tag, fitted slope, derived Hurst estimate, and diagnostics."""

    method: str
    slope: float
    hurst: float
    fit: SlopeFit


def _level_energies(method: str, level: np.ndarray) -> np.ndarray:
    """(R,) level energies from an (R, 2**d, m) level array: node 1 for
    dwt, the mean over the odd (detail) nodes for wang.  Each mean is a
    sum and then a true division by the count, np.mean's own order, so the
    result is bitwise np.mean(np.mean(det * det, axis=2), axis=1)."""
    det = level[:, 1:2] if method == "dwt" else level[:, 1::2]
    _, nodes, m = det.shape
    per_node = (det * det).sum(axis=2) / m
    return per_node.sum(axis=1) / nodes


def _energy_table(method: str, levels, data_level: int):
    """Level -> column map, the (R, n_levels) level energies of the
    (R, 2**d, m) level arrays ``levels`` (d = 0, 1, ...), and their log2."""
    energies = {data_level - d: _level_energies(method, lv)
                for d, lv in enumerate(levels) if d > 0}
    table = np.array(list(energies.values())).T
    with np.errstate(divide="ignore"):  # zero energies are dropped later
        log_table = np.log2(table)
    return {j: c for c, j in enumerate(energies)}, table, log_table


def _row_spectrum(request, columns: dict, energies: np.ndarray,
                  log_energies: np.ndarray):
    """Levels (as floats) and log2 energies of one row's spectrum.

    ``request`` lists the levels to keep (None: every level of
    ``columns``, which maps a level to its column of the row's
    ``energies``); zero-energy levels are dropped with a warning.
    """
    levels = sorted(columns if request is None
                    else set(int(j) for j in request))
    if not levels:
        raise ConfigurationError("no spectrum levels requested")
    for j in levels:
        if j not in columns:
            raise ConfigurationError(
                f"level {j} not present (decomposed levels: "
                f"{sorted(columns)})")
    row, kept = energies.tolist(), []
    for j in levels:
        if row[columns[j]] <= 0.0:
            warnings.warn(
                f"level {j} has zero energy; point dropped", RuntimeWarning,
                stacklevel=4)
        else:
            kept.append(j)
    return (np.array(kept, dtype=float),
            log_energies[[columns[j] for j in kept]])


def _tree_spectrum(method: str, tree: PacketTree, levels) -> list:
    columns, energies, log_energies = _energy_table(
        method, [lv[None] for lv in tree.levels], tree.data_level)
    xs, ys = _row_spectrum(levels, columns, energies[0], log_energies[0])
    return [SpectrumPoint(level=int(j), log_energy=y)
            for j, y in zip(xs, ys.tolist())]


def spectrum_dwt(tree: PacketTree, levels=None) -> list:
    """Log energies of the pyramid detail node (j, 1) per requested level.

    ``levels`` defaults to every decomposed level.  Zero-energy levels are
    dropped with a warning; an empty request raises ConfigurationError.
    """
    return _tree_spectrum("dwt", tree, levels)


def spectrum_wang(tree: PacketTree, levels=None) -> list:
    """Log energies averaged across all detail nodes of each level.

    A detail node is any node reached through a final high-pass step (odd
    index); level j holds 2**(J-j-1) of them.  The level energy is the
    mean over detail nodes of the per-node mean squared coefficient, which
    coincides with spectrum_dwt on the first decomposition level where the
    only detail node is (J-1, 1).
    """
    return _tree_spectrum("wang", tree, levels)


def fit_slope(points) -> SlopeFit:
    """Least-squares slope of log energy against level index.

    Requires at least two points at distinct levels.
    """
    xs = np.array([p.level for p in points], dtype=float)
    ys = np.array([p.log_energy for p in points], dtype=float)
    if len(xs) >= 2 and np.unique(xs).size < 2:
        raise EstimationError("slope fit needs points at distinct levels")
    return _level_fit((xs, ys))


def _ols(xs: np.ndarray, ys: np.ndarray) -> SlopeFit:
    xm, ym = xs.mean(), ys.mean()
    dx, dy = xs - xm, ys - ym
    sxx = float(np.dot(dx, dx))
    sxy = float(np.dot(dx, dy))
    syy = float(np.dot(dy, dy))
    slope = sxy / sxx
    intercept = ym - slope * xm
    if syy > 0.0:
        r2 = min(1.0, sxy * sxy / (sxx * syy))
    else:
        r2 = 1.0
    return SlopeFit(slope=slope, intercept=intercept,
                    n_points=len(xs), r_squared=r2)


def _level_fit(spectrum) -> SlopeFit:
    """Line through one row's (levels, log energies) from _row_spectrum,
    whose levels are distinct; needs at least two of them."""
    xs, ys = spectrum
    if len(xs) < 2:
        raise EstimationError(
            f"slope fit needs at least 2 spectrum points, got {len(xs)}")
    return _ols(xs, ys)


def hurst_dwt(slope: float) -> float:
    """H = -(slope + 1) / 2; not clamped to [0, 1]."""
    return -(slope + 1.0) / 2.0


def hurst_wang(slope: float) -> float:
    """H = -slope / 2; not clamped to [0, 1]."""
    return -slope / 2.0


def hurst_jones(slope: float) -> float:
    """H = |slope + 1| for a rank-size slope; not clamped to [0, 1]."""
    return abs(slope + 1.0)


def rank_size_fit(values) -> SlopeFit:
    """Log-log regression of sorted magnitudes against their rank.

    Absolute values are sorted in descending order and paired with ranks
    1..N, so an exceedance law count(value > a) ~ a**(-delta) shows up as
    a straight line of ln(value) against ln(rank).  Zero entries (a
    measure-zero event for real-valued coefficients) are excluded since
    their logs are undefined.

    Raises EstimationError when fewer than two nonzero values exist.
    """
    magnitudes = np.abs(np.asarray(values, dtype=float))
    return _rank_size_sorted(np.sort(magnitudes)[::-1])


def _rank_size_sorted(c: np.ndarray) -> SlopeFit:
    ranks = np.arange(1, len(c) + 1, dtype=float)
    nz = c > 0.0
    if np.count_nonzero(nz) < 2:
        raise EstimationError(
            "rank-size fit needs at least 2 nonzero coefficients")
    return _ols(np.log(ranks[nz]), np.log(c[nz]))


_HURST = {"dwt": hurst_dwt, "wang": hurst_wang, "jones": hurst_jones}


def _descriptors(method: str, levels, data_level: int, level_sets):
    """One outcome per row of the (R, 2**d, m) level arrays ``levels``
    (d = 0, 1, ...), with ``level_sets[r]`` restricting row r's spectrum:
    the row's descriptor, or an EstimationError: the one its fit raised,
    or one for a slope that is not finite (as when level energies
    overflow)."""
    _check_method(method)
    if method == "jones":
        levels = list(levels)
        selected, _ = best_basis_rows(levels)
        coeffs = np.empty((len(levels[0]), levels[0].shape[2]))
        for lv, mask in zip(levels, selected):
            np.copyto(coeffs.reshape(lv.shape), lv, where=mask[:, :, None])
        fit, args = _rank_size_sorted, np.sort(np.abs(coeffs), axis=1)[:, ::-1]
    else:
        columns, energies, log_energies = _energy_table(method, levels,
                                                        data_level)
        fit, args = _level_fit, (
            _row_spectrum(lv_set, columns, energies[r], log_energies[r])
            for r, lv_set in enumerate(level_sets))
    for a in args:
        try:
            line = fit(a)
            if not np.isfinite(line.slope):
                raise EstimationError(
                    f"fitted slope is not finite: {line.slope}")
        except EstimationError as exc:
            yield exc
        else:
            yield ScalingDescriptor(method, line.slope,
                                    _HURST[method](line.slope), line)


def scaling_descriptor(method: str, tree: PacketTree, levels=None) -> ScalingDescriptor:
    """Run one named estimator on a decomposed signal.

    ``levels`` restricts the spectrum regression for the dwt and wang
    methods and is ignored by jones, which always uses the whole basis.
    """
    d = next(_descriptors(
        method, [lv[None] for lv in tree.levels], tree.data_level, [levels]))
    if isinstance(d, EstimationError):
        raise d
    return d


def scaling_descriptors(method: str, rows, f: FilterPair, depth: int,
                        level_sets=None):
    """Yield ``scaling_descriptor(method, wpd_full(row, f, depth), levels)``
    for every row of the (R, N) matrix ``rows``, bit for bit, computed as
    one batch; a row whose fit fails yields its EstimationError instead.

    ``level_sets[r]`` restricts row r's spectrum (default: all levels).
    Only what a method needs is kept: dwt runs the pyramid alone, wang
    keeps one level's energies at a time, and jones keeps every level for
    the best-basis search and sorts all rows' selected coefficients in one
    call.  When every row of a dwt or wang run has a level set and each
    requested level is one of the ``depth`` decomposed levels, the cascade
    stops at the deepest requested level: a level's energy does not depend
    on the levels below it, so the outcomes and the zero-energy warnings
    are those of the full ``depth``.
    """
    rows = np.asarray(rows, dtype=float)
    J = dyadic_level(rows.shape[1])
    if level_sets is None:
        level_sets = [None] * len(rows)
    elif method != "jones" and None not in level_sets and depth <= J:
        wanted = {int(j) for s in level_sets for j in s}
        if wanted and wanted <= set(range(J - depth, J)):
            depth = J - min(wanted)
    cascade = packet_cascade(rows, f, depth, pyramid=method == "dwt")
    yield from _descriptors(method, itertools.chain([rows[:, None, :]], cascade),
                            J, level_sets)
