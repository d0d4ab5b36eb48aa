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
from typing import NamedTuple

import numpy as np

from .best_basis import best_basis_rows
from .errors import ConfigurationError, EstimationError
from .utils import check_distinct, is_integer
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


def resolve_levels(method: str, request, lo: int, hi: int,
                   source: str = "") -> tuple:
    """The sorted levels of a request (None: all) in the decomposed range
    ``lo..hi``, each an integer named once; else, and for any jones
    request, a ConfigurationError whose message starts with ``source``."""
    if request is None:
        return tuple(range(lo, hi + 1))
    if method == "jones":
        raise ConfigurationError(f"{source}jones fits the whole best basis "
                                 f"and takes no level request")
    for j in request:
        if not is_integer(j):
            raise ConfigurationError(f"{source}level {j!r} is not an integer")
    levels = sorted(map(int, request))
    if not levels:
        raise ConfigurationError(f"{source}no spectrum levels requested")
    for j in levels:
        if not lo <= j <= hi:
            raise ConfigurationError(f"{source}level {j} outside the "
                                     f"decomposed levels {lo}..{hi}")
    return tuple(check_distinct(levels, "level", source))


def _level_groups(method: str, levels, data_level: int, level_sets):
    """The dwt or wang spectra of the rows of the (R, 2**d, m) level
    arrays ``levels`` (d = 0, 1, ...), from one (R, n_levels) table of
    level energies and one log2 over it: groups (rows, xs, ys) of the
    rows that keep the levels xs, ys their log2 energies, and the
    zero-energy levels each row drops from its levels in ``level_sets``."""
    energies = np.array([_level_energies(method, lv)
                         for lv in itertools.islice(levels, 1, None)]).T
    with np.errstate(divide="ignore"):  # zero energies are dropped
        log_energies = np.log2(energies)
    groups, dropped = {}, []
    for wanted, row in zip(level_sets, energies.tolist()):
        kept = tuple(j for j in wanted if not row[data_level - 1 - j] <= 0.0)
        dropped.append([j for j in wanted if j not in kept])
        groups.setdefault(kept, []).append(len(dropped) - 1)
    return [(np.array(rows), np.array(kept, dtype=float),
             log_energies[np.ix_(rows, [data_level - 1 - j for j in kept])])
            for kept, rows in groups.items()], dropped


def _rank_groups(coeffs: np.ndarray) -> list:
    """Groups (rows, xs, ys) of the (R, N) coefficient rows: ys the logs
    of a row's magnitudes in descending order, xs the logs of their ranks
    1..k.  Zeros sort last and are left out; a NaN sorts first and stays."""
    c = np.sort(np.abs(coeffs), axis=1)[:, ::-1]
    n = np.count_nonzero(~(c <= 0.0), axis=1)
    return [(np.flatnonzero(n == k), np.log(np.arange(1.0, k + 1)),
             np.log(c[n == k, :k])) for k in np.flatnonzero(np.bincount(n))]


def _warn_dropped(levels) -> None:
    for j in levels:
        warnings.warn(f"level {j} has zero energy; point dropped",
                      RuntimeWarning, stacklevel=3)


class LineFits(NamedTuple):
    """Least-squares lines of a batch of rows, one entry per row; an
    error slot is None or the row's EstimationError."""

    slope: np.ndarray
    intercept: np.ndarray
    r_squared: np.ndarray
    n_points: np.ndarray
    errors: list
    dropped: list
    hurst: np.ndarray = None

    def row_errors(self):
        """Each row's error slot in row order, after the row's warnings."""
        for levels, error in zip(self.dropped, self.errors):
            _warn_dropped(levels)
            yield error

    def one(self) -> SlopeFit:
        """The SlopeFit of a one-row batch; the row's error is raised."""
        (error,) = self.row_errors()
        if error is not None:
            raise error
        return SlopeFit(float(self.slope[0]), float(self.intercept[0]),
                        int(self.n_points[0]), float(self.r_squared[0]))


_TOO_FEW_LEVELS = "slope fit needs at least 2 spectrum points, got {}"
_TOO_FEW_COEFFS = "rank-size fit needs at least 2 nonzero coefficients"


def _line_fits(groups, too_few: str, dropped) -> LineFits:
    """The fits of the rows of ``dropped``, a group (rows, xs, ys) of rows
    sharing their x values at a time, each bitwise its row's fit alone
    (tests/test_batched_equivalence.py pins the order).  Fewer than two
    points fail with ``too_few``; a non-finite slope fails too."""
    slope, intercept, r2 = np.full((3, len(dropped)), np.nan)
    n_points, errors = np.zeros(len(dropped), dtype=int), [None] * len(dropped)
    for rows, xs, ys in groups:
        n_points[rows] = len(xs)
        if len(xs) < 2:
            for r in rows:
                errors[r] = EstimationError(too_few.format(len(xs)))
            continue
        xm, ym = xs.mean(), ys.mean(axis=1)
        dx, dy = xs - xm, ys - ym[:, None]
        sxx = np.dot(dx, dx)
        sxy = np.matmul(dy[:, None, :], dx[None, :, None])[:, 0, 0]
        syy = np.matmul(dy[:, None, :], dy[:, :, None])[:, 0, 0]
        slope[rows] = sxy / sxx
        intercept[rows] = ym - slope[rows] * xm
        with np.errstate(all="ignore"):  # r² is 1 where syy is 0
            r2[rows] = np.where(syy > 0.0,
                                np.fmin(1.0, sxy * sxy / (sxx * syy)), 1.0)
    for r in np.flatnonzero(~np.isfinite(slope)):
        errors[r] = errors[r] or EstimationError(
            f"fitted slope is not finite: {slope[r]}")
    return LineFits(slope, intercept, r2, n_points, errors, dropped)


def _one_tree(method: str, tree: PacketTree, levels) -> tuple:
    """The level arrays, data level and resolved ``levels`` of ``tree``;
    the levels are checked before the method."""
    J = tree.data_level
    resolved = resolve_levels(method, levels, J - tree.depth, J - 1)
    _check_method(method)
    return [lv[None] for lv in tree.levels], J, [resolved]


def _tree_spectrum(method: str, tree: PacketTree, levels) -> list:
    (((_, xs, ys),), (dropped,)) = _level_groups(
        method, *_one_tree(method, tree, levels))
    _warn_dropped(dropped)
    return [SpectrumPoint(level=int(j), log_energy=y)
            for j, y in zip(xs, ys[0].tolist())]


def spectrum_dwt(tree: PacketTree, levels=None) -> list:
    """Log energies of the pyramid detail node (j, 1) per requested level.

    ``levels`` defaults to every decomposed level; a request is checked by
    ``resolve_levels`` against the levels ``tree`` decomposes.
    Zero-energy levels are dropped with a warning.
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

    Requires at least two points at distinct levels and a finite slope.
    """
    xs = np.array([p.level for p in points], dtype=float)
    ys = np.array([p.log_energy for p in points], dtype=float)
    if len(xs) >= 2 and np.unique(xs).size < 2:
        raise EstimationError("slope fit needs points at distinct levels")
    return _line_fits([(np.array([0]), xs, ys[None])], _TOO_FEW_LEVELS,
                      [()]).one()


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
    their logs are undefined; a NaN is not, and fails the fit.

    Raises EstimationError when fewer than two nonzero values exist or
    the slope is not finite.
    """
    values = np.asarray(values, dtype=float)[None]
    return _line_fits(_rank_groups(values), _TOO_FEW_COEFFS, [()]).one()


_HURST = {"dwt": hurst_dwt, "wang": hurst_wang, "jones": hurst_jones}


def _descriptors(method: str, levels, data_level: int,
                 level_sets) -> LineFits:
    """The fits of the rows of the (R, 2**d, m) level arrays ``levels``
    (d = 0, 1, ...), ``level_sets[r]`` holding row r's resolved levels."""
    if method == "jones":
        levels = list(levels)
        selected, _ = best_basis_rows(levels)
        coeffs = np.empty((len(levels[0]), levels[0].shape[2]))
        for lv, mask in zip(levels, selected):
            np.copyto(coeffs.reshape(lv.shape), lv, where=mask[:, :, None])
        fits = _line_fits(_rank_groups(coeffs), _TOO_FEW_COEFFS,
                          [()] * len(coeffs))
    else:
        groups, dropped = _level_groups(method, levels, data_level,
                                        level_sets)
        fits = _line_fits(groups, _TOO_FEW_LEVELS, dropped)
    return fits._replace(hurst=_HURST[method](fits.slope))


def scaling_descriptor(method: str, tree: PacketTree, levels=None) -> ScalingDescriptor:
    """Run one named estimator on a decomposed signal.

    ``levels`` restricts the spectrum regression for the dwt and wang
    methods and is refused for jones, which always uses the whole basis.
    """
    line = _descriptors(method, *_one_tree(method, tree, levels)).one()
    return ScalingDescriptor(method, line.slope, _HURST[method](line.slope),
                             line)


def descriptor_rows(method: str, rows, f: FilterPair, depth: int,
                    level_sets) -> LineFits:
    """``scaling_descriptor(method, wpd_full(row, f, depth), levels)``
    for every row of the (R, N) matrix ``rows`` as the LineFits of one
    batch, bit for bit; ``row_errors`` issues a row's warnings.

    ``method`` (one of METHODS) and ``level_sets[r]``, row r's levels as
    ``resolve_levels`` returns them, are not checked here, so a caller
    checks them once for any number of batches; ``packet_cascade``
    refuses a ``depth`` that does not fit N.

    Only what a method needs is kept: dwt runs the pyramid alone, wang
    keeps one level's energies at a time, and jones keeps every level for
    the best-basis search and sorts all rows' selected coefficients in one
    call.  A dwt or wang cascade stops at the deepest resolved level: a
    level's energy does not depend on the levels below it, so the outcomes
    and the zero-energy warnings are those of the full ``depth``.
    """
    rows = np.asarray(rows, dtype=float)
    J = rows.shape[1].bit_length() - 1
    if method != "jones":
        depth = J - min((s[0] for s in level_sets), default=J - depth)
    cascade = packet_cascade(rows, f, depth, pyramid=method == "dwt")
    return _descriptors(method, itertools.chain([rows[:, None, :]], cascade),
                        J, level_sets)
