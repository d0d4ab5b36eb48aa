"""Orthonormal filter banks and periodic Mallat-cascade decompositions.

Level convention used throughout the package: a signal of dyadic length
N = 2**J sits at level J, the first analysis step produces level J - 1,
and the deepest possible level is 0 (single-coefficient nodes).  Node
(j, n) holds 2**j coefficients for a full-length signal; its children are
(j - 1, 2n) through the low-pass filter and (j - 1, 2n + 1) through the
high-pass filter.

All transforms use periodic (circular) boundary extension, which keeps
every decomposition level exactly orthonormal regardless of filter length,
so per-level energy equals the input energy (Parseval).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ShapeError
from .utils import is_integer

SQRT2 = np.sqrt(2.0)

# Low-pass analysis taps.  Haar is exact; the 8-tap symmlet with four
# vanishing moments uses the standard published values (normalized so the
# taps sum to sqrt(2) and have unit energy).
_LOW_PASS_TAPS = {
    "haar": np.array([1.0, 1.0]) / SQRT2,
    "symmlet4": np.array([
        -0.07576571478927333,
        -0.02963552764599851,
        0.49761866763201545,
        0.8037387518059161,
        0.29785779560527736,
        -0.09921954357684722,
        -0.012603967262037833,
        0.0322231006040427,
    ]),
}


@dataclass(frozen=True)
class FilterPair:
    """Orthonormal low/high-pass analysis pair defining a wavelet family."""

    family: str
    low: np.ndarray
    high: np.ndarray
    length: int


@dataclass(frozen=True)
class PacketTree:
    """Full wavelet packet table of a dyadic-length signal.

    ``levels[d]`` is a (2**d, N / 2**d) matrix whose rows are the nodes of
    level ``J - d`` in index order; ``levels[0]`` is the input signal
    itself.  Rows are read-only views shared across threads safely.
    """

    depth: int
    data_level: int
    levels: tuple = field(repr=False)

    def coeffs(self, level: int, index: int) -> np.ndarray:
        """Coefficient vector of node (level, index)."""
        d = self.data_level - level
        if d < 0 or d > self.depth:
            raise ConfigurationError(
                f"level {level} not present (decomposed levels are "
                f"{self.data_level - self.depth}..{self.data_level})")
        if not 0 <= index < (1 << d):
            raise ConfigurationError(
                f"node index {index} out of range at level {level}")
        return self.levels[d][index]


@dataclass(frozen=True)
class DwtDecomposition:
    """Pyramid coefficients: one approximation block plus per-level details.

    ``details[j]`` holds the detail coefficients of level j for
    j = approx_level .. data_level - 1; ``approx`` sits at ``approx_level``.
    """

    data_level: int
    approx_level: int
    approx: np.ndarray
    details: dict


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def make_filter(family: str) -> FilterPair:
    """Build the analysis filter pair for a named wavelet family.

    The high-pass taps follow the quadrature-mirror relation
    g[k] = (-1)**k * h[L-1-k].  The tap tables are constants; the unit
    tests pin their sum sqrt(2), unit energy and vanishing even-shift
    autocorrelation, each to 1e-12.

    Raises
    ------
    ConfigurationError
        If the family is unknown.
    """
    try:
        low = _LOW_PASS_TAPS[family].copy()
    except KeyError:
        raise ConfigurationError(
            f"unknown wavelet family {family!r}; "
            f"choose from {sorted(_LOW_PASS_TAPS)}") from None
    L = len(low)
    k = np.arange(L)
    high = (-1.0) ** k * low[::-1]
    return FilterPair(family, _freeze(low), _freeze(high), L)


def _analysis_rows(rows: np.ndarray, f: FilterPair):
    """One analysis step applied to every row of a matrix.

    Row r maps to approx[r, k] = sum_i h[i] * rows[r, (2k+i) mod n] and the
    analogous high-pass output; both halves have n/2 columns.  The rows are
    extended periodically by L - 2 columns, so tap i reads the strided view
    ``ext[:, i:i + n - 1:2]``.  Taps accumulate in index order so results
    are bit-identical regardless of how many rows are processed together.
    """
    n = rows.shape[1]
    if n % 2:
        raise ShapeError(f"analysis step needs an even length, got {n}")
    ext = np.concatenate((rows, rows[:, np.arange(f.length - 2) % n]), axis=1)
    approx = np.zeros((rows.shape[0], n // 2))
    detail = np.zeros_like(approx)
    term = np.empty_like(approx)
    for i in range(f.length):
        cols = ext[:, i:i + n - 1:2]
        approx += np.multiply(f.low[i], cols, out=term)
        detail += np.multiply(f.high[i], cols, out=term)
    return approx, detail


def analysis_step(x: np.ndarray, f: FilterPair):
    """Split a vector into approximation and detail halves.

    Periodic extension: coefficient k of each output reads the input at
    positions (2k + i) mod len(x).  Raises ShapeError on odd input length.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError("analysis_step expects a 1-D vector")
    approx, detail = _analysis_rows(x[None, :], f)
    return approx[0], detail[0]


def synthesis_step(approx: np.ndarray, detail: np.ndarray, f: FilterPair) -> np.ndarray:
    """Adjoint of analysis_step; exact inverse for orthonormal pairs.

    Kept for reconstruction checks and for building packet basis vectors;
    the estimators themselves never synthesize.
    """
    approx = np.asarray(approx, dtype=float)
    detail = np.asarray(detail, dtype=float)
    if approx.shape != detail.shape or approx.ndim != 1:
        raise ShapeError("approx and detail must be 1-D and equally long")
    half = len(approx)
    n = 2 * half
    x = np.zeros(n)
    pos = 2 * np.arange(half)
    for i in range(f.length):
        p = (pos + i) % n
        x[p] += f.low[i] * approx
        x[p] += f.high[i] * detail
    return x


def dyadic_level(n, source: str = "signal length", error=ShapeError) -> int:
    """log2(n) for a power of two n >= 2 given as a Python or numpy
    integer; anything else raises ``error`` naming the length ``source``."""
    if not is_integer(n) or n < 2 or n & (n - 1):
        raise error(f"{source} {n!r} is not a power of two")
    return int(n).bit_length() - 1


def check_depth(depth, J: int) -> None:
    """Raise ConfigurationError unless ``depth`` is an integer in 1..J."""
    if not (is_integer(depth) and 1 <= depth <= J):
        raise ConfigurationError(f"depth must be in 1..{J}, got {depth}")


def packet_cascade(rows: np.ndarray, f: FilterPair, depth: int,
                   pyramid: bool = False):
    """Yield levels d = 1..depth of the packet tables of every row at once.

    ``rows`` is a (R, N) matrix of dyadic-length signals (any strides).
    Level d comes out as an (R, 2**d, N / 2**d) array whose [r, n] entry is
    node (J - d, n) of row r, computed by one ``_analysis_rows`` call on all
    R * 2**(d-1) parent nodes, so every row's coefficients are bitwise those
    of a one-row run.  With ``pyramid`` only the approximation node is
    split and each level holds just nodes 0 and 1 (the DWT pyramid).
    Requires 1 <= depth <= J.
    """
    check_depth(depth, dyadic_level(rows.shape[1]))
    level = rows[:, None, :]
    for _ in range(depth):
        parents = level[:, :1] if pyramid else level
        r, k, m = parents.shape
        approx, detail = _analysis_rows(parents.reshape(r * k, m), f)
        level = np.empty((r, 2 * k, m // 2))
        level[:, 0::2] = approx.reshape(r, k, m // 2)
        level[:, 1::2] = detail.reshape(r, k, m // 2)
        yield level


def dwt_forward(x: np.ndarray, f: FilterPair, depth: int) -> DwtDecomposition:
    """Pyramid transform: iterate the analysis step on the approximation.

    ``depth`` steps leave the approximation at level J - depth along with
    detail vectors for levels J - 1 down to J - depth.  Requires a dyadic
    length and 1 <= depth <= J.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError("dwt_forward expects a 1-D vector")
    J = dyadic_level(len(x))
    details = {}
    pyramid = packet_cascade(x[None], f, depth, pyramid=True)
    for step, level in enumerate(pyramid, 1):
        details[J - step] = _freeze(level[0, 1])
    return DwtDecomposition(
        data_level=J,
        approx_level=J - depth,
        approx=_freeze(level[0, 0]),
        details=details,
    )


def wpd_full(x: np.ndarray, f: FilterPair, depth: int) -> PacketTree:
    """Full packet decomposition: both filters applied to every node.

    Level J - d (d = 1..depth) receives 2**d nodes; every level carries N
    coefficients in total.  Requires a dyadic length and 1 <= depth <= J.
    This is the one-row call of ``packet_cascade``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError("wpd_full expects a 1-D vector")
    J = dyadic_level(len(x))
    levels = [x[None, :].copy()]
    levels += [lv[0] for lv in packet_cascade(x[None], f, depth)]
    return PacketTree(
        depth=depth,
        data_level=J,
        levels=tuple(_freeze(lv) for lv in levels),
    )
