"""Spectra ingestion, rolling-window descriptor extraction, and screening.

A dataset is a samples-by-bins intensity matrix with binary labels
(case = 1, control = 0) and an optional vector of mass-to-charge values
for the bins.  Fixed-length windows slide along the bin axis; each
(sample, window) pair yields one scaling descriptor, giving a compact
feature matrix for classification.  Fisher's criterion ranks windows by
class separation and a Wilcoxon rank-sum screen verifies significance.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, EstimationError, IngestionError
from .estimators import (default_decomposition, descriptor_rows,
                         resolve_levels)
from .utils import (check_count, first_repeat, is_integer, map_ordered,
                    write_csv)
from .wavelets import dyadic_level, make_filter

LABEL_ALIASES = {"case": 1, "control": 0, "1": 1, "0": 0}


def _check_ascending(mz) -> None:
    """Raise IngestionError naming the first bin of ``mz`` below the one
    before it or not a number."""
    down = np.flatnonzero(~(np.diff(mz) >= 0))
    if len(down):
        raise IngestionError(f"m/z axis is not ascending at bin {down[0] + 2}")


@dataclass(frozen=True)
class SpectraDataset:
    """Intensity matrix plus labels, ids, and optional m/z axis."""

    intensities: np.ndarray
    labels: np.ndarray
    sample_ids: tuple
    mz_values: np.ndarray = None

    def __post_init__(self):
        n, m = self.intensities.shape
        if len(self.labels) != n or len(self.sample_ids) != n:
            raise IngestionError("labels/ids do not match the intensity rows")
        if not np.isin(self.labels, (0, 1)).all():
            raise IngestionError("labels must be 0 (control) or 1 (case)")
        for s, b in np.argwhere(~np.isfinite(self.intensities))[:1]:
            raise IngestionError(
                f"sample {self.sample_ids[s]!r} bin {b + 1}: intensity "
                f"{float(self.intensities[s, b])!r} is not finite")
        if self.mz_values is not None:
            if len(self.mz_values) != m:
                raise IngestionError(
                    f"m/z axis has {len(self.mz_values)} entries for {m} bins")
            _check_ascending(self.mz_values)

    @property
    def n_samples(self) -> int:
        return self.intensities.shape[0]

    @property
    def n_bins(self) -> int:
        return self.intensities.shape[1]


@dataclass(frozen=True)
class WindowGrid:
    """``count`` rolling windows of ``window_len`` bins, ``stride`` apart,
    from bin 0."""

    window_len: int
    stride: int
    count: int

    @property
    def windows(self) -> tuple:
        """Each window's bins as [start, end)."""
        return tuple((w * self.stride, w * self.stride + self.window_len)
                     for w in range(self.count))


@dataclass(frozen=True)
class MethodConfig:
    """Decomposition settings of one estimator on windows of one length,
    checked when made.

    ``method`` runs on ``window_len``-bin windows (None: 1024) with the
    ``family`` and ``depth`` (None: ``default_decomposition``).
    ``level_plan`` restricts the spectrum regression per window: a tuple
    of (first_window, last_window, levels) entries with 1-based inclusive
    window numbers (None: the plan ``dataset_tag`` selects, e.g.
    "ovarian-8-7-02", none for jones).  Windows not covered by any entry
    use all decomposed levels.

    A ConfigurationError names the bad value unless the window length is
    a power of two, the method, tag and family are known, the depth lies
    in least..log2(window_len) and the plan's entries cover disjoint
    integer windows 1 <= lo <= hi with levels ``resolve_levels`` takes
    (and keeps, resolved), two or more: dwt and wang fit a slope
    (``least`` 2), jones the whole basis (``least`` 1, no plan).  A
    default depth that is too small is reported as a too short window.
    """

    method: str
    window_len: int = None
    family: str = None
    depth: int = None
    level_plan: tuple = None
    dataset_tag: InitVar[str] = None

    def __post_init__(self, dataset_tag):
        method = self.method
        window_len = (_WINDOW_LEN if self.window_len is None
                      else self.window_len)
        J = dyadic_level(window_len, "window length", ConfigurationError)
        family, depth = default_decomposition(method, window_len)
        tags = sorted({tag for tag, _ in LEVEL_PLANS})
        if dataset_tag is not None and dataset_tag not in tags:
            raise ConfigurationError(f"unknown dataset tag {dataset_tag!r}; "
                                     f"known tags: {', '.join(tags)}")
        plan = self.level_plan
        if plan is None:
            plan = LEVEL_PLANS.get((dataset_tag, method), ())
        family = make_filter(family if self.family is None
                             else self.family).family
        least = 1 if method == "jones" else 2
        if self.depth is None and depth < least:
            raise ConfigurationError(
                f"window length {window_len} is too short for the default "
                f"{method} depth, {depth}: it must be at least {least}")
        depth = depth if self.depth is None else self.depth
        if not (is_integer(depth) and least <= depth <= J):
            raise ConfigurationError(
                f"depth {depth} does not fit window length "
                f"{window_len}: {method} needs it in {least}..{J}")
        resolved = []
        for i, (lo, hi, levels) in enumerate(plan):
            for bound in (lo, hi):
                if not is_integer(bound):
                    raise ConfigurationError(f"levels entry {i}: window bound "
                                             f"{bound!r} is not an integer")
            if not 1 <= lo <= hi:
                raise ConfigurationError(
                    f"levels entry {i}: windows must satisfy 1 <= lo <= hi, "
                    f"got [{lo}, {hi}]")
            for k, (lo_k, hi_k, _) in enumerate(plan[:i]):
                if lo <= hi_k and lo_k <= hi:
                    raise ConfigurationError(
                        f"levels entry {i}: windows [{lo}, {hi}] overlap "
                        f"levels entry {k}'s windows [{lo_k}, {hi_k}]")
            levels = resolve_levels(
                method, levels, J - depth, J - 1,
                f"levels entry {i} (window length {window_len}, depth "
                f"{depth}): ")
            if len(levels) < 2:
                raise ConfigurationError(
                    f"levels entry {i}: {method} fits a slope through at "
                    f"least 2 distinct levels, got {list(levels)}")
            resolved.append((lo, hi, levels))
        for name, value in (("window_len", int(window_len)),
                            ("family", family), ("depth", depth),
                            ("level_plan", tuple(resolved))):
            object.__setattr__(self, name, value)

    def levels_for(self, window_number: int):
        for lo, hi, levels in self.level_plan:
            if lo <= window_number <= hi:
                return levels
        return None


# Window-group level plans for the two public ovarian SELDI-TOF datasets,
# stated in the package level convention (data level = 10 for 1024-point
# windows).  Plan level "L" rows below translate published per-window
# choices that count decomposition levels from the coarsest upward.
LEVEL_PLANS = {
    ("ovarian-4-3-02", "dwt"): ((1, 11, (6, 7, 8, 9)), (12, 29, (5, 6, 7, 8))),
    ("ovarian-8-7-02", "dwt"): ((1, 11, (7, 8, 9)), (12, 29, (6, 7, 8, 9))),
    ("ovarian-4-3-02", "wang"): ((1, 10, (6, 7, 8, 9)), (11, 29, (5, 6, 7, 8))),
    ("ovarian-8-7-02", "wang"): ((1, 15, (7, 8, 9)), (16, 29, (5, 6, 7, 8, 9))),
}


_WINDOW_LEN, _STRIDE = 1024, 500  # the paper's rolling windows


def extract_settings(method: str, dataset_tag: str = None, wavelet=None,
                     depth=None, level_plan=None, window_len=None,
                     stride=None, *, stride_source: str):
    """The checked (MethodConfig, window length, stride) of ``extract``'s
    flags or a run config's keys, None taking MethodConfig's default or a
    stride of 500; a stride that is not an integer >= 1 is an error naming
    ``stride_source``."""
    method_config = MethodConfig(method, window_len, wavelet, depth,
                                 level_plan, dataset_tag)
    stride = check_count(_STRIDE if stride is None else stride, stride_source)
    return method_config, method_config.window_len, stride


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-(sample, window) slopes with Hurst estimates kept alongside.

    ``slopes`` is the classifier input; ``hurst`` is derived per method
    and carried for reporting.
    """

    method: str
    slopes: np.ndarray
    hurst: np.ndarray
    labels: np.ndarray
    sample_ids: tuple
    grid: WindowGrid = None

    @property
    def n_windows(self) -> int:
        return self.slopes.shape[1]

    def write_csv(self, path) -> None:
        """Rows sample_id,label,w01..wW holding slope values."""
        width = max(2, len(str(self.n_windows)))
        write_csv(path, ["sample_id", "label"]
                  + [f"w{i + 1:0{width}d}" for i in range(self.n_windows)],
                  ([sid, int(label), *row] for sid, label, row
                   in zip(self.sample_ids, self.labels, self.slopes)))


def _is_header(line: str) -> bool:
    """Whether ``line`` opens a file as a header: its first field is not a
    number."""
    try:
        float(line.split(",", 1)[0].strip())
    except ValueError:
        return True
    return False


def _read_text(path) -> str:
    try:
        # UTF-8, with a leading byte-order mark (as some spreadsheets write)
        # dropped
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc


# np.loadtxt quotes the value as repr does: in double quotes when it holds a '
_BAD_NUMBER = re.compile(
    r"""string (['"])(.*)\1 to \w+ at row (\d+), column (\d+)""")


def _read_csv(path, header=(), n_text=0, width=None, dtype=float,
              usecols=None):
    """Parse one CSV into (header, first ``n_text`` fields of each data row,
    array of the other fields from one np.loadtxt call of ``dtype`` and
    ``usecols``: a float matrix, or one entry per row for another dtype).
    The header starts with ``header`` (None: only a first line not
    starting with a number is a header); every line is ``width`` fields
    wide, by default the header's.  Fields split at each comma, with no
    quoting.  Errors name the file, the 1-based row and, for a bad number,
    the column, read from np.loadtxt's message, which counts data rows
    from 0."""
    raw = _read_text(path)
    lines = raw.splitlines() or [""]
    head = [c.strip() for c in lines[0].split(",")]
    if header is None:
        if not _is_header(lines[0]):
            head = None
    elif [c.lower() for c in head[:len(header)]] != list(header):
        raise IngestionError(f"{path}: row 1: expected a header starting "
                             f"{','.join(header)}, got {lines[0]!r}")
    first = 1 if head is None else 2
    if len(lines) < first:
        raise IngestionError(f"{path}: no data rows after row 1")
    width = width or len(head)
    # a bytes field drops a trailing NUL, which a float field rejects, so
    # none may follow the header
    if dtype is not float and "\0" in raw[len(lines[0]) if head else 0:]:
        raise IngestionError(f"{path}: a NUL cannot be read as bytes")

    def check_rows():
        for line, row in enumerate(lines, start=1):
            if not row.strip():
                raise IngestionError(f"{path}: row {line} is blank")
            if row.count(",") + 1 != width:
                raise IngestionError(f"{path}: row {line} has {row.count(',') + 1}"
                                     f" columns, expected {width}")

    # np.loadtxt skips blank lines and, given usecols, takes rows of any width
    if (n_text or usecols is not None or "" in lines
            or lines[0].count(",") + 1 != width):
        check_rows()
    rows, text = lines[first - 1:], None
    if n_text:
        parts = [row.split(",", n_text) for row in rows]
        text = [[f.strip() for f in p[:n_text]] for p in parts]
        rows = [p[-1] for p in parts] if width > n_text else []
    values = np.empty((len(text or ()), 0))
    if rows:
        try:
            values = np.loadtxt(rows, dtype, delimiter=",", comments=None,
                                usecols=usecols,
                                ndmin=2 if dtype is float else 1)
        except ValueError as exc:
            check_rows()
            bad = _BAD_NUMBER.search(str(exc))
            where = (f"row {first + int(bad[3])} column {n_text + int(bad[4])}"
                     f": non-numeric value {bad[2]!r}") if bad else exc
            raise IngestionError(f"{path}: {where}") from None
    if values.ndim == 2 and values.shape[1] != width - n_text:
        check_rows()
    return head, text, values


def _label_map(path, text) -> dict:
    """sample_id -> 0/1 from the (sample_id, label) fields of rows 2, 3, ..."""
    labels = {}
    for line, (sid, raw) in enumerate(text, start=2):
        if raw.lower() not in LABEL_ALIASES:
            raise IngestionError(f"{path}: row {line}: sample {sid!r} has "
                                 f"unknown label {raw!r}")
        if sid in labels:
            raise IngestionError(f"{path}: row {line}: duplicate sample id {sid!r}")
        labels[sid] = LABEL_ALIASES[raw.lower()]
    return labels


def load_labels(labels_path) -> dict:
    """Read a sample_id -> {0, 1} map from a two-column CSV."""
    _, text, _ = _read_csv(labels_path, ("sample_id", "label"), 2, 2)
    return _label_map(labels_path, text)


def _read_samples(directory, names):
    """The m/z grid and (samples, bins) intensities of the two-column
    sample files ``names`` in ``directory``."""
    mz = intens = grid = None
    for s, name in enumerate(names):
        fp = directory / name
        if grid is not None:
            try:
                _, _, values = _read_csv(fp, header=None, width=2, dtype=[
                    ("mz", grid.dtype), ("v", float)])
            except IngestionError:  # the float read below decides
                values = None
            if values is not None and values["mz"].tobytes() == grid_text:
                intens[s] = values["v"]
                continue
            grid = None  # the grids differ in text: read the rest as floats
        head, _, values = _read_csv(fp, header=None, width=2)
        if mz is None:
            mz, intens = values[:, 0].copy(), np.empty((len(names), len(values)))
            # one byte wider than the longest field, so that a longer field
            # of a later file cannot compare equal once cut to that width
            try:
                _, _, grid = _read_csv(fp, header=None, width=2,
                                       dtype=bytes, usecols=0)
                grid = grid.astype(f"S{grid.itemsize + 1}")
                grid_text = grid.tobytes()
            except IngestionError:  # a number with a space not in latin-1
                grid = None
        n = min(len(mz), len(values))
        off = ~(abs(values[:n, 0] - mz[:n]) <= 1e-9 * np.maximum(1.0, abs(mz[:n])))
        if off.any() or len(values) != len(mz):
            row = (1 if head is None else 2) + (off.argmax() if off.any() else n)
            raise IngestionError(
                f"{fp}: row {row}: m/z grid does not match the first "
                f"sample's ({len(values)} bins, expected {len(mz)})")
        intens[s] = values[:, 1]
    return mz, intens


def load_dataset(matrix_path, labels_path) -> SpectraDataset:
    """Load intensities and labels from disk.

    ``matrix_path`` is either a single matrix CSV (header row of sample
    ids, first column m/z, remaining columns per-sample intensities) or a
    directory of two-column (m/z, intensity) CSVs listed by a
    ``manifest.csv`` with columns sample_id,filename.  ``labels_path`` is
    a CSV mapping sample_id to case/control (or 1/0).

    The labels are read first, then the sample ids: a matrix's header, or
    a directory's manifest, whose ids are checked, each labeled and none
    repeated, before any sample file is opened.

    A directory's m/z grid is parsed once, from its first file: a later
    file whose m/z fields repeat the first file's byte for byte has them
    read as bytes and only its intensities parsed.  The first file whose
    m/z text differs, and every file after it, have their m/z values
    parsed and checked against the grid's within a tolerance, with the
    same result.

    IngestionError names the file and row of the offending record.
    """
    label_map = load_labels(labels_path)
    directory = Path(matrix_path).is_dir()
    if directory:
        manifest = Path(matrix_path) / "manifest.csv"
        _, text, _ = _read_csv(manifest, ("sample_id", "filename"), 2, 2)
        ids = [sid for sid, _ in text]
        at = f"{manifest}: row "
    else:
        head, _, values = _read_csv(matrix_path)
        ids = head[1:]
        if not ids:
            raise IngestionError(f"{matrix_path}: header lists no sample columns")
        at = f"{matrix_path}: row 1 column "
    # ids[s] is at row or column s + 2; every id up to a repeat is labeled
    repeat = first_repeat(ids)
    for s, sid in enumerate(ids[:repeat[1]] if repeat else ids):
        if sid not in label_map:
            raise IngestionError(
                f"{at}{s + 2}: no label for {sid!r} in {labels_path}")
    if repeat:
        raise IngestionError(f"{at}{repeat[1] + 2}: duplicate sample id "
                             f"{ids[repeat[1]]!r}")
    if directory:
        mz, intens = _read_samples(manifest.parent, [name for _, name in text])
    else:
        mz, intens = values[:, 0].copy(), values[:, 1:].T.copy()
    labels = np.array([label_map[sid] for sid in ids], dtype=np.int8)
    return SpectraDataset(
        intensities=intens, labels=labels,
        sample_ids=tuple(ids), mz_values=mz)


def make_windows(n_bins: int, window_len: int = _WINDOW_LEN,
                 stride: int = _STRIDE) -> WindowGrid:
    """Rolling-window grid: window w covers [(w-1)*stride, ... + window_len).

    Produces floor((n_bins - window_len) / stride + 1) windows; bins past
    the last window are not covered.
    """
    if not (is_integer(window_len) and 1 <= window_len <= n_bins):
        raise ConfigurationError(
            f"window_len {window_len} does not fit {n_bins} bins")
    check_count(stride, "stride")
    return WindowGrid(window_len, stride, (n_bins - window_len) // stride + 1)


def extract_features(dataset: SpectraDataset, method: str, grid: WindowGrid,
                     method_config: MethodConfig = None,
                     threads: int = 1) -> FeatureMatrix:
    """Estimate one scaling descriptor per (sample, window).

    The grid must fit the dataset's bins, and ``method_config`` (default:
    ``MethodConfig(method, grid.window_len)``) must be made for ``method``
    on windows of the grid's length.  Each sample's windows are fitted as
    one batch (``descriptor_rows``), with the level sets the config
    resolved.
    A failed estimate aborts the run (naming the sample and window)
    rather than leaving holes in the matrix, after the zero-energy
    warnings of the windows up to it.  A dwt or wang decomposition stops
    at the deepest level the windows read, with the slopes and warnings
    of the full ``method_config.depth``.
    """
    end = max((stop for _, stop in grid.windows), default=0)
    if end > dataset.n_bins:
        raise ConfigurationError(f"window grid ends at bin {end}, past the "
                                 f"dataset's {dataset.n_bins} bins")
    wl = grid.window_len
    if method_config is None:
        method_config = MethodConfig(method, wl)
    elif (method_config.method, method_config.window_len) != (method, wl):
        raise ConfigurationError(
            f"method_config is for {method_config.method} on "
            f"{method_config.window_len}-bin windows, not {method} on "
            f"{wl}-bin windows")
    f = make_filter(method_config.family)
    J = method_config.window_len.bit_length() - 1
    every = tuple(range(J - method_config.depth, J))  # unplanned windows
    level_sets = [method_config.levels_for(w + 1) or every
                  for w in range(grid.count)]

    def one_sample(s):
        # every window of the sample as one (windows, window_len) view
        rows = sliding_window_view(dataset.intensities[s], wl)[::grid.stride]
        fits = descriptor_rows(method, rows[:grid.count], f,
                               method_config.depth, level_sets)
        for w, error in enumerate(fits.row_errors()):
            if error is not None:
                raise EstimationError(
                    f"estimate failed for sample {dataset.sample_ids[s]!r}, "
                    f"window {w + 1}: {error}") from error
        return fits.slope, fits.hurst

    results = map_ordered(one_sample, range(dataset.n_samples), threads=threads)
    slopes = np.vstack([r[0] for r in results])
    hurst = np.vstack([r[1] for r in results])
    return FeatureMatrix(method=method, slopes=slopes, hurst=hurst,
                         labels=dataset.labels.copy(),
                         sample_ids=dataset.sample_ids, grid=grid)


def fisher_ratio(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-column Fisher score of ``(..., n, W)`` values with ``(..., n)``
    0/1 labels: the squared class-mean gap over the summed within-class
    variances (ddof=1), one row of W scores per leading index.

    A zero denominator gives inf (0 when the means also agree) and a
    warning.  Class sums run over all n rows with the other class's rows
    zeroed, so for W >= 2 every score is bitwise the one computed on that
    matrix alone.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    stats = []
    for mask in (labels == 1, labels == 0):
        count = mask.sum(axis=-1)[..., None]
        if (count < 2).any():
            raise EstimationError(
                "Fisher scores need at least 2 samples in each class")
        mask = mask[..., None]
        mean = np.where(mask, values, 0.0).sum(axis=-2) / count
        dev = np.where(mask, values - mean[..., None, :], 0.0)
        stats.append((mean, (dev * dev).sum(axis=-2) / (count - 1)))
    (case_mean, case_var), (ctrl_mean, ctrl_var) = stats
    num = (case_mean - ctrl_mean) ** 2
    den = case_var + ctrl_var
    scores = np.full(num.shape, np.inf)
    ok = den > 0.0
    scores[ok] = num[ok] / den[ok]
    zero_sep = (~ok) & (num == 0.0)
    scores[zero_sep] = 0.0
    if (~ok & ~zero_sep).any():
        warnings.warn("zero within-class variance; Fisher score set to inf",
                      RuntimeWarning, stacklevel=3)
    return scores


def fisher_scores(features: FeatureMatrix) -> np.ndarray:
    """Per-window class separation (mean gap squared over summed variance)."""
    return fisher_ratio(features.slopes, features.labels)


def select_top(scores: np.ndarray, p: int) -> np.ndarray:
    """Indices of the p largest scores along the last axis, best first;
    ties keep the lower index.  (c, W) scores give one row per c."""
    scores = np.asarray(scores, dtype=float)
    w = scores.shape[-1]
    if not (is_integer(p) and 1 <= p <= w):
        raise ConfigurationError(f"p must be in 1..{w}, got {p}")
    return np.argsort(-scores, axis=-1, kind="stable")[..., :p]


def _normal_rank_sum(a: np.ndarray, b: np.ndarray):
    """Rank-sum statistic of ``a`` and its two-sided normal-approximation
    p-value with midrank tie correction and continuity correction."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = len(a), len(b)
    pooled = np.concatenate([a, b])
    if np.isnan(pooled).any():
        raise EstimationError("rank-sum test got a NaN observation")
    # a value's tie group holds the sorted positions below..upto-1
    ordered = np.sort(pooled)
    below = np.searchsorted(ordered, pooled, "left")
    upto = np.searchsorted(ordered, pooled, "right")
    ranks = (below + upto + 1) / 2.0
    w_stat = float(ranks[:na].sum())
    n = na + nb
    mean = na * (n + 1) / 2.0
    # each of a group's t members adds t*t - 1: t**3 - t per group
    t = upto - below
    tie_term = int((t * t - 1).sum()) / ((n) * (n - 1))
    var = na * nb / 12.0 * ((n + 1) - tie_term)
    if var <= 0.0:
        return w_stat, 1.0
    diff = w_stat - mean
    cc = min(0.5, abs(diff))  # continuity correction toward the mean
    z = (abs(diff) - cc) / math.sqrt(var)
    p = math.erfc(z / math.sqrt(2.0))
    return w_stat, min(1.0, p)


def check_rank_sum_sizes(n_a: int, n_b: int) -> None:
    """Raise EstimationError unless both samples have the 5 observations
    the normal approximation of ``rank_sum_test`` needs."""
    if n_a < 5 or n_b < 5:
        raise EstimationError(
            "rank-sum test needs at least 5 observations per sample")


def rank_sum_test(a, b):
    """Wilcoxon rank-sum test, two-sided normal approximation.

    Returns (rank-sum statistic of ``a``, p-value).  Requires at least 5
    observations per sample for the approximation to be trustworthy, and
    no NaN, which has no rank.
    """
    check_rank_sum_sizes(len(a), len(b))
    return _normal_rank_sum(a, b)


def _balanced_row_indices(labels: np.ndarray, seed: int) -> np.ndarray:
    check_count(seed, "seed", least=0)
    idx1 = np.flatnonzero(labels == 1)
    idx0 = np.flatnonzero(labels == 0)
    if len(idx0) == len(idx1):
        return np.arange(len(labels))
    rng = np.random.default_rng(seed)
    big, small = (idx1, idx0) if len(idx1) > len(idx0) else (idx0, idx1)
    kept = rng.choice(big, size=len(small), replace=False)
    return np.sort(np.concatenate([small, kept]))


def balance_classes(dataset: SpectraDataset, seed: int) -> SpectraDataset:
    """Subsample the larger class uniformly to match the smaller one.

    Row order of the kept samples is preserved; deterministic per seed.
    """
    keep = _balanced_row_indices(dataset.labels, seed)
    if len(keep) == dataset.n_samples:
        return dataset
    return SpectraDataset(
        intensities=dataset.intensities[keep],
        labels=dataset.labels[keep],
        sample_ids=tuple(dataset.sample_ids[i] for i in keep),
        mz_values=dataset.mz_values)


def balance_feature_rows(features: FeatureMatrix, seed: int) -> FeatureMatrix:
    """Class-balance an already-extracted feature matrix, as
    balance_classes does for raw spectra."""
    keep = _balanced_row_indices(features.labels, seed)
    if len(keep) == len(features.labels):
        return features
    return FeatureMatrix(
        method=features.method,
        slopes=features.slopes[keep],
        hurst=features.hurst[keep],
        labels=features.labels[keep],
        sample_ids=tuple(features.sample_ids[i] for i in keep),
        grid=features.grid)


def read_feature_csv(path) -> FeatureMatrix:
    """Load a feature CSV produced by FeatureMatrix.write_csv.

    The file stores slopes only, so the Hurst columns come back as NaN and
    the window grid is absent.
    """
    _, text, slopes = _read_csv(path, ("sample_id", "label"), 2)
    if slopes.shape[1] < 1:
        raise IngestionError(f"{path}: row 1: no feature columns")
    label_map = _label_map(path, text)
    for r, w in np.argwhere(~np.isfinite(slopes))[:1]:
        raise IngestionError(
            f"{path}: row {r + 2}: sample {text[r][0]!r} window {w + 1} has "
            f"the non-finite slope {float(slopes[r, w])!r}")
    return FeatureMatrix(
        method="unknown",
        slopes=slopes,
        hurst=np.full_like(slopes, np.nan),
        labels=np.array(list(label_map.values()), dtype=np.int8),
        sample_ids=tuple(label_map))


def window_mz_ranges(grid: WindowGrid, mz_values) -> list:
    """Per window: (window number, first m/z, last m/z).

    With no m/z axis the m/z fields are None and only index ranges remain
    meaningful.  An axis that is not ascending raises IngestionError.
    """
    if mz_values is None:
        return [(w + 1, None, None) for w in range(grid.count)]
    mz = np.asarray(mz_values, dtype=float)
    _check_ascending(mz)
    out = []
    for w, (lo, hi) in enumerate(grid.windows):
        out.append((w + 1, float(mz[lo]), float(mz[hi - 1])))
    return out


def write_window_metadata_csv(grid: WindowGrid, mz_values, path) -> None:
    """Sidecar CSV: window, 1-based inclusive bin indices, m/z range."""
    ranges = window_mz_ranges(grid, mz_values)
    write_csv(path, ["window", "first_index", "last_index", "mz_lo", "mz_hi"],
              ([num, lo + 1, hi, mz_lo, mz_hi]
               for (num, mz_lo, mz_hi), (lo, hi) in zip(ranges, grid.windows)))


def write_screen_csv(features: FeatureMatrix, path) -> None:
    """Per-window rank-sum screen of case vs control slopes."""
    case = features.slopes[features.labels == 1]
    ctrl = features.slopes[features.labels == 0]
    write_csv(path, ["window", "rank_sum_statistic", "p_value"],
              ([i + 1, *rank_sum_test(case[:, i], ctrl[:, i])]
               for i in range(features.n_windows)))
