"""Seeded benchmark inputs, built with numpy alone.

Spectra are fractional Brownian motion paths: fractional Gaussian noise
drawn by circulant embedding (Davies & Harte 1987; Wood & Chan 1994) and
summed.  Cases and controls differ in their Hurst exponent, so every
rolling window separates the classes a little and classification is not
trivial.  Nothing here imports ``wavescale``: the inputs must stay the same
whatever the package under test does to its own generator.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

N_BINS = 15153  # bins of the NCI ovarian SELDI-TOF spectra
HURST_CONTROL = 0.47
HURST_CASE = 0.53
HURST_JITTER = 0.06  # per-sample spread around the class exponent


def fgn(hurst: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """One unit-variance fractional Gaussian noise vector of length n."""
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * ((k + 1) ** (2 * hurst) - 2 * k ** (2 * hurst)
                   + np.abs(k - 1) ** (2 * hurst))
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.clip(np.fft.fft(row).real, 0.0, None)
    m = len(row)
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.fft.fft(np.sqrt(lam / m) * z).real[:n]


def mz_axis(n_bins: int = N_BINS) -> np.ndarray:
    """Ascending mass-to-charge grid, quadratic in the bin index as on a
    time-of-flight instrument."""
    t = np.arange(n_bins, dtype=float)
    return 700.0 + 0.02 * t + 8.0e-5 * t * t


def spectra(n_case: int, n_control: int, seed: int, n_bins: int = N_BINS):
    """(sample ids, labels, intensities) for a two-class spectra set.

    Sample order interleaves the classes; deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    gen_len = 1 << int(np.ceil(np.log2(n_bins)))
    labels = np.array([1] * n_case + [0] * n_control, dtype=np.int8)
    labels = labels[rng.permutation(len(labels))]
    rows = []
    for label in labels:
        h = (HURST_CASE if label else HURST_CONTROL) \
            + HURST_JITTER * (rng.random() - 0.5)
        rows.append(np.cumsum(fgn(h, gen_len, rng))[:n_bins])
    ids = [f"s{i + 1:03d}" for i in range(len(labels))]
    return ids, labels, np.vstack(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_labels(path: Path, ids, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample_id,label\n")
        for sid, lab in zip(ids, labels):
            fh.write(f"{sid},{'case' if lab else 'control'}\n")


def write_matrix(path: Path, ids, intensities, mz) -> None:
    """Matrix layout: header mz,<ids>; one row per bin."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mz," + ",".join(ids) + "\n")
        for b in range(intensities.shape[1]):
            fh.write(_fmt(mz[b]) + ","
                     + ",".join(_fmt(v) for v in intensities[:, b]) + "\n")


def write_sample_dir(path: Path, ids, intensities, mz) -> None:
    """Per-sample layout: manifest.csv plus one two-column CSV per sample."""
    path.mkdir(parents=True, exist_ok=True)
    mz_text = [_fmt(v) for v in mz]
    with open(path / "manifest.csv", "w", encoding="utf-8") as fh:
        fh.write("sample_id,filename\n")
        for sid in ids:
            fh.write(f"{sid},{sid}.csv\n")
    for sid, row in zip(ids, intensities):
        with open(path / f"{sid}.csv", "w", encoding="utf-8") as fh:
            fh.write("mz,intensity\n")
            fh.writelines(f"{m},{_fmt(v)}\n" for m, v in zip(mz_text, row))


def sha256_tree(path: Path) -> str:
    """Digest of a file, or of every file under a directory in name order."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    for f in files:
        if path.is_dir():
            h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def write_dataset(out: Path, layout: str, n_case: int, n_control: int,
                  seed: int) -> dict:
    """Write one spectra set in ``layout`` ("matrix" or "dir") under out.

    Returns the paths of the matrix input and the labels file, and their
    SHA-256 digests.
    """
    out.mkdir(parents=True, exist_ok=True)
    ids, labels, x = spectra(n_case, n_control, seed)
    mz = mz_axis(x.shape[1])
    labels_path = out / "labels.csv"
    write_labels(labels_path, ids, labels)
    if layout == "matrix":
        matrix_path = out / "matrix.csv"
        write_matrix(matrix_path, ids, x, mz)
    elif layout == "dir":
        matrix_path = out / "samples"
        write_sample_dir(matrix_path, ids, x, mz)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return {"matrix": matrix_path, "labels": labels_path,
            "sha256": {matrix_path.name: sha256_tree(matrix_path),
                       labels_path.name: sha256_tree(labels_path)}}
