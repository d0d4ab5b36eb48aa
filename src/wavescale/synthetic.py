"""Synthetic two-class spectra built from fractional Brownian motion.

Used by the end-to-end checks and the demo scripts: every sample is one
long fBm path truncated to the requested bin count, so each rolling
window inherits the class's Hurst exponent and the two classes separate
in every window.
"""

from __future__ import annotations

import numpy as np

from .fbm import FbmSpec, fbm_from_fgn, fgn_sample
from .pipeline import SpectraDataset
from .utils import check_count


def two_class_fbm_dataset(n_per_class: int = 50, hurst_control: float = 0.3,
                          hurst_case: float = 0.7, n_bins: int = 15153,
                          seed: int = 0) -> SpectraDataset:
    """Controls are fBm paths at one Hurst exponent, cases at another.

    Paths are generated at the next power of two above ``n_bins`` and
    truncated.  Sample ids are ctrl001.. and case001..; deterministic per
    seed.
    """
    check_count(n_per_class, "n_per_class")
    check_count(n_bins, "n_bins")
    check_count(seed, "seed", least=0)
    gen_len = 1 << max(3, int(np.ceil(np.log2(n_bins))))
    rows = []
    ids = []
    labels = []
    for label, hurst, prefix in ((0, hurst_control, "ctrl"),
                                 (1, hurst_case, "case")):
        for i in range(n_per_class):
            path = fbm_from_fgn(fgn_sample(FbmSpec(
                hurst, gen_len, np.random.SeedSequence(seed, spawn_key=(label, i)))))
            rows.append(path[:n_bins])
            ids.append(f"{prefix}{i + 1:03d}")
            labels.append(label)
    return SpectraDataset(
        intensities=np.vstack(rows),
        labels=np.array(labels, dtype=np.int8),
        sample_ids=tuple(ids),
        mz_values=None)
