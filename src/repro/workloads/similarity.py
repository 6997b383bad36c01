"""Spearman rank-correlation machinery (Section V-A).

The paper quantifies how similar buyers' utility vectors are with the
average pairwise Spearman rank correlation coefficient (SRCC): 1 means all
buyers rank the channels identically, ~0 means independent rankings.

:func:`average_pairwise_srcc` is vectorised (rank every row once, then one
correlation-matrix product), so computing the measured similarity of a
300-buyer market is cheap enough to report in every experiment row.
``scipy.stats`` is slow to import, so only these functions import it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MarketConfigurationError

__all__ = ["spearman_rank_correlation", "average_pairwise_srcc"]


def spearman_rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """SRCC between two vectors (Pearson correlation of their ranks).

    Average ranks are used for ties.  Raises if either vector is constant
    (the correlation is undefined); with continuous utility draws this has
    probability zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise MarketConfigurationError(
            f"expected two equal-length 1-D vectors, got {x.shape} and {y.shape}"
        )
    if x.size < 2:
        raise MarketConfigurationError("SRCC needs vectors of length >= 2")
    from scipy.stats import rankdata

    rank_x = rankdata(x)
    rank_y = rankdata(y)
    std_x = rank_x.std()
    std_y = rank_y.std()
    if std_x == 0.0 or std_y == 0.0:
        raise MarketConfigurationError("SRCC is undefined for constant vectors")
    return float(
        ((rank_x - rank_x.mean()) * (rank_y - rank_y.mean())).mean() / (std_x * std_y)
    )


def average_pairwise_srcc(utilities: np.ndarray) -> float:
    """Mean SRCC over all unordered buyer pairs.

    ``utilities`` is the ``(N, M)`` matrix; each row is ranked and the full
    pairwise Pearson correlation of ranks is computed in one matrix
    product.  Rows with constant values (all-equal utilities) would make
    SRCC undefined and raise.
    """
    utilities = np.asarray(utilities, dtype=float)
    if utilities.ndim != 2:
        raise MarketConfigurationError("utilities must be a 2-D (N, M) array")
    num_buyers, num_channels = utilities.shape
    if num_buyers < 2:
        raise MarketConfigurationError("need at least two buyers for pairwise SRCC")
    if num_channels < 2:
        raise MarketConfigurationError("need at least two channels for SRCC")
    from scipy.stats import rankdata

    ranks = np.apply_along_axis(rankdata, 1, utilities)
    centered = ranks - ranks.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    if np.any(norms == 0.0):
        raise MarketConfigurationError(
            "SRCC is undefined: some buyer has a constant utility vector"
        )
    normalized = centered / norms[:, None]
    correlation = normalized @ normalized.T
    upper = np.triu_indices(num_buyers, k=1)
    return float(correlation[upper].mean())
