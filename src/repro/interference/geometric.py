"""Disk-model interference graphs from buyer locations.

The paper's simulation settings (Section V-A): buyers are placed uniformly
at random in a ``10 x 10`` area, each channel has a transmission range drawn
uniformly from ``(0, 5]``, and "the interference graph of each channel is
established based on users' locations and the transmission range of the
channel" -- i.e. the classic unit-disk interference model, with a *different
disk radius per channel* to capture spectrum heterogeneity (following
TAMES [7]).

This module turns ``(locations, ranges)`` into an
:class:`~repro.interference.graph.InterferenceMap` with one builder,
:func:`build_geometric_interference_map`.  The locations are shared by
every channel, so the channels' graphs are nested in radius: each edge of
a channel is an edge of every channel with a wider range.  The builder
therefore queries a KD-tree once, at the largest range, for candidate
pairs, and then visits the channels in descending range, each keeping the
pairs of the previous one that lie within its own range.  The tree only
proposes pairs; every edge is decided by the disk predicate
``dx*dx + dy*dy <= r**2`` in float64.  Each channel's CSR neighbour index
comes straight out of the sorted pair arrays, in ``O(E)`` memory.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import MarketConfigurationError
from repro.interference.graph import InterferenceGraph, InterferenceMap

__all__ = [
    "disk_interference_graph",
    "build_geometric_interference_map",
]

#: Relative slack on the KD-tree's query radius.  The tree computes
#: distances in its own way, so it is asked for a slightly wider disk than
#: the largest range; the exact predicate then drops the extra pairs.
_QUERY_SLACK = 1e-9


def _as_location_array(locations: Sequence[Tuple[float, float]]) -> np.ndarray:
    array = np.asarray(locations, dtype=float)
    if array.ndim != 2 or array.shape[1] != 2:
        raise MarketConfigurationError(
            f"locations must be an (N, 2) array of planar points, got shape {array.shape}"
        )
    finite = np.isfinite(array)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise MarketConfigurationError(
            f"location of buyer {row} must be finite, got coordinate "
            f"{array[row, col]}"
        )
    return array


def _as_range(transmission_range: float) -> float:
    radius = float(transmission_range)
    if not radius > 0:  # also rejects NaN
        raise MarketConfigurationError(
            f"transmission_range must be positive, got {transmission_range}"
        )
    return radius


def disk_interference_graph(
    locations: Sequence[Tuple[float, float]],
    transmission_range: float,
) -> InterferenceGraph:
    """Build one channel's interference graph under the disk model.

    Two buyers interfere on the channel iff the Euclidean distance between
    their locations is at most ``transmission_range``.  This is the
    one-channel call of :func:`build_geometric_interference_map`.

    Parameters
    ----------
    locations:
        ``(N, 2)`` planar coordinates, one row per virtual buyer.
    transmission_range:
        The channel's interference radius; must be positive.
    """
    return build_geometric_interference_map(locations, [transmission_range])[0]


def _candidate_pairs(points: np.ndarray, r_max: float) -> Tuple[np.ndarray, np.ndarray]:
    """Pairs ``i < j`` that may lie within ``r_max`` (a superset)."""
    if math.isinf(r_max * r_max):
        # Every pair passes the widest channel's predicate.
        i, j = np.triu_indices(points.shape[0], k=1)
        return i.astype(np.int64), j.astype(np.int64)
    pairs = cKDTree(points).query_pairs(
        r_max * (1.0 + _QUERY_SLACK), output_type="ndarray"
    )
    return pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)


def build_geometric_interference_map(
    locations: Sequence[Tuple[float, float]],
    transmission_ranges: Sequence[float],
) -> InterferenceMap:
    """Build the per-channel interference family from a deployment.

    Runs under an ``interference.build`` span on the ambient recorder (a
    no-op on the null recorder).

    Parameters
    ----------
    locations:
        ``(N, 2)`` finite planar coordinates of the virtual buyers.
    transmission_ranges:
        One positive radius per channel (``inf`` makes every pair
        interfere).  Channels with larger radii yield denser graphs (less
        spatial reuse), reproducing the paper's channel heterogeneity.
    """
    from repro.obs.recorder import get_recorder

    ranges = list(transmission_ranges)
    if not ranges:
        raise MarketConfigurationError("at least one channel transmission range is required")
    points = _as_location_array(locations)
    ranges = [_as_range(r) for r in ranges]
    n = points.shape[0]
    with get_recorder().span("interference.build"):
        if n < 2:
            return InterferenceMap([InterferenceGraph(n) for _ in ranges])
        first, second = _candidate_pairs(points, max(ranges))
        # Both directions of every pair, sorted by (node, neighbour): the
        # row-major order of a CSR index.  Squared distances are computed
        # once, on the sorted pairs, with the same float64 operations for
        # every channel.
        keys = np.concatenate([first * n + second, second * n + first])
        del first, second
        keys.sort()
        src = keys // n
        dst = (keys - src * n).astype(np.int32)
        del keys
        dx = points[src, 0] - points[dst, 0]
        dy = points[src, 1] - points[dst, 1]
        sq_dist = dx * dx + dy * dy
        del dx, dy
        rows = np.arange(n + 1)
        graphs = {}
        # Widest range first: each channel filters the survivors of the
        # previous one, which keeps every row ascending.
        for channel in sorted(range(len(ranges)), key=lambda c: -ranges[c]):
            within = sq_dist <= ranges[channel] ** 2
            if not within.all():
                src, dst, sq_dist = src[within], dst[within], sq_dist[within]
            indptr = np.searchsorted(src, rows).astype(np.int64)
            graphs[channel] = InterferenceGraph._from_csr(n, indptr, dst)
    return InterferenceMap([graphs[channel] for channel in range(len(ranges))])
