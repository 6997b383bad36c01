"""Per-channel interference graphs.

The paper (Section II-A) models spectrum reuse with a family of graphs
``{G_i = (V, E_i)}`` -- one graph per channel ``i`` -- whose nodes are the
virtual buyers and whose edges join pairs of buyers that would interfere if
they operated on channel ``i`` at the same time.  ``e^i_{j,j'} = 1`` denotes
such an edge.

:class:`InterferenceGraph` stores one channel's graph in a single form, a
CSR neighbour index: ``indices[indptr[j]:indptr[j + 1]]`` lists buyer
``j``'s interfering neighbours in ascending order.  Every query reads
slices of that index.  Pairwise interference is a binary search in one
row.  A coalition-level query marks the coalition's neighbourhood in a
membership mask once, after which each candidate costs one lookup.  The
dense packed bit rows are derived from the index on demand; they feed the
batched Stage-I kernel and, on graphs of up to
:data:`PACKED_QUERY_MAX_BUYERS` buyers, the coalition masks.
:class:`InterferenceMap` bundles the per-channel family and enforces that
every graph covers the same buyer population.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import MarketConfigurationError

if TYPE_CHECKING:  # pragma: no cover - networkx is imported on use only
    import networkx as nx

__all__ = ["InterferenceGraph", "InterferenceMap", "PACKED_QUERY_MAX_BUYERS"]

#: Coalition queries on graphs of at most this many buyers read the packed
#: bit rows (at most 512 bytes a row), which the dense Stage-I layout
#: derives at the same sizes; above it they gather CSR rows, whose cost
#: grows with degree but whose memory stays ``O(E)``.
PACKED_QUERY_MAX_BUYERS = 4096


def _canonical_csr(num_buyers: int, u: np.ndarray, v: np.ndarray):
    """Validate undirected edges ``(u[i], v[i])`` and index them as CSR.

    Pairs are symmetrised, sorted by ``(node, neighbour)`` and
    deduplicated, so every graph over the same edge set gets the same
    ``(int64 indptr, ascending int32 indices)`` whatever the input order.
    """
    bad = (u < 0) | (u >= num_buyers) | (v < 0) | (v >= num_buyers)
    if bad.any():
        at = int(np.flatnonzero(bad)[0])
        raise MarketConfigurationError(
            f"edge ({u[at]}, {v[at]}) has a buyer index out of range "
            f"[0, {num_buyers})"
        )
    loops = u == v
    if loops.any():
        at = int(np.flatnonzero(loops)[0])
        raise MarketConfigurationError(
            f"self-interference edge ({u[at]}, {v[at]}) is not allowed"
        )
    keys = np.unique(np.concatenate([u * num_buyers + v, v * num_buyers + u]))
    # Any edge makes num_buyers positive; with none, keys is empty.
    src = keys // max(num_buyers, 1)
    indptr = np.searchsorted(src, np.arange(num_buyers + 1)).astype(np.int64)
    return indptr, (keys - src * num_buyers).astype(np.int32)


def _as_set(buyers: Iterable[int]):
    return buyers if isinstance(buyers, (set, frozenset)) else set(buyers)


def _pair_array(edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """An edge iterable as an ``(E, 2)`` int64 array of buyer ids."""
    pairs = np.asarray(list(edges))
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise MarketConfigurationError(
            "edges must be (j, k) pairs of integer buyer indices"
        )
    return pairs.astype(np.int64, copy=False)


class InterferenceGraph:
    """An undirected conflict graph over a fixed set of buyers.

    Parameters
    ----------
    num_buyers:
        Size of the buyer population.  Nodes are the integers
        ``0 .. num_buyers - 1``; every node exists even if isolated.
    edges:
        Iterable of ``(j, k)`` pairs of interfering buyers.  Self-loops are
        rejected; duplicate and reversed pairs are merged.

    Notes
    -----
    The graph is immutable after construction.  The matching algorithms
    share one :class:`InterferenceGraph` per channel across many queries,
    so immutability keeps aliasing safe and lets instances be hashed into
    caches.
    """

    __slots__ = ("_num_buyers", "_csr", "_packed")

    def __init__(self, num_buyers: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if num_buyers < 0:
            raise MarketConfigurationError(
                f"num_buyers must be non-negative, got {num_buyers}"
            )
        pairs = _pair_array(edges)
        self._num_buyers = int(num_buyers)
        self._csr = _canonical_csr(self._num_buyers, pairs[:, 0], pairs[:, 1])
        self._packed = None

    @classmethod
    def from_edge_arrays(cls, num_buyers: int, u, v) -> "InterferenceGraph":
        """Build a graph from parallel edge-endpoint arrays (vectorised path).

        ``u`` and ``v`` are equal-length integer arrays; each position is
        one undirected edge ``(u[i], v[i])``.  Reversed and duplicated
        pairs merge, and out-of-range endpoints and self-loops are
        rejected, exactly as with the edge-iterable constructor; no
        per-edge Python work is done.
        """
        if num_buyers < 0:
            raise MarketConfigurationError(
                f"num_buyers must be non-negative, got {num_buyers}"
            )
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise MarketConfigurationError(
                f"edge arrays must have equal length, got {u.size} and {v.size}"
            )
        return cls._from_csr(num_buyers, *_canonical_csr(int(num_buyers), u, v))

    @classmethod
    def _from_csr(cls, num_buyers: int, indptr, indices) -> "InterferenceGraph":
        """Wrap a canonical CSR neighbour index without copying or checks.

        ``indptr`` is int64 of length ``num_buyers + 1`` and ``indices``
        int32, every row ascending, symmetric and free of self-loops --
        what :func:`_canonical_csr` and the geometric builder produce.
        """
        graph = cls.__new__(cls)
        graph._num_buyers = int(num_buyers)
        graph._csr = (indptr, indices)
        graph._packed = None
        return graph

    def _check_node(self, j: int) -> None:
        if not 0 <= j < self._num_buyers:
            raise MarketConfigurationError(
                f"buyer index {j} out of range [0, {self._num_buyers})"
            )

    def _row(self, j: int) -> np.ndarray:
        """Buyer ``j``'s neighbours, ascending (a view into the index)."""
        indptr, indices = self._csr
        return indices[indptr[j] : indptr[j + 1]]

    def _member_array(self, buyers: Iterable[int]) -> np.ndarray:
        """Distinct buyer ids as an int64 array (validates indices)."""
        distinct = _as_set(buyers)
        members = np.fromiter(distinct, dtype=np.int64, count=len(distinct))
        bad = members[(members < 0) | (members >= self._num_buyers)]
        if bad.size:
            self._check_node(int(bad[0]))
        return members

    def _neighbourhood(self, members: np.ndarray) -> np.ndarray:
        """Bool mask of every neighbour of ``members``.

        Small graphs OR the members' packed bit rows, whose cost does not
        grow with degree; larger ones gather the members' CSR rows.
        """
        n = self._num_buyers
        if n <= PACKED_QUERY_MAX_BUYERS:
            words = np.bitwise_or.reduce(self.packed_rows()[members], axis=0)
            return np.unpackbits(
                words.view(np.uint8), count=n, bitorder="little"
            ).view(bool)
        indptr, indices = self._csr
        starts = indptr[members]
        lengths = indptr[members + 1] - starts
        # Each gathered position is its row's start plus its offset in the
        # row: shift every row's run of aranges by start - run offset.
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        mask = np.zeros(n, dtype=bool)
        mask[indices[np.arange(shift.size) + shift]] = True
        return mask

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_buyers(self) -> int:
        """Number of nodes (virtual buyers) in the graph."""
        return self._num_buyers

    @property
    def num_edges(self) -> int:
        """Number of interference edges."""
        return int(self._csr[0][-1]) // 2

    def _edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every edge once as parallel arrays ``(j, k)``, ``j < k``, ascending."""
        indptr, indices = self._csr
        src = np.repeat(np.arange(self._num_buyers, dtype=np.int64), np.diff(indptr))
        upper = src < indices
        return src[upper], indices[upper]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as ``(j, k)`` tuples with ``j < k``, ascending."""
        u, v = self._edge_arrays()
        return zip(u.tolist(), v.tolist())

    def interferes(self, j: int, k: int) -> bool:
        """Return ``True`` iff buyers ``j`` and ``k`` interfere (``e_{j,k}=1``)."""
        self._check_node(j)
        self._check_node(k)
        indptr, indices = self._csr
        row = memoryview(indices)
        end = int(indptr[j + 1])
        at = bisect_left(row, k, int(indptr[j]), end)
        return at < end and row[at] == int(k)

    def neighbors(self, j: int) -> FrozenSet[int]:
        """Return the interfering neighbours of buyer ``j``.

        Built from the CSR row on every call; hot paths read
        :meth:`neighbor_csr` or :meth:`conflict_mask` instead.
        """
        self._check_node(j)
        return frozenset(self._row(j).tolist())

    def degree(self, j: int) -> int:
        """Number of interfering neighbours of buyer ``j``."""
        self._check_node(j)
        indptr = self._csr[0]
        return int(indptr[j + 1] - indptr[j])

    def neighbor_csr(self):
        """Per-node neighbour lists in CSR form: ``(indptr, indices)``.

        ``indices[indptr[j]:indptr[j + 1]]`` is buyer ``j``'s neighbour
        set as an ascending ``int32`` array; ``indptr`` is ``int64``.
        This is the graph's only stored adjacency, returned as-is (treat
        it as read-only).
        """
        return self._csr

    def packed_rows(self):
        """Adjacency as a dense ``(N, ceil(N/64))`` uint64 bit matrix.

        Row ``j`` packs buyer ``j``'s neighbourhood little-endian over
        buyer-id bit positions -- the dense pool-row source consumed by
        the struct-of-arrays Stage-I pool caches.  Dense in ``N``, so callers should only use it for
        small-to-medium markets (the SoA layer falls back to CSR-based
        pool rows above its density threshold).  Built lazily and cached
        for the graph's lifetime.
        """
        if self._packed is None:
            n = self._num_buyers
            words = (n + 63) // 64 if n else 1
            indptr, indices = self._csr
            bits = np.zeros((n, words * 64), dtype=bool)
            if indices.size:
                src = np.repeat(
                    np.arange(n, dtype=np.int64), np.diff(indptr)
                )
                bits[src, indices] = True
            self._packed = np.packbits(
                bits, axis=1, bitorder="little"
            ).view(np.uint64)
        return self._packed

    # ------------------------------------------------------------------
    # Coalition-level queries
    # ------------------------------------------------------------------
    def conflict_mask(self, buyers: Iterable[int]) -> np.ndarray:
        """Mark every buyer that interferes with some member of ``buyers``.

        Returns a boolean array of length ``N``.  The members' CSR rows are
        gathered once, so afterwards "does ``j`` interfere with anyone in
        the coalition?" is the single lookup ``mask[j]`` (a member is
        marked only if it interferes with another member).
        """
        return self._neighbourhood(self._member_array(buyers))

    def is_independent(self, buyers: Iterable[int]) -> bool:
        """Return ``True`` iff no two buyers in ``buyers`` interfere.

        This is the interference-free condition a spectrum coalition must
        satisfy to be preferred by its seller (eq. 6) and for its members to
        obtain non-zero utility (eq. 5).
        """
        chosen = buyers if isinstance(buyers, (set, frozenset)) else list(buyers)
        members = self._member_array(chosen)
        if members.size != len(chosen):
            # A buyer listed twice trivially "interferes with herself" in the
            # dummy-expansion sense: the same buyer cannot hold one channel
            # twice.
            return False
        return members.size < 2 or not self._neighbourhood(members)[members].any()

    def conflicts_with_set(self, j: int, buyers: Iterable[int]) -> bool:
        """Return ``True`` iff buyer ``j`` interferes with anyone in ``buyers``.

        One pass over ``j``'s CSR row (``j`` itself is never in it); for
        many candidates against one coalition use :meth:`conflict_mask`.
        """
        self._check_node(j)
        return not _as_set(buyers).isdisjoint(self._row(j).tolist())

    def independent_subset_greedily_compatible(
        self, anchor: Iterable[int], candidates: Sequence[int]
    ) -> List[int]:
        """Filter ``candidates`` down to those compatible with ``anchor``.

        Returns the candidates, in order, that are not in ``anchor`` and do
        not interfere with any buyer in it (candidates may still interfere
        with *each other*; that is resolved by the MWIS solver).
        """
        candidates = list(candidates)
        for j in candidates:
            self._check_node(j)
        if not candidates:
            return []
        anchor_set = set(anchor)
        blocked = self.conflict_mask(anchor_set)
        return [j for j in candidates if j not in anchor_set and not blocked[j]]

    # ------------------------------------------------------------------
    # Interop / dunder
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.Graph":
        """Export the graph to :class:`networkx.Graph` (nodes ``0..N-1``)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._num_buyers))
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, graph: "nx.Graph", num_buyers: int | None = None) -> "InterferenceGraph":
        """Build an :class:`InterferenceGraph` from a networkx graph.

        Nodes must be integers; ``num_buyers`` defaults to ``max(node)+1``
        (or 0 for an empty graph) so isolated high-index nodes are kept.
        """
        nodes = list(graph.nodes())
        if any(not isinstance(n, int) for n in nodes):
            raise MarketConfigurationError("networkx graph nodes must be integers")
        inferred = (max(nodes) + 1) if nodes else 0
        size = inferred if num_buyers is None else num_buyers
        return cls(size, graph.edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterferenceGraph):
            return NotImplemented
        return (
            self._num_buyers == other._num_buyers
            and np.array_equal(self._csr[0], other._csr[0])
            and np.array_equal(self._csr[1], other._csr[1])
        )

    def __hash__(self) -> int:
        indptr, indices = self._csr
        return hash((self._num_buyers, indptr.tobytes(), indices.tobytes()))

    def __repr__(self) -> str:
        return (
            f"InterferenceGraph(num_buyers={self._num_buyers}, "
            f"num_edges={self.num_edges})"
        )


class InterferenceMap:
    """The per-channel family ``{G_i}`` of interference graphs.

    Parameters
    ----------
    graphs:
        One :class:`InterferenceGraph` per channel, indexed by channel id
        ``0 .. M-1``.  All graphs must share the same buyer population size.

    The map is the library's single source of truth for spectrum-reuse
    feasibility; the matching core, the optimal solvers and the distributed
    agents all consult it through the same interface.
    """

    __slots__ = ("_graphs", "_num_buyers")

    def __init__(self, graphs: Sequence[InterferenceGraph]) -> None:
        graphs = tuple(graphs)
        if not graphs:
            raise MarketConfigurationError("an InterferenceMap needs at least one channel")
        sizes = {g.num_buyers for g in graphs}
        if len(sizes) != 1:
            raise MarketConfigurationError(
                f"all channel graphs must cover the same buyers; saw sizes {sorted(sizes)}"
            )
        self._graphs = graphs
        self._num_buyers = graphs[0].num_buyers

    @property
    def num_channels(self) -> int:
        """Number of channels ``M`` (virtual sellers)."""
        return len(self._graphs)

    @property
    def num_buyers(self) -> int:
        """Number of virtual buyers ``N``."""
        return self._num_buyers

    def graph(self, channel: int) -> InterferenceGraph:
        """Return channel ``channel``'s interference graph ``G_i``."""
        if not 0 <= channel < len(self._graphs):
            raise MarketConfigurationError(
                f"channel {channel} out of range [0, {len(self._graphs)})"
            )
        return self._graphs[channel]

    def __getitem__(self, channel: int) -> InterferenceGraph:
        return self.graph(channel)

    def __iter__(self) -> Iterator[InterferenceGraph]:
        return iter(self._graphs)

    def __len__(self) -> int:
        return len(self._graphs)

    def interferes(self, channel: int, j: int, k: int) -> bool:
        """Return ``e^channel_{j,k}`` as a bool."""
        return self.graph(channel).interferes(j, k)

    def is_independent(self, channel: int, buyers: Iterable[int]) -> bool:
        """Check a coalition's interference-freedom on one channel."""
        return self.graph(channel).is_independent(buyers)

    def with_clique(self, buyers: Sequence[int]) -> "InterferenceMap":
        """Return a new map with ``buyers`` pairwise interfering on *every* channel.

        Used by the dummy expansion of Section II-A: virtual buyers cloned
        from the same physical buyer must never share a channel, which the
        paper encodes by making them interfering neighbours everywhere.
        """
        members = np.asarray(list(buyers), dtype=np.int64)
        first, second = np.triu_indices(members.size, k=1)
        new_graphs = []
        for graph in self._graphs:
            u, v = graph._edge_arrays()
            new_graphs.append(
                InterferenceGraph.from_edge_arrays(
                    graph.num_buyers,
                    np.concatenate([u, members[first]]),
                    np.concatenate([v, members[second]]),
                )
            )
        return InterferenceMap(new_graphs)

    def density(self, channel: int) -> float:
        """Edge density of channel ``channel``'s graph in [0, 1]."""
        graph = self.graph(channel)
        n = graph.num_buyers
        if n < 2:
            return 0.0
        return 2.0 * graph.num_edges / (n * (n - 1))

    def __repr__(self) -> str:
        return (
            f"InterferenceMap(num_channels={self.num_channels}, "
            f"num_buyers={self.num_buyers})"
        )
