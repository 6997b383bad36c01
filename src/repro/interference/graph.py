"""Per-channel interference graphs.

The paper (Section II-A) models spectrum reuse with a family of graphs
``{G_i = (V, E_i)}`` -- one graph per channel ``i`` -- whose nodes are the
virtual buyers and whose edges join pairs of buyers that would interfere if
they operated on channel ``i`` at the same time.  ``e^i_{j,j'} = 1`` denotes
such an edge.

:class:`InterferenceGraph` stores one channel's graph as adjacency sets over
integer buyer identifiers and exposes the queries the matching algorithms
need: pairwise interference, neighbourhoods, and independence of candidate
coalitions.  For the batched Stage-I kernel it also carries two array
forms: a CSR neighbour index (built up front by the array constructors,
lazily otherwise) and packed bit rows derived from it on demand.
:class:`InterferenceMap` bundles the per-channel family and enforces that
every graph covers the same buyer population.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

import networkx as nx

from repro.errors import MarketConfigurationError

__all__ = ["InterferenceGraph", "InterferenceMap"]


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

    __slots__ = ("_num_buyers", "_adjacency", "_csr", "_packed")

    def __init__(self, num_buyers: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if num_buyers < 0:
            raise MarketConfigurationError(
                f"num_buyers must be non-negative, got {num_buyers}"
            )
        self._num_buyers = int(num_buyers)
        adjacency: List[Set[int]] = [set() for _ in range(self._num_buyers)]
        for j, k in edges:
            self._check_node(j)
            self._check_node(k)
            if j == k:
                raise MarketConfigurationError(
                    f"self-interference edge ({j}, {k}) is not allowed"
                )
            adjacency[j].add(k)
            adjacency[k].add(j)
        self._adjacency: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(neighbours) for neighbours in adjacency
        )
        self._csr = None
        self._packed = None

    @classmethod
    def from_adjacency_matrix(cls, matrix) -> "InterferenceGraph":
        """Build a graph from a boolean adjacency matrix (vectorised path).

        ``matrix`` must be square and symmetric with a zero diagonal.  This
        constructor skips the per-edge Python loop, which matters for
        large geometric deployments (thousands of buyers, millions of
        edges).  One ``np.flatnonzero`` over the matrix yields the CSR
        neighbour index directly (row-major flat positions modulo ``N``
        are each node's neighbour ids, ascending), so :meth:`neighbor_csr`
        is free afterwards.
        """
        import numpy as np

        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MarketConfigurationError(
                f"adjacency matrix must be square, got shape {matrix.shape}"
            )
        if matrix.diagonal().any():
            raise MarketConfigurationError(
                "adjacency matrix must have a zero diagonal (no self-loops)"
            )
        if not np.array_equal(matrix, matrix.T):
            raise MarketConfigurationError("adjacency matrix must be symmetric")
        num_buyers = matrix.shape[0]
        indices = (np.flatnonzero(matrix) % num_buyers).astype(np.int32)
        return cls._from_csr(num_buyers, np.count_nonzero(matrix, axis=1), indices)

    @classmethod
    def from_edge_arrays(cls, num_buyers: int, u, v) -> "InterferenceGraph":
        """Build a graph from parallel edge-endpoint arrays (sparse path).

        ``u`` and ``v`` are equal-length integer arrays; each position is
        one undirected edge ``(u[i], v[i])``.  Unlike
        :meth:`from_adjacency_matrix` this never materialises an ``N x N``
        matrix, so it is the constructor of choice for large sparse
        geometric deployments (``N`` in the tens of thousands).  The CSR
        neighbour index is built directly from the arrays, so
        :meth:`neighbor_csr` is free afterwards.
        """
        import numpy as np

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
        if u.size:
            lo = min(int(u.min()), int(v.min()))
            hi = max(int(u.max()), int(v.max()))
            if lo < 0 or hi >= num_buyers:
                raise MarketConfigurationError(
                    f"edge endpoint out of range [0, {num_buyers})"
                )
            if bool((u == v).any()):
                raise MarketConfigurationError(
                    "self-interference edges are not allowed"
                )
        # Symmetrise, sort lexicographically by (node, neighbour) and
        # deduplicate to get a canonical CSR layout with ascending
        # neighbour lists per node.
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if src.size:
            keep = np.empty(src.size, dtype=bool)
            keep[0] = True
            np.not_equal(src[1:], src[:-1], out=keep[1:])
            keep[1:] |= dst[1:] != dst[:-1]
            src, dst = src[keep], dst[keep]
        return cls._from_csr(
            num_buyers,
            np.bincount(src, minlength=num_buyers),
            dst.astype(np.int32),
        )

    @classmethod
    def _from_csr(cls, num_buyers: int, counts, indices) -> "InterferenceGraph":
        """Finish a vectorised build from a CSR neighbour index.

        ``counts[j]`` is node ``j``'s degree and ``indices`` lists every
        node's neighbours in ascending order, node after node; it becomes
        the CSR neighbour array as-is.
        """
        import numpy as np

        indptr = np.zeros(num_buyers + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        graph = cls.__new__(cls)
        graph._num_buyers = int(num_buyers)
        # np.split always returns at least one chunk, so an empty graph
        # needs its own case.
        chunks = np.split(indices, indptr[1:-1].tolist()) if num_buyers else []
        graph._adjacency = tuple(frozenset(chunk.tolist()) for chunk in chunks)
        graph._csr = (indptr, indices)
        graph._packed = None
        return graph

    def _check_node(self, j: int) -> None:
        if not 0 <= j < self._num_buyers:
            raise MarketConfigurationError(
                f"buyer index {j} out of range [0, {self._num_buyers})"
            )

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
        return sum(len(neighbours) for neighbours in self._adjacency) // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as sorted ``(j, k)`` tuples with ``j < k``."""
        for j, neighbours in enumerate(self._adjacency):
            for k in neighbours:
                if j < k:
                    yield (j, k)

    def interferes(self, j: int, k: int) -> bool:
        """Return ``True`` iff buyers ``j`` and ``k`` interfere (``e_{j,k}=1``)."""
        self._check_node(j)
        self._check_node(k)
        return k in self._adjacency[j]

    def neighbors(self, j: int) -> FrozenSet[int]:
        """Return the interfering neighbours of buyer ``j``."""
        self._check_node(j)
        return self._adjacency[j]

    def degree(self, j: int) -> int:
        """Number of interfering neighbours of buyer ``j``."""
        return len(self.neighbors(j))

    def neighbor_csr(self):
        """Per-node neighbour lists in CSR form: ``(indptr, indices)``.

        ``indices[indptr[j]:indptr[j + 1]]`` is buyer ``j``'s neighbour
        set as an ascending ``int32`` array.  This is the zero-copy,
        array-native view the struct-of-arrays Stage-I path consumes when
        linking pool arrivals into the packed adjacency rows.  The
        vectorised constructors build it up front; for graphs built from
        an edge iterable it is built lazily from the adjacency sets and
        cached for the graph's lifetime.
        """
        if self._csr is None:
            import numpy as np

            n = self._num_buyers
            counts = [len(nbrs) for nbrs in self._adjacency]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.asarray(counts, dtype=np.int64), out=indptr[1:])
            indices = np.empty(int(indptr[-1]), dtype=np.int32)
            for j, nbrs in enumerate(self._adjacency):
                if nbrs:
                    chunk = np.fromiter(nbrs, dtype=np.int32, count=len(nbrs))
                    chunk.sort()
                    indices[indptr[j] : indptr[j + 1]] = chunk
            self._csr = (indptr, indices)
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
            import numpy as np

            n = self._num_buyers
            words = (n + 63) // 64 if n else 1
            indptr, indices = self.neighbor_csr()
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
    def is_independent(self, buyers: Iterable[int]) -> bool:
        """Return ``True`` iff no two buyers in ``buyers`` interfere.

        This is the interference-free condition a spectrum coalition must
        satisfy to be preferred by its seller (eq. 6) and for its members to
        obtain non-zero utility (eq. 5).
        """
        chosen = list(buyers)
        chosen_set = set(chosen)
        if len(chosen_set) != len(chosen):
            # A buyer listed twice trivially "interferes with herself" in the
            # dummy-expansion sense: the same buyer cannot hold one channel
            # twice.
            return False
        for j in chosen_set:
            if not chosen_set.isdisjoint(self._adjacency[j]):
                return False
        return True

    def conflicts_with_set(self, j: int, buyers: Iterable[int]) -> bool:
        """Return ``True`` iff buyer ``j`` interferes with anyone in ``buyers``."""
        self._check_node(j)
        neighbours = self._adjacency[j]
        return any(k in neighbours for k in buyers if k != j)

    def independent_subset_greedily_compatible(
        self, anchor: Iterable[int], candidates: Sequence[int]
    ) -> List[int]:
        """Filter ``candidates`` down to those compatible with ``anchor``.

        Returns the candidates that do not interfere with any buyer in
        ``anchor`` (candidates may still interfere with *each other*; that
        is resolved by the MWIS solver).
        """
        anchor_set = set(anchor)
        return [
            j
            for j in candidates
            if j not in anchor_set and not self.conflicts_with_set(j, anchor_set)
        ]

    # ------------------------------------------------------------------
    # Interop / dunder
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.Graph":
        """Export the graph to :class:`networkx.Graph` (nodes ``0..N-1``)."""
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
            and self._adjacency == other._adjacency
        )

    def __hash__(self) -> int:
        return hash((self._num_buyers, self._adjacency))

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
        clique_edges = [
            (buyers[a], buyers[b])
            for a in range(len(buyers))
            for b in range(a + 1, len(buyers))
        ]
        new_graphs = []
        for graph in self._graphs:
            edges = list(graph.edges()) + clique_edges
            new_graphs.append(InterferenceGraph(graph.num_buyers, edges))
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
