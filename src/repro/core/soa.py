"""Struct-of-arrays (SoA) Stage I: batched deferred acceptance.

The reference Stage-I loop in :mod:`repro.core.deferred_acceptance`
solves each seller's MWIS one at a time in Python.  This module keeps
the same algorithm but holds the hot state in contiguous numpy arrays
-- buyer preference matrices, per-seller packed adjacency rows,
waitlist membership -- and advances *all* sellers of a proposal round
through one vectorised score/pick/removal loop.

Equivalence contract
--------------------
The batched kernels reproduce the set-based references' selections
(:mod:`repro.interference.mwis`) exactly, not merely equivalently:

* GWMIN scores are ``w / (deg + 1.0)`` -- the identical two IEEE-754
  operations per node, on the identical operand bits.
* GWMIN2 closed-neighbourhood weights are initialised by an
  ascending-index sequential sum (``np.cumsum`` is a left-associated
  running sum; interleaved ``+ 0.0`` terms for non-neighbours do not
  change any bit of a finite partial sum) and decremented one removed
  node at a time in ascending buyer order, exactly like the reference
  ``mwis_greedy_gwmin2`` loop.
* Ties break to the smallest buyer index: pool arrays are kept in
  ascending buyer order, so a first-occurrence ``reduceat`` argmax is
  the same tie-break as the reference's strict-improvement scan.
* Isolated harvest: a node with no alive pool neighbours can never be
  removed by another pick and its own removal touches no score, so all
  such nodes are moved to the coalition eagerly.  The contested pick
  sequence -- and therefore every score mutation -- is unchanged, which
  keeps the final selection byte-identical while collapsing sparse
  pools in O(1) iterations.

The path covers the algorithms in :data:`BATCHED_ALGORITHMS` (GWMIN,
GWMIN2); :func:`~repro.core.deferred_acceptance.deferred_acceptance`
sends every other algorithm to the per-seller reference loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.market import SpectrumMarket
from repro.core.matching import Matching
from repro.core.trace import StageOneRound
from repro.interference import graph as graph_module
from repro.interference.mwis import MwisAlgorithm
from repro.obs.events import round_to_event
from repro.obs.recorder import Recorder

__all__ = [
    "BATCHED_ALGORITHMS",
    "COST_COUNTERS",
    "MarketSoA",
    "SellerPoolCache",
    "batched_deferred_acceptance",
]

#: MWIS algorithms with a batched SoA kernel.  Stage I picks its path by
#: membership, read per call, so tests reach the reference loop by
#: monkeypatching this tuple to ``()``.
BATCHED_ALGORITHMS = (MwisAlgorithm.GWMIN, MwisAlgorithm.GWMIN2)

_ONE = np.uint64(1)
_LOW6 = np.uint64(63)

#: Deterministic cost counters for the batched SoA kernel: machine-
#: independent operation counts accumulated by every solve and
#: read/reset by :mod:`repro.prof.counters`.  Two same-seed runs must
#: show identical values; a drift is an algorithmic change, not noise.
COST_COUNTERS: Dict[str, int] = {
    "soa.mwis_iter_ops": 0,
    "soa.popcount_word_ops": 0,
    "soa.reduceat_row_ops": 0,
    "soa.compaction_ops": 0,
    "soa.isolated_harvest_ops": 0,
    "soa.pick_ops": 0,
    "soa.cache_departed_ops": 0,
    "soa.cache_arrived_ops": 0,
}


if hasattr(np, "bitwise_count"):

    def _popcount(words: np.ndarray) -> np.ndarray:
        return np.bitwise_count(words)

else:  # pragma: no cover - numpy < 2.0 fallback

    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount(words: np.ndarray) -> np.ndarray:
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return _POP8[as_bytes].reshape(words.shape + (8,)).sum(axis=-1)


def _slot_words_bits(slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Word index and bit mask for each slot (64-bit packed layout)."""
    return (slots >> 6).astype(np.intp), _ONE << (
        slots.astype(np.uint64) & _LOW6
    )


def _mask_words(slots: np.ndarray, words: int) -> np.ndarray:
    """Packed 64-bit word mask with the given slot bits set."""
    bits = np.zeros(words * 64, dtype=bool)
    bits[slots] = True
    return np.packbits(bits, bitorder="little").view(np.uint64)


class SellerPoolCache:
    """Slot-stable packed pool state for one seller's candidate pools.

    Between consecutive rounds a seller's pool changes only by the
    departed (evicted/rejected) members and the fresh proposers, so the
    packed pool-local adjacency rows are maintained by delta instead of
    being rebuilt from the channel graph every round.

    Members occupy *slots* -- indices into fixed arrays.  ``rows[s]`` is
    member ``s``'s neighbourhood within the current pool as packed
    64-bit words over slot indices.  Two layouts share the interface
    (``slot_of``, ``ids``, ``weights``, ``rows``, ``words``):

    * **dense** (``N <= PACKED_QUERY_MAX_BUYERS``, the size up to which
      the graph's packed rows serve coalition queries too, ~2 MiB a
      channel at the bound): slots *are* buyer ids.
      Rows live in a fixed ``(N, ceil(N/64))`` table and the update is
      the delta formula
      ``row = (row & ~departed) | (adjacency & arrived)`` on the
      channel graph's packed adjacency matrix -- a few word-wide
      vectorised ops per round.
    * **sparse** (large ``N``): slots are recycled pool-local indices,
      so nothing dense in ``N`` is ever built.  A departure clears its
      slot's column from every row and frees the slot; an arrival takes
      the lowest free slot and links both directions from the channel
      graph's CSR neighbour lists.

    Weights (the buyer's offered channel price) are immutable per
    market, so they are never invalidated.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_adj",
        "_prices",
        "_member",
        "_pool_words",
        "num_buyers",
        "dense",
        "slot_of",
        "capacity",
        "words",
        "rows",
        "ids",
        "weights",
        "member",
        "_free",
    )

    def __init__(self, graph, prices) -> None:
        self._prices = np.asarray(prices, dtype=np.float64)
        num_buyers = graph.num_buyers
        self.num_buyers = num_buyers
        # Read at call time, so tests can monkeypatch the one constant.
        self.dense = num_buyers <= graph_module.PACKED_QUERY_MAX_BUYERS
        if self.dense:
            self.words = (num_buyers + 63) // 64 if num_buyers else 1
            self._adj = graph.packed_rows()
            self.rows = np.zeros((num_buyers, self.words), dtype=np.uint64)
            self.slot_of = np.arange(num_buyers, dtype=np.int32)
            self.ids = np.arange(num_buyers, dtype=np.int64)
            self.weights = self._prices
            self._member = np.zeros(num_buyers, dtype=bool)
            self._pool_words = np.zeros(self.words, dtype=np.uint64)
            return
        self._indptr, self._indices = graph.neighbor_csr()
        self.slot_of = np.full(num_buyers, -1, dtype=np.int32)
        self.capacity = 64
        self.words = 1
        self.rows = np.zeros((64, 1), dtype=np.uint64)
        self.ids = np.full(64, -1, dtype=np.int64)
        self.weights = np.zeros(64, dtype=np.float64)
        self.member = np.zeros(64, dtype=bool)
        self._free = list(range(63, -1, -1))

    def _grow(self) -> None:
        old_cap, old_words = self.capacity, self.words
        new_cap = old_cap * 2
        new_words = new_cap // 64
        rows = np.zeros((new_cap, new_words), dtype=np.uint64)
        rows[:old_cap, :old_words] = self.rows
        self.rows = rows
        self.ids = np.concatenate(
            [self.ids, np.full(old_cap, -1, dtype=np.int64)]
        )
        self.weights = np.concatenate(
            [self.weights, np.zeros(old_cap, dtype=np.float64)]
        )
        self.member = np.concatenate(
            [self.member, np.zeros(old_cap, dtype=bool)]
        )
        # Lowest slots are handed out first, keeping the active slot
        # range (and therefore the packed row width the solver touches)
        # as small as the largest pool seen so far.
        self._free.extend(range(new_cap - 1, old_cap - 1, -1))
        self.capacity, self.words = new_cap, new_words

    def update(self, pool: np.ndarray) -> None:
        """Apply the delta from the cached pool to ``pool`` (ascending ids)."""
        if self.dense:
            self._update_dense(pool)
        else:
            self._update_sparse(pool)

    def _update_dense(self, pool: np.ndarray) -> None:
        member = self._member
        new_member = np.zeros(self.num_buyers, dtype=bool)
        new_member[pool] = True
        departed = np.flatnonzero(member & ~new_member)
        arrivals = pool[~member[pool]]
        remain = np.flatnonzero(member & new_member)
        COST_COUNTERS["soa.cache_departed_ops"] += int(departed.size)
        COST_COUNTERS["soa.cache_arrived_ops"] += int(arrivals.size)
        rows, adj, words = self.rows, self._adj, self.words
        pool_words = self._pool_words
        dep_words = arr_words = None
        if departed.size:
            dep_words = _mask_words(departed, words)
            pool_words &= ~dep_words
        if arrivals.size:
            arr_words = _mask_words(arrivals, words)
            pool_words |= arr_words
        if remain.size:
            # The delta formula, one vectorised pass over the surviving
            # members' rows.
            if departed.size and arrivals.size:
                rows[remain] = (rows[remain] & ~dep_words) | (
                    adj[remain] & arr_words
                )
            elif departed.size:
                rows[remain] &= ~dep_words
            elif arrivals.size:
                rows[remain] |= adj[remain] & arr_words
        if arrivals.size:
            rows[arrivals] = adj[arrivals] & pool_words
        self._member = new_member

    def _update_sparse(self, pool: np.ndarray) -> None:
        slot_of = self.slot_of
        slots = slot_of[pool]
        missing = slots < 0
        current = np.flatnonzero(self.member)
        if current.size:
            keep = np.zeros(self.capacity, dtype=bool)
            keep[slots[~missing]] = True
            departed = current[~keep[current]]
        else:
            departed = current
        COST_COUNTERS["soa.cache_departed_ops"] += int(departed.size)
        if departed.size:
            self.member[departed] = False
            slot_of[self.ids[departed]] = -1
            self.ids[departed] = -1
            clear = _mask_words(departed, self.words)
            np.bitwise_and(self.rows, ~clear, out=self.rows)
            self.rows[departed] = 0
            self._free.extend(departed.tolist())
        arrivals = pool[missing]
        COST_COUNTERS["soa.cache_arrived_ops"] += int(arrivals.size)
        if arrivals.size:
            while len(self._free) < arrivals.size:
                self._grow()
            free = self._free
            new_slots = np.array(
                [free.pop() for _ in range(arrivals.size)], dtype=np.int64
            )
            self.ids[new_slots] = arrivals
            self.weights[new_slots] = self._prices[arrivals]
            self.member[new_slots] = True
            slot_of[arrivals] = new_slots
            self._link_arrivals(arrivals, new_slots)

    def _link_arrivals(
        self, arrivals: np.ndarray, new_slots: np.ndarray
    ) -> None:
        """Set both directions of every arrival-member adjacency bit.

        All arrivals are marked members before linking, so arrival-
        arrival edges are seen from both endpoints (idempotent OR) and
        never missed.  The ragged per-arrival neighbour lists from the
        channel CSR are flattened into one (source slot, neighbour slot)
        pair list, then both bit directions are materialised through
        boolean matrices + ``packbits`` -- no per-arrival Python loop.
        """
        indptr, indices, rows = self._indptr, self._indices, self.rows
        counts = indptr[arrivals + 1] - indptr[arrivals]
        total = int(counts.sum())
        if total == 0:
            return
        rep = np.repeat(np.arange(arrivals.size, dtype=np.int64), counts)
        ends = np.cumsum(counts)
        flat = (
            np.arange(total, dtype=np.int64)
            - (ends - counts)[rep]
            + indptr[arrivals][rep]
        )
        ns = self.slot_of[indices[flat]]
        valid = ns >= 0
        if not valid.any():
            return
        ns = ns[valid].astype(np.int64)
        rep = rep[valid]
        own = new_slots[rep]
        bits = self.words * 64
        forward = np.zeros((arrivals.size, bits), dtype=bool)
        forward[rep, ns] = True
        rows[new_slots] |= np.packbits(
            forward, axis=1, bitorder="little"
        ).view(np.uint64)
        touched, inverse = np.unique(ns, return_inverse=True)
        reverse = np.zeros((touched.size, bits), dtype=bool)
        reverse[inverse, own] = True
        rows[touched] |= np.packbits(
            reverse, axis=1, bitorder="little"
        ).view(np.uint64)


def _batched_mwis(
    algorithm: MwisAlgorithm,
    caches: Sequence[SellerPoolCache],
    pools: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Solve every segment's greedy MWIS in one vectorised loop.

    ``pools[s]`` is segment ``s``'s candidate pool as ascending buyer
    ids, already applied to ``caches[s]`` via :meth:`SellerPoolCache.update`
    (the pool may also be a subset of the cache's members, as in the
    monotone guard's extension solve).  Returns the chosen buyers per
    segment, ascending.
    """
    num_segments = len(pools)
    if num_segments == 0:
        return []
    gwmin2 = algorithm is MwisAlgorithm.GWMIN2

    sizes = [pool.size for pool in pools]
    slot_list = [
        cache.slot_of[pool].astype(np.int64)
        for cache, pool in zip(caches, pools)
    ]
    width = max(int(s.max()) // 64 + 1 for s in slot_list)

    total = sum(sizes)
    rows_g = np.zeros((total, width), dtype=np.uint64)
    alive = np.zeros((num_segments, width), dtype=np.uint64)
    offsets = np.zeros(num_segments + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    slots = np.concatenate(slot_list)
    ids = np.concatenate(pools)
    seg_id = np.repeat(np.arange(num_segments, dtype=np.int64), sizes)
    weights = np.concatenate(
        [
            cache.weights[slot_seg]
            for cache, slot_seg in zip(caches, slot_list)
        ]
    )
    for s in range(num_segments):
        cache, slot_seg = caches[s], slot_list[s]
        nw = int(slot_seg.max()) // 64 + 1
        rows_g[offsets[s] : offsets[s + 1], :nw] = cache.rows[slot_seg, :nw]
        alive[s] = _mask_words(slot_seg, width)
    wq, bit = _slot_words_bits(slots)

    closed = None
    if gwmin2:
        # Closed-neighbourhood weights, initialised per segment by the
        # ascending-buyer sequential sum the reference performs.
        closed = np.empty(total, dtype=np.float64)
        for s in range(num_segments):
            s0, s1 = int(offsets[s]), int(offsets[s + 1])
            slot_seg = slots[s0:s1]
            w_seg = weights[s0:s1]
            sub = rows_g[s0:s1][:, (slot_seg >> 6).astype(np.intp)]
            nbr = (sub >> (slot_seg.astype(np.uint64) & _LOW6)) & _ONE
            contrib = nbr.astype(np.float64) * w_seg[np.newaxis, :]
            acc = np.cumsum(contrib, axis=1)
            closed[s0:s1] = w_seg + acc[:, -1]

    chosen_ids: List[np.ndarray] = []
    chosen_seg: List[np.ndarray] = []

    def seg_bounds() -> np.ndarray:
        cuts = np.flatnonzero(np.diff(seg_id)) + 1
        return np.concatenate(
            [[0], cuts, [seg_id.size]]
        ).astype(np.int64)

    bounds = offsets
    starts = bounds[:-1]
    span = np.diff(bounds)
    positions = np.arange(slots.size, dtype=np.int64)
    iters = popcount_words = reduceat_rows = 0
    compactions = harvested = picked = 0
    while True:
        alive_m = (alive[seg_id, wq] & bit) != 0
        alive_count = int(np.count_nonzero(alive_m))
        if alive_count == 0:
            break
        iters += 1
        # Compaction: drop dead members (and finished segments) from the
        # working arrays once most of them are gone, so late iterations
        # only touch the still-contested tail.
        if slots.size > 256 and alive_count * 2 < slots.size:
            compactions += 1
            keep = alive_m
            slots, ids = slots[keep], ids[keep]
            seg_id, weights = seg_id[keep], weights[keep]
            rows_g = rows_g[keep]
            wq, bit = wq[keep], bit[keep]
            if closed is not None:
                closed = closed[keep]
            alive_m = alive_m[keep]
            bounds = seg_bounds()
            starts = bounds[:-1]
            span = np.diff(bounds)
            positions = np.arange(slots.size, dtype=np.int64)

        live = rows_g & alive[seg_id]
        if gwmin2:
            no_neighbour = ~live.any(axis=1)
        else:
            deg = _popcount(live).sum(axis=1).astype(np.int64)
            no_neighbour = deg == 0
            popcount_words += int(live.size)

        iso = alive_m & no_neighbour
        if iso.any():
            pos = np.flatnonzero(iso)
            harvested += int(pos.size)
            chosen_ids.append(ids[pos])
            chosen_seg.append(seg_id[pos])
            np.bitwise_xor.at(alive, (seg_id[pos], wq[pos]), bit[pos])
            alive_m[pos] = False
            if not alive_m.any():
                continue

        if gwmin2:
            score = np.zeros(slots.size, dtype=np.float64)
            positive = closed > 0.0
            np.divide(weights, closed, out=score, where=positive)
        else:
            score = weights / (deg + 1.0)
        masked = np.where(alive_m, score, -1.0)

        seg_max = np.maximum.reduceat(masked, starts)
        reduceat_rows += 2 * int(masked.size)  # max pass + min pass below
        active = seg_max >= 0.0
        if not active.any():  # pragma: no cover - alive members imply an
            break  # active segment; defensive against a stuck loop.
        cand = np.where(
            masked == np.repeat(seg_max, span), positions, slots.size
        )
        picks = np.minimum.reduceat(cand, starts)[active]

        chosen_ids.append(ids[picks])
        chosen_seg.append(seg_id[picks])
        picked += int(picks.size)
        pseg = seg_id[picks]
        before = alive[pseg]
        removed = rows_g[picks] & before
        removed[np.arange(picks.size), wq[picks]] |= bit[picks]
        alive[pseg] = before & ~removed

        if gwmin2 and picks.size:
            # Mirror the reference exactly: every removed node, in
            # ascending buyer order, subtracts its weight from the
            # closed weight of each pool neighbour -- one scalar
            # subtraction per (removed, neighbour) pair.  The reference
            # only touches *alive* neighbours; decrementing dead
            # ones too is output-identical (a dead member's closed
            # weight is never read again) and saves the alive filter.
            # All per-pick bit decoding is batched across the picks of
            # this iteration; only the order-sensitive subtractions stay
            # in the Python loop.
            rbits = np.unpackbits(
                removed.view(np.uint8), axis=1, bitorder="little"
            )
            prow, rslot = np.nonzero(rbits)
            rcuts = np.searchsorted(prow, np.arange(picks.size + 1))
            lo_arr = np.searchsorted(seg_id, pseg)
            hi_arr = np.searchsorted(seg_id, pseg, side="right")
            rw_all = (rslot >> 6).astype(np.intp)
            rb_all = _ONE << (rslot.astype(np.uint64) & _LOW6)
            for a in range(picks.size):
                r0, r1 = int(rcuts[a]), int(rcuts[a + 1])
                if r1 - r0 <= 1:
                    continue
                cache = caches[int(pseg[a])]
                sl = rslot[r0:r1]
                rw, rb = rw_all[r0:r1], rb_all[r0:r1]
                if not cache.dense:
                    # Sparse slots are recycled, so ascending slot order
                    # is not ascending buyer order; dense slots are ids.
                    order = np.argsort(cache.ids[sl], kind="stable")
                    sl, rw, rb = sl[order], rw[order], rb[order]
                lo, hi = int(lo_arr[a]), int(hi_arr[a])
                touched = (rows_g[lo:hi][:, rw] & rb) != 0
                # Left-fold via cumsum: the reference applies
                # ``closed -= w_r`` per adjacent removed node in
                # ascending buyer order.  ``x + (-w) == x - w`` and
                # ``x + (-0.0) == x`` exactly in IEEE-754, so a single
                # row-wise cumsum over [closed, step_1, ..., step_R]
                # with -0.0 steps for non-neighbours reproduces the
                # sequential subtractions bit-for-bit.
                fold = np.empty((hi - lo, sl.size + 1), dtype=np.float64)
                fold[:, 0] = closed[lo:hi]
                np.multiply(touched, -cache.weights[sl], out=fold[:, 1:])
                np.cumsum(fold, axis=1, out=fold)
                closed[lo:hi] = fold[:, -1]

    counters = COST_COUNTERS
    counters["soa.mwis_iter_ops"] += iters
    counters["soa.popcount_word_ops"] += popcount_words
    counters["soa.reduceat_row_ops"] += reduceat_rows
    counters["soa.compaction_ops"] += compactions
    counters["soa.isolated_harvest_ops"] += harvested
    counters["soa.pick_ops"] += picked

    out: List[np.ndarray] = []
    if chosen_ids:
        all_ids = np.concatenate(chosen_ids)
        all_seg = np.concatenate(chosen_seg)
    else:
        all_ids = np.empty(0, dtype=np.int64)
        all_seg = np.empty(0, dtype=np.int64)
    for s in range(num_segments):
        sel = all_ids[all_seg == s]
        sel.sort()
        out.append(sel)
    return out


class MarketSoA:
    """Struct-of-arrays view of a market's Stage-I hot state.

    Holds the buyer-side preference arrays (``pref_order`` rows are each
    buyer's channels by descending utility, stable-tie-broken to the
    smallest channel index, matching ``buyer_preference_order``) and the
    per-seller :class:`SellerPoolCache` pool states, created lazily per
    channel.
    """

    __slots__ = ("market", "pref_order", "pref_len", "scratch", "_caches")

    def __init__(self, market: SpectrumMarket) -> None:
        self.market = market
        num_buyers = market.num_buyers
        num_channels = market.num_channels
        utilities = np.empty((num_buyers, num_channels), dtype=np.float64)
        for channel in range(num_channels):
            utilities[:, channel] = market.channel_prices(channel)
        self.pref_order = np.argsort(
            -utilities, axis=1, kind="stable"
        ).astype(np.int32)
        self.pref_len = np.count_nonzero(utilities > 0.0, axis=1).astype(
            np.int32
        )
        # Reusable membership scratchpad for set tests (callers must
        # reset the bits they set before returning).
        self.scratch = np.zeros(num_buyers, dtype=bool)
        self._caches: Dict[int, SellerPoolCache] = {}

    def cache(self, channel: int) -> SellerPoolCache:
        cache = self._caches.get(channel)
        if cache is None:
            cache = self._caches[channel] = SellerPoolCache(
                self.market.graph(channel),
                self.market.channel_prices(channel),
            )
        return cache


def _sum_weights(cache: SellerPoolCache, members: np.ndarray) -> float:
    """``sum(weights[j] for j in members)`` with Python-sum semantics."""
    return sum(cache.weights[cache.slot_of[members]].tolist())


def _select_coalitions(
    soa: MarketSoA,
    algorithm: MwisAlgorithm,
    segments: Sequence[Tuple[int, np.ndarray, np.ndarray, np.ndarray]],
    monotone_guard: bool,
) -> List[np.ndarray]:
    """Batched ``seller_select_coalition`` across one round's segments.

    Each segment is ``(channel, pool, waitlist, fresh)`` with ascending
    id arrays.  Applies the pool delta to each seller's cache, solves
    every primary MWIS in one batch, then (with the guard) every
    keep-and-extend alternative in a second batch, and compares values
    with the reference path's exact summation order.
    """
    caches = []
    pools = []
    for channel, pool, _waitlist, _fresh in segments:
        cache = soa.cache(channel)
        cache.update(pool)
        caches.append(cache)
        pools.append(pool)
    primary = _batched_mwis(algorithm, caches, pools)
    if not monotone_guard:
        return primary

    guarded = [i for i, seg in enumerate(segments) if seg[2].size]
    if not guarded:
        return primary

    ext_caches: List[SellerPoolCache] = []
    ext_pools: List[np.ndarray] = []
    ext_index: List[int] = []
    compat_of: Dict[int, np.ndarray] = {}
    for i in guarded:
        _channel, pool, waitlist, _fresh = segments[i]
        cache = caches[i]
        slots = cache.slot_of[pool]
        wl_slots = cache.slot_of[waitlist]
        inc_words = _mask_words(wl_slots, cache.words)
        conflict = (cache.rows[slots] & inc_words).any(axis=1)
        scratch = soa.scratch
        scratch[waitlist] = True
        in_incumbent = scratch[pool]
        scratch[waitlist] = False
        compat = pool[~in_incumbent & ~conflict]
        compat_of[i] = compat
        if compat.size:
            ext_caches.append(cache)
            ext_pools.append(compat)
            ext_index.append(i)
    extensions = dict(
        zip(ext_index, _batched_mwis(algorithm, ext_caches, ext_pools))
    )

    empty = np.empty(0, dtype=np.int64)
    out = list(primary)
    for i in guarded:
        _channel, _pool, waitlist, _fresh = segments[i]
        cache = caches[i]
        candidate = primary[i]
        extension = extensions.get(i, empty)
        candidate_value = _sum_weights(cache, candidate)
        incumbent_value = _sum_weights(cache, waitlist)
        extended_value = incumbent_value + _sum_weights(cache, extension)
        if extended_value > candidate_value:
            out[i] = np.sort(np.concatenate((waitlist, extension)))
    return out


def batched_deferred_acceptance(
    market: SpectrumMarket,
    record_trace: bool = True,
    monotone_guard: bool = True,
    rec: Optional[Recorder] = None,
):
    """SoA-batched Stage I; byte-identical to the reference loop.

    Drives the same round structure as ``_deferred_acceptance_impl`` --
    proposals, per-seller coalition re-formation, evictions/rejections,
    trace records -- with numpy array state and one batched MWIS solve
    per round (wrapped in a single ``stage1.mwis`` span covering all of
    the round's sellers).  Returns a ``StageOneResult``-compatible tuple
    of fields via the caller in :mod:`repro.core.deferred_acceptance`.
    """
    observing = rec is not None and rec.enabled
    emitting = observing and rec.events.enabled
    mwis_timer = rec.metrics.timer("stage1.mwis_solve_s") if observing else None

    soa = MarketSoA(market)
    num_buyers = market.num_buyers
    num_channels = market.num_channels
    algorithm = market.mwis_algorithm
    pref_order, pref_len = soa.pref_order, soa.pref_len

    cursor = np.zeros(num_buyers, dtype=np.int32)
    matched_to = np.full(num_buyers, -1, dtype=np.int32)
    empty = np.empty(0, dtype=np.int64)
    waitlists: List[np.ndarray] = [empty] * num_channels

    rounds: List[StageOneRound] = []
    num_rounds = 0
    total_proposals = 0

    while True:
        proposers = np.flatnonzero((matched_to < 0) & (cursor < pref_len))
        if proposers.size == 0:
            break
        num_rounds += 1
        total_proposals += int(proposers.size)

        chan = pref_order[proposers, cursor[proposers]].astype(np.int64)
        cursor[proposers] += 1
        order = np.argsort(chan, kind="stable")
        sorted_chan = chan[order]
        sorted_prop = proposers[order].astype(np.int64)
        cuts = np.flatnonzero(np.diff(sorted_chan)) + 1
        starts = np.concatenate([[0], cuts])
        ends = np.concatenate([cuts, [sorted_chan.size]])
        channels = sorted_chan[starts]

        segments = []
        for idx in range(channels.size):
            channel = int(channels[idx])
            fresh = sorted_prop[starts[idx] : ends[idx]]
            waitlist = waitlists[channel]
            # Fresh proposers are unmatched, so pool = waitlist | fresh
            # is a disjoint sorted merge.
            pool = np.sort(np.concatenate((waitlist, fresh)))
            segments.append((channel, pool, waitlist, fresh))

        if observing:
            with rec.span("stage1.mwis"), mwis_timer:
                selected = _select_coalitions(
                    soa, algorithm, segments, monotone_guard
                )
        else:
            selected = _select_coalitions(
                soa, algorithm, segments, monotone_guard
            )

        evicted_ids: List[np.ndarray] = []
        evicted_chan: List[int] = []
        rejected_ids: List[np.ndarray] = []
        rejected_chan: List[int] = []
        scratch = soa.scratch
        for (channel, _pool, waitlist, fresh), chosen in zip(
            segments, selected
        ):
            scratch[chosen] = True
            evicted = waitlist[~scratch[waitlist]]
            rejected = fresh[~scratch[fresh]]
            scratch[chosen] = False
            if evicted.size:
                matched_to[evicted] = -1
                evicted_ids.append(evicted)
                evicted_chan.append(channel)
            if rejected.size:
                rejected_ids.append(rejected)
                rejected_chan.append(channel)
            matched_to[chosen] = channel
            waitlists[channel] = chosen

        num_evictions = sum(arr.size for arr in evicted_ids)
        num_rejections = sum(arr.size for arr in rejected_ids)

        if record_trace or emitting:
            record = StageOneRound(
                round_index=num_rounds,
                proposals=_proposals_record(
                    channels, starts, ends, sorted_prop
                ),
                waitlists={
                    channel: tuple(waitlists[channel].tolist())
                    for channel in range(num_channels)
                    if waitlists[channel].size
                },
                evictions=_pairs_record(evicted_ids, evicted_chan),
                rejections=_pairs_record(rejected_ids, rejected_chan),
            )
            if record_trace:
                rounds.append(record)
            if emitting:
                rec.events.emit(round_to_event(record))
        if observing:
            rec.metrics.counter("stage1.evictions").inc(num_evictions)
            rec.metrics.counter("stage1.rejections").inc(num_rejections)

    matching = Matching(num_channels, num_buyers)
    for channel in range(num_channels):
        matching.set_coalition(channel, waitlists[channel].tolist())

    return matching, tuple(rounds), num_rounds, total_proposals


def _proposals_record(
    channels: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    sorted_prop: np.ndarray,
) -> Dict[int, Tuple[int, ...]]:
    """Round proposals keyed by channel, in first-proposer order.

    The reference loop inserts a channel into its proposals dict when the
    smallest buyer proposing to it is reached, so the dict (and the
    golden trace JSON serialised from it) is ordered by each channel's
    minimum proposer.  ``sorted_prop`` slices are ascending already.
    """
    first_proposer = sorted_prop[starts]
    record: Dict[int, Tuple[int, ...]] = {}
    for idx in np.argsort(first_proposer, kind="stable").tolist():
        record[int(channels[idx])] = tuple(
            sorted_prop[starts[idx] : ends[idx]].tolist()
        )
    return record


def _pairs_record(
    id_arrays: List[np.ndarray], channel_of: List[int]
) -> Tuple[Tuple[int, int], ...]:
    """``(buyer, channel)`` pairs sorted like the reference trace records.

    A buyer appears at most once per round (evicted from, or rejected
    by, exactly one channel), so sorting by buyer id alone reproduces
    ``tuple(sorted(pairs))``.
    """
    if not id_arrays:
        return ()
    buyers = np.concatenate(id_arrays)
    chans = np.concatenate(
        [
            np.full(arr.size, channel, dtype=np.int64)
            for arr, channel in zip(id_arrays, channel_of)
        ]
    )
    order = np.argsort(buyers, kind="stable")
    return tuple(
        zip(buyers[order].tolist(), chans[order].tolist())
    )
