"""Named, fully reproducible market scenarios.

* :func:`toy_example_market` -- the paper's running example (Figs. 1-3):
  five buyers, three sellers, hand-specified interference.  Stage I ends
  with social welfare 27 and Stage II improves it to 30; the test suite
  asserts the full round-by-round trace.
* :func:`counterexample_market` -- a five-buyer instance with the same
  character as the paper's Fig. 4/5 counterexample: the two-stage
  algorithm's output is individually rational and Nash-stable, yet it is
  pairwise-blocked (Definition 4) and not buyer-optimal (Definition 5) --
  another Nash-stable matching Pareto-dominates it for buyers.
* :func:`paper_simulation_market` -- the randomized setup of Section V-A
  (uniform deployment, disk interference, U[0,1] utilities, optional
  similarity manoeuvre).
* :func:`physical_market_example` -- a multi-channel-seller /
  multi-demand-buyer market exercising the dummy expansion of Section II-A.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.market import PhysicalBuyer, PhysicalSeller, SpectrumMarket
from repro.interference.generators import interference_map_from_edge_lists
from repro.interference.mwis import MwisAlgorithm
from repro.workloads.deployment import random_deployment
from repro.workloads.utilities import (
    iid_uniform_utilities,
    utilities_with_permutation_level,
)

__all__ = [
    "toy_example_market",
    "counterexample_market",
    "paper_simulation_market",
    "sparse_simulation_market",
    "physical_market_example",
    "homogeneous_market",
]


def toy_example_market(mwis_algorithm: MwisAlgorithm = MwisAlgorithm.GWMIN) -> SpectrumMarket:
    """The paper's toy example (Fig. 3), 0-indexed.

    Paper buyers 1-5 are ids 0-4; sellers a, b, c are channels 0-2.
    Utility vectors (rows = buyers, columns = channels a, b, c) are exactly
    Fig. 3(b).  The interference edges are the unique minimal sets
    consistent with every seller decision in the Fig. 1 / Fig. 2 walkthrough:

    * channel a: 1-2 and 1-4 interfere (ids 0-1, 0-3);
    * channel b: 1-3, 2-3, 3-4 interfere (ids 0-2, 1-2, 2-3);
    * channel c: 2-5 interferes (ids 1-4).
    """
    utilities = np.array(
        [
            [7.0, 6.0, 3.0],  # buyer 1
            [6.0, 5.0, 4.0],  # buyer 2
            [9.0, 10.0, 8.0],  # buyer 3
            [8.0, 9.0, 7.0],  # buyer 4
            [1.0, 2.0, 3.0],  # buyer 5
        ]
    )
    interference = interference_map_from_edge_lists(
        num_buyers=5,
        per_channel_edges=[
            [(0, 1), (0, 3)],  # channel a
            [(0, 2), (1, 2), (2, 3)],  # channel b
            [(1, 4)],  # channel c
        ],
    )
    return SpectrumMarket(
        utilities,
        interference,
        mwis_algorithm=mwis_algorithm,
        buyer_names=["buyer1", "buyer2", "buyer3", "buyer4", "buyer5"],
        channel_names=["a", "b", "c"],
    )


def counterexample_market(
    mwis_algorithm: MwisAlgorithm = MwisAlgorithm.GWMIN,
) -> SpectrumMarket:
    """A Section III-D style counterexample (pairwise-unstable output).

    Five buyers z, w, x, y, j on channels A, B, C.  Running the two-stage
    algorithm yields ``A = {z, y}, B = {w, x}, C = {j}`` (welfare 23),
    which is Nash-stable but:

    * **pairwise-blocked** by ``(B, j)``: seller B could evict x (price 3)
      and admit j (price 5) -- both strictly gain -- but the algorithm
      never allows that eviction in Stage II;
    * **not buyer-optimal**: ``A = {z, y}, B = {j, w}, C = {x}`` is also
      Nash-stable, makes buyer j strictly better off (1 -> 5) and nobody
      worse (welfare 27, which is also the optimum).

    The mechanics mirror the paper's Fig. 4/5 story: j is rejected by B in
    Stage I while interfering rivals (x, y) hold it; y is later evicted,
    but by then Stage II's no-eviction rule keeps j out.
    """
    # Buyers:        z      w      x      y      j
    # ids:           0      1      2      3      4
    # Channels:      A(0)   B(1)   C(2)
    utilities = np.array(
        [
            [10.0, 0.0, 0.0],  # z: anchor on A
            [7.0, 6.0, 0.0],  # w: prefers A, settles on B
            [0.0, 3.0, 3.0],  # x: indifferent between B and C
            [3.0, 4.0, 0.0],  # y: prefers B, evicted to A
            [0.0, 5.0, 1.0],  # j: wants B, stuck on C
        ]
    )
    interference = interference_map_from_edge_lists(
        num_buyers=5,
        per_channel_edges=[
            [(0, 1)],  # A: z-w
            [(2, 4), (3, 4), (1, 3)],  # B: x-j, y-j, w-y
            [],  # C: conflict-free
        ],
    )
    return SpectrumMarket(
        utilities,
        interference,
        mwis_algorithm=mwis_algorithm,
        buyer_names=["z", "w", "x", "y", "j"],
        channel_names=["A", "B", "C"],
    )


def paper_simulation_market(
    num_buyers: int,
    num_channels: int,
    rng: np.random.Generator,
    permutation_level: Optional[int] = None,
    area_side: float = 10.0,
    max_range: float = 5.0,
    mwis_algorithm: MwisAlgorithm = MwisAlgorithm.GWMIN,
) -> SpectrumMarket:
    """One random market with the paper's Section V-A settings.

    Parameters
    ----------
    num_buyers / num_channels:
        ``N`` and ``M``.
    rng:
        Seeded NumPy generator; a given (rng state, sizes) pair always
        produces the same market.
    permutation_level:
        ``None`` (default) draws plain i.i.d. U[0,1] utilities; an integer
        ``m`` applies the sort + m-permutation similarity manoeuvre (see
        :mod:`repro.workloads.utilities`).
    area_side / max_range:
        Geometry knobs; paper defaults 10 and 5.
    """
    deployment = random_deployment(
        num_buyers, num_channels, rng, area_side=area_side, max_range=max_range
    )
    if permutation_level is None:
        utilities = iid_uniform_utilities(num_buyers, num_channels, rng)
    else:
        utilities = utilities_with_permutation_level(
            num_buyers, num_channels, permutation_level, rng
        )
    return SpectrumMarket(
        utilities,
        deployment.interference_map(),
        mwis_algorithm=mwis_algorithm,
    )


def sparse_simulation_market(
    num_buyers: int,
    num_channels: int,
    rng: np.random.Generator,
    density: float = 5.0,
    max_range: float = 1.0,
    mwis_algorithm: MwisAlgorithm = MwisAlgorithm.GWMIN,
) -> SpectrumMarket:
    """A constant-density large market for the scalability benches.

    :func:`paper_simulation_market` keeps the paper's fixed ``10 x 10``
    area, so pushing ``N`` to the tens of thousands makes every disk
    cover a constant *fraction* of the buyers -- ``O(N^2)`` edges.
    Scalability runs instead hold the
    spatial buyer *density* fixed (``area_side = sqrt(N / density)``),
    which keeps expected interference degree bounded (at most
    ``density * pi * max_range^2``) while ``N`` grows; the map builder
    (:func:`~repro.interference.geometric.build_geometric_interference_map`)
    is ``O(E)`` in memory.  Everything else follows Section V-A: uniform
    locations, per-channel ranges uniform on ``(0, max_range]``, i.i.d.
    U[0,1] utilities, drawn in that order.
    """
    from repro.interference.geometric import build_geometric_interference_map
    from repro.workloads.deployment import random_transmission_ranges

    if density <= 0:
        raise ValueError(f"density must be positive, got {density}")
    area_side = float(np.sqrt(num_buyers / density))
    locations = rng.uniform(0.0, area_side, size=(num_buyers, 2))
    ranges = random_transmission_ranges(
        num_channels, rng, max_range=max_range
    )
    interference = build_geometric_interference_map(locations, ranges)
    utilities = iid_uniform_utilities(num_buyers, num_channels, rng)
    return SpectrumMarket(
        utilities, interference, mwis_algorithm=mwis_algorithm
    )


def homogeneous_market(
    values: "np.ndarray",
    graph,
    num_channels: int,
    mwis_algorithm: MwisAlgorithm = MwisAlgorithm.GWMIN,
) -> SpectrumMarket:
    """A market with identical channels (TRUST's setting, paper ref. [16]).

    Every channel shares one interference ``graph`` and every buyer values
    all channels equally at ``values[j]``.  This is the common ground on
    which the matching algorithm and the TRUST double auction can be
    compared head to head (``benchmarks/bench_auction.py``).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be a 1-D per-buyer vector")
    from repro.interference.graph import InterferenceMap

    utilities = np.repeat(values[:, None], num_channels, axis=1)
    interference = InterferenceMap([graph] * num_channels)
    return SpectrumMarket(utilities, interference, mwis_algorithm=mwis_algorithm)


def physical_market_example(
    rng: np.random.Generator,
    mwis_algorithm: MwisAlgorithm = MwisAlgorithm.GWMIN,
) -> SpectrumMarket:
    """A physical-level market exercising the dummy expansion.

    Two physical sellers (2 + 1 channels) and three physical buyers
    demanding 2, 1 and 2 channels respectively: ``M = 3`` channels and
    ``N = 5`` virtual buyers, with clones of the same physical buyer
    interfering everywhere.  Geometric interference is sampled from the
    paper's distributions for the virtual buyers.
    """
    sellers = [
        PhysicalSeller(name="carrierA", num_channels=2),
        PhysicalSeller(name="carrierB", num_channels=1),
    ]
    num_channels = sum(s.num_channels for s in sellers)
    demands = [2, 1, 2]
    buyers = [
        PhysicalBuyer(
            name=f"isp{idx}",
            num_requested=demand,
            utilities=tuple(rng.random(num_channels)),
        )
        for idx, demand in enumerate(demands)
    ]
    num_virtual = sum(demands)
    deployment = random_deployment(num_virtual, num_channels, rng)
    market = SpectrumMarket.from_physical(
        sellers,
        buyers,
        deployment.interference_map(),
        mwis_algorithm=mwis_algorithm,
    )
    market.validate()
    return market
