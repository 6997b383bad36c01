"""Differential suite: batched SoA Stage I vs the set-based reference.

The struct-of-arrays batched path (:mod:`repro.core.soa`) promises
*byte-identical* Stage-I outcomes -- the same coalitions, the same
welfare bits, the same round/proposal counts -- as the per-seller
reference loop over the set-based MWIS solvers, which Stage I takes
when ``soa.BATCHED_ALGORITHMS`` excludes the market's algorithm.  These
tests enforce that promise across seeds, MWIS algorithms, both
monotone-guard settings and both :class:`~repro.core.soa.SellerPoolCache`
layouts, with Hypothesis exploring random geometric markets when it is
installed (mirroring ``tests/interference/test_mwis_differential.py``
one layer down).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.soa as soa
from repro.core.deferred_acceptance import deferred_acceptance
from repro.interference.mwis import MwisAlgorithm
from repro.workloads.scenarios import paper_simulation_market

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False

MODES = ("batched", "reference")

ALGORITHMS = (
    MwisAlgorithm.GWMIN,
    MwisAlgorithm.GWMIN2,
    MwisAlgorithm.GWMAX,
)


def _fingerprint(market, result):
    """Everything Stage I produces, with floats as exact bit patterns."""
    coalitions = tuple(
        tuple(result.matching.coalition(channel))
        for channel in range(market.num_channels)
    )
    welfare = float(result.matching.social_welfare(market.utilities))
    return (
        coalitions,
        welfare.hex(),
        result.num_rounds,
        result.total_proposals,
        len(result.rounds),
    )


def _all_modes(market, monotone_guard: bool):
    """Fingerprint the same market through every Stage-I path."""
    # Set and restored by hand rather than with ``monkeypatch``:
    # hypothesis forbids function-scoped fixtures under ``@given``.
    batched = soa.BATCHED_ALGORITHMS
    prints = {}
    for mode in MODES:
        soa.BATCHED_ALGORITHMS = batched if mode == "batched" else ()
        try:
            result = deferred_acceptance(
                market, record_trace=True, monotone_guard=monotone_guard
            )
        finally:
            soa.BATCHED_ALGORITHMS = batched
        prints[mode] = _fingerprint(market, result)
    return prints


def _assert_identical(prints, context: str) -> None:
    assert prints["batched"] == prints["reference"], (
        f"{context}: batched SoA diverged from the set-based reference"
    )


class TestBatchedDifferential:
    """Seeded sweep: seeds x algorithms x guard, zero tolerance."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.value)
    @pytest.mark.parametrize("monotone_guard", [True, False])
    def test_identical_stage1_across_paths(self, algorithm, monotone_guard):
        for seed, num_buyers, num_channels in (
            (700, 60, 6),
            (11, 90, 5),
            (42, 120, 8),
        ):
            market = paper_simulation_market(
                num_buyers,
                num_channels,
                np.random.default_rng([seed, num_buyers]),
                mwis_algorithm=algorithm,
            )
            prints = _all_modes(market, monotone_guard)
            _assert_identical(
                prints,
                f"seed={seed} N={num_buyers} M={num_channels} "
                f"alg={algorithm.value} guard={monotone_guard}",
            )


class TestSparsePoolLayout:
    """Force the slot-recycling sparse ``SellerPoolCache`` on small N.

    The scalability tier (N > ``DENSE_POOL_THRESHOLD``) is the only
    organic user of the sparse layout, far too big for the tier-1 suite;
    dropping the threshold to zero runs the identical differential sweep
    through the sparse update/solve code instead.
    """

    @pytest.mark.parametrize(
        "algorithm",
        (MwisAlgorithm.GWMIN, MwisAlgorithm.GWMIN2),
        ids=lambda a: a.value,
    )
    @pytest.mark.parametrize("monotone_guard", [True, False])
    def test_sparse_layout_identical(
        self, monkeypatch, algorithm, monotone_guard
    ):
        monkeypatch.setattr(soa, "DENSE_POOL_THRESHOLD", 0)
        for seed in (700, 11, 42):
            market = paper_simulation_market(
                80, 6, np.random.default_rng([seed, 80]),
                mwis_algorithm=algorithm,
            )
            cache = soa.SellerPoolCache(
                market.graph(0), market.channel_prices(0)
            )
            assert not cache.dense
            prints = _all_modes(market, monotone_guard)
            _assert_identical(
                prints,
                f"sparse seed={seed} alg={algorithm.value} "
                f"guard={monotone_guard}",
            )


if HAVE_HYPOTHESIS:

    class TestDifferentialHypothesis:
        """Random geometric markets, exploring sizes/seeds the sweep
        above does not pin down."""

        @settings(max_examples=40, deadline=None)
        @given(
            num_buyers=st.integers(min_value=1, max_value=32),
            num_channels=st.integers(min_value=1, max_value=4),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            algorithm=st.sampled_from(
                [MwisAlgorithm.GWMIN, MwisAlgorithm.GWMIN2]
            ),
            monotone_guard=st.booleans(),
        )
        def test_identical_on_random_markets(
            self, num_buyers, num_channels, seed, algorithm, monotone_guard
        ):
            market = paper_simulation_market(
                num_buyers,
                num_channels,
                np.random.default_rng([seed, num_buyers]),
                mwis_algorithm=algorithm,
            )
            prints = _all_modes(market, monotone_guard)
            _assert_identical(
                prints,
                f"hypothesis N={num_buyers} M={num_channels} seed={seed} "
                f"alg={algorithm.value} guard={monotone_guard}",
            )
