"""repro.service: the live pricing service; and overlapping sweeps reusing
solved cells through the scheduler's content-keyed result cache."""

import numpy as np
import pytest
from test_core_equilibria_stacked import infeasible_market, random_markets

from repro.core import MarketStack, MutableMarketStack
from repro.entities.vmu import VmuProfile
from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.queue import QueueScheduler
from repro.service import (
    FadingDrift,
    LivePricingService,
    PriceQuote,
    Query,
    ServiceStats,
    UpdateMarket,
    VmuJoin,
    VmuLeave,
    latency_percentile,
)


class TestLatencyPercentile:
    def test_nearest_rank(self):
        sample = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert latency_percentile(sample, 50.0) == 3.0
        assert latency_percentile(sample, 99.0) == 5.0
        assert latency_percentile(sample, 0.0) == 1.0
        assert latency_percentile(sample, 100.0) == 5.0

    def test_empty_sample(self):
        assert latency_percentile([], 99.0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            latency_percentile([1.0], 101.0)


class TestLivePricingService:
    def test_query_matches_cold_solve(self):
        markets = random_markets(8, root_seed=3)
        service = LivePricingService(markets)
        cold = MarketStack(markets).equilibria_stacked()
        quote = service.query(5)
        assert quote.feasible
        assert quote.price == cold.prices[5]
        assert quote.msp_utility == cold.msp_utilities[5]

    def test_serve_interleaved_updates_and_queries(self):
        markets = random_markets(6, root_seed=9)
        service = LivePricingService(markets)
        events = [
            Query(0),
            FadingDrift(2, 0.5),
            Query(2),
            VmuJoin(1, VmuProfile("new", data_size_mb=150.0, immersion_coef=4.0)),
            Query(1),
            Query(2),
        ]
        quotes = service.serve(events)
        assert [q.market_index for q in quotes] == [0, 2, 1, 2]
        cold = MarketStack(list(service.stack.markets)).equilibria_stacked()
        assert quotes[-1].price == cold.prices[2]
        stats = service.stats()
        assert stats.queries == 4
        assert stats.updates == 2
        # 1 cold solve + 1 per dirty window = 3; never 1 solve per query.
        assert stats.solves == 3
        assert stats.rows_resolved == 6 + 1 + 1

    def test_micro_window_batches_queries_onto_one_solve(self):
        service = LivePricingService(random_markets(5, root_seed=13))
        service.serve([Query(i % 5) for i in range(20)])
        assert service.stack.solve_count == 1

    def test_infeasible_market_quotes_nan_without_raising(self):
        markets = random_markets(3, root_seed=7)
        markets[1] = infeasible_market()
        service = LivePricingService(markets)
        quote = service.query(1)
        assert not quote.feasible
        assert np.isnan(quote.price) and np.isnan(quote.msp_utility)
        assert not quote.capacity_binding and not quote.price_cap_binding

    def test_leave_event(self):
        markets = random_markets(4, root_seed=15)
        victim = markets[2].vmus[0].vmu_id
        service = LivePricingService(markets)
        service.query(2)
        service.apply(VmuLeave(2, victim))
        assert len(service.stack.market(2).vmus) == len(markets[2].vmus) - 1
        cold = MarketStack(list(service.stack.markets)).equilibria_stacked()
        assert service.query(2).price == cold.prices[2]

    def test_update_market_event(self):
        service = LivePricingService(random_markets(4, root_seed=19))
        replacement = random_markets(1, root_seed=77)[0]
        service.apply(UpdateMarket(0, replacement))
        assert service.stack.market(0) is replacement

    def test_unknown_event_rejected(self):
        service = LivePricingService(random_markets(2, root_seed=1))
        with pytest.raises(ConfigurationError, match="unknown service event"):
            service.apply(object())

    def test_stats(self):
        service = LivePricingService(random_markets(3, root_seed=21))
        service.serve([Query(0), FadingDrift(1, 0.9), Query(1)])
        stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.queries == 2 and stats.updates == 1
        assert stats.p99_ms >= stats.p50_ms >= 0.0
        assert stats.qps > 0.0

    def test_accepts_existing_mutable_stack(self):
        mutable = MutableMarketStack(random_markets(3, root_seed=23))
        service = LivePricingService(mutable)
        assert service.stack is mutable
        assert service.num_markets == 3

    def test_serves_a_copy_of_an_immutable_stack(self):
        """An immutable ``MarketStack`` is an iterable of its markets: the
        service stacks them afresh and leaves the given stack alone."""
        markets = random_markets(3, root_seed=27)
        stack = MarketStack(markets)
        service = LivePricingService(stack)
        assert isinstance(service.stack, MutableMarketStack)
        assert service.stack.markets == tuple(markets)
        service.apply(FadingDrift(1, 0.4))
        assert service.stack.market(1) is not markets[1]
        assert stack.market(1) is markets[1]
        cold = MarketStack(list(service.stack.markets)).equilibria_stacked()
        assert service.query(1).price == cold.prices[1]

    def test_rejects_a_non_market_by_index(self):
        markets = random_markets(2, root_seed=29)
        with pytest.raises(ConfigurationError, match="market 1 "):
            LivePricingService([markets[0], object()])

    @pytest.mark.parametrize("index", [4, -1, 1.7, True, "2"])
    def test_query_rejects_a_bad_index(self, index):
        """A query names a row in [0, M) by int; anything else raises the
        same ``ConfigurationError`` an update event would, unanswered."""
        service = LivePricingService(random_markets(4, root_seed=25))
        with pytest.raises(ConfigurationError, match="market index"):
            service.query(index)
        with pytest.raises(ConfigurationError, match="market index"):
            service.apply(FadingDrift(index, 0.9))
        assert service.stats().queries == 0

    def test_query_labels_the_row_it_answers(self):
        markets = random_markets(4, root_seed=25)
        service = LivePricingService(markets)
        cold = MarketStack(markets).equilibria_stacked()
        quote = service.query(np.int64(3))
        assert quote.market_index == 3 and type(quote.market_index) is int
        assert quote.price == cold.prices[3]


class TestCacheRoutedCallers:
    """Overlapping robustness sweeps reuse solved cells through
    ``QueueScheduler(queue_dir)``: each ``equilibrium_cell`` job is stored
    by content, so a cell any earlier sweep solved is served from disk —
    with the same bits."""

    def test_robustness_sweeps_reuse_cache_same_bits(self, tmp_path):
        base = run_experiment("distance_sweep", {"distances_m": (400.0, 800.0)})
        first = QueueScheduler(tmp_path)
        cached = run_experiment(
            "distance_sweep", {"distances_m": (400.0, 800.0)}, scheduler=first
        )
        overlap = QueueScheduler(tmp_path)
        wider = run_experiment(
            "distance_sweep",
            {"distances_m": (400.0, 800.0, 1600.0)},
            scheduler=overlap,
        )
        assert cached == base
        assert first.jobs_executed == 2
        assert (overlap.cache_hits, overlap.jobs_executed) == (2, 1)
        assert wider.prices[:2] == base.prices
        assert wider.msp_utilities[:2] == base.msp_utilities

    def test_fading_sweep_reuse_cache_same_bits(self, tmp_path):
        base = run_experiment("fading_sweep", {"draws": 3})
        run_experiment(
            "fading_sweep", {"draws": 3}, scheduler=QueueScheduler(tmp_path)
        )
        rerun = QueueScheduler(tmp_path)
        assert run_experiment("fading_sweep", {"draws": 3}, scheduler=rerun) == base
        assert (rerun.cache_hits, rerun.jobs_executed) == (3, 0)
