"""MutableMarketStack: incremental dirty-row re-solve invariants.

Acceptance for the live pricing layer: after *any* sequence of point
updates, ``equilibria_live()`` — which re-solves only the dirty rows and
splices them into the cached stack — is bitwise-equal to a cold
``equilibria_stacked()`` over the current markets at every dirty fraction
(one row, ~10 %, all rows). Plus the
scalar-accessor cache contract under splicing: clean rows keep their
cached scalar objects (identity), a dirty row's entry is dropped, and
infeasible↔feasible transitions round-trip. The stack is column-native:
a churn window builds no market or stack object, the padded width tracks
the widest population both ways, and a rejected mutation changes nothing.
The reads a written stack inherits from ``MarketStack`` (``outcomes_stacked``,
and the solve of a stack built from columns) match a cold stack too.
"""

import dataclasses

import numpy as np
import pytest
from test_core_equilibria_stacked import infeasible_market, random_markets

from repro.core import MarketStack, MutableMarketStack
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import (
    VmuProfile,
    paper_fig2_population,
    sample_population,
)
from repro.errors import ConfigurationError, InfeasibleMarketError
from repro.mobility.citygrid import CityGridSpec, city_columns

ARRAY_FIELDS = (
    "prices",
    "demands",
    "msp_utilities",
    "vmu_utilities",
    "capacity_binding",
    "price_cap_binding",
    "feasible",
    "mask",
    "counts",
    "unit_costs",
)


def assert_bitwise_equal(live, cold):
    for name in ARRAY_FIELDS:
        a, b = getattr(live, name), getattr(cold, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), name


def dirty_rows(stack):
    """The rows written since the stack's last solve (sorted)."""
    return tuple(sorted(stack._dirty))


def apply_random_update(mutable, rng, index):
    """One random point update on market ``index`` (join/leave/fading/replace)."""
    market = mutable.market(index)
    move = int(rng.integers(4))
    if move == 0:  # join
        vmu = VmuProfile(
            vmu_id=f"joined-{int(rng.integers(1 << 30))}",
            data_size_mb=float(rng.uniform(50.0, 500.0)),
            immersion_coef=float(rng.uniform(1.0, 10.0)),
        )
        mutable.join(index, vmu)
    elif move == 1 and len(market.vmus) > 1:  # leave
        victim = market.vmus[int(rng.integers(len(market.vmus)))]
        mutable.leave(index, victim.vmu_id)
    elif move == 2:  # fading drift
        mutable.set_fading_gain(index, float(rng.uniform(0.05, 3.0)))
    else:  # wholesale replacement (new cost/cap too)
        replacement = random_markets(
            1, root_seed=int(rng.integers(1 << 30)), max_vmus=9
        )[0]
        mutable.update_market(index, replacement)


class TestIncrementalBitwise:
    """The tentpole property: live == cold, bitwise, after every update."""

    @pytest.mark.parametrize(
        "dirty_fraction", ["one", "tenth", "all"], ids=["1row", "10pct", "all"]
    )
    def test_random_update_sequences(self, dirty_fraction):
        rng = np.random.default_rng([61, len(dirty_fraction)])
        mutable = MutableMarketStack(random_markets(50, root_seed=7))
        num = mutable.num_markets
        per_step = {"one": 1, "tenth": max(1, num // 10), "all": num}[
            dirty_fraction
        ]
        for _ in range(4):
            targets = rng.choice(num, size=per_step, replace=False)
            for index in targets:
                apply_random_update(mutable, rng, int(index))
            assert set(dirty_rows(mutable)) == {int(t) for t in targets}
            live = mutable.equilibria_live()
            cold = MarketStack(list(mutable.markets)).equilibria_stacked()
            assert_bitwise_equal(live, cold)
            assert not dirty_rows(mutable)

    def test_ragged_width_changes_stay_bitwise(self):
        """Joins/leaves that change N_max (wider and narrower) re-pad
        correctly, including NaN tails of infeasible rows."""
        markets = random_markets(6, root_seed=13, max_vmus=3)
        markets[2] = infeasible_market()  # N=1, all-NaN row
        mutable = MutableMarketStack(markets)
        mutable.equilibria_live()
        # Widen N_max: grow market 4 well past the current max.
        for j in range(6):
            mutable.join(
                4, VmuProfile(f"w{j}", data_size_mb=120.0, immersion_coef=4.0)
            )
        live = mutable.equilibria_live()
        assert_bitwise_equal(
            live, MarketStack(list(mutable.markets)).equilibria_stacked()
        )
        # Narrow N_max back down: replace the wide market with a 1-VMU one.
        mutable.update_market(
            4,
            StackelbergMarket(
                [VmuProfile("solo", data_size_mb=150.0, immersion_coef=5.0)]
            ),
        )
        live = mutable.equilibria_live()
        assert_bitwise_equal(
            live, MarketStack(list(mutable.markets)).equilibria_stacked()
        )

    def test_infeasible_feasible_transitions(self):
        markets = random_markets(5, root_seed=3)
        mutable = MutableMarketStack(markets)
        mutable.equilibria_live()
        # feasible -> infeasible
        mutable.update_market(1, infeasible_market())
        live = mutable.equilibria_live()
        assert not live.feasible[1]
        assert np.isnan(live.prices[1])
        with pytest.raises(InfeasibleMarketError, match="no profitable trade"):
            live.equilibrium(1)
        assert_bitwise_equal(
            live, MarketStack(list(mutable.markets)).equilibria_stacked()
        )
        # infeasible -> feasible
        mutable.update_market(1, random_markets(1, root_seed=99)[0])
        live = mutable.equilibria_live()
        assert live.feasible[1]
        assert live.equilibrium(1).price == live.prices[1]
        assert_bitwise_equal(
            live, MarketStack(list(mutable.markets)).equilibria_stacked()
        )

    def test_first_solve_and_all_dirty_take_cold_path(self):
        mutable = MutableMarketStack(random_markets(8, root_seed=5))
        mutable.equilibria_live()
        assert mutable.solve_count == 1
        assert mutable.rows_resolved == 8
        for index in range(8):
            mutable.set_fading_gain(index, 0.5)
        mutable.equilibria_live()
        assert mutable.solve_count == 2
        assert mutable.rows_resolved == 16  # full cold solve again

    def test_incremental_work_is_proportional_to_dirty_rows(self):
        mutable = MutableMarketStack(random_markets(40, root_seed=11))
        mutable.equilibria_live()
        mutable.set_fading_gain(17, 0.8)
        mutable.equilibria_live()
        assert mutable.rows_resolved == 41  # 40 cold + 1 dirty

    def test_clean_repeat_solves_nothing(self):
        mutable = MutableMarketStack(random_markets(6, root_seed=29))
        first = mutable.equilibria_live()
        assert mutable.equilibria_live() is first
        assert mutable.solve_count == 1


class TestSplicedScalarCache:
    """StackedEquilibria.equilibrium() cache invariants under splicing."""

    def test_clean_rows_keep_cached_scalars_by_identity(self):
        mutable = MutableMarketStack(random_markets(8, root_seed=17))
        before = mutable.equilibria_live()
        kept = {m: before.equilibrium(m) for m in (0, 3, 6)}
        mutable.set_fading_gain(4, 0.6)
        after = mutable.equilibria_live()
        for m, scalar in kept.items():
            assert after.equilibrium(m) is scalar

    def test_dirty_row_cache_entry_is_invalidated_alone(self):
        mutable = MutableMarketStack(random_markets(8, root_seed=17))
        before = mutable.equilibria_live()
        stale_scalar = before.equilibrium(4)
        clean_scalar = before.equilibrium(5)
        mutable.set_fading_gain(4, 0.6)
        after = mutable.equilibria_live()
        fresh = after.equilibrium(4)
        assert fresh is not stale_scalar
        assert fresh.price != stale_scalar.price or not np.array_equal(
            fresh.demands, stale_scalar.demands
        )
        assert after.equilibrium(5) is clean_scalar

    def test_negative_index_shares_the_row_cache_entry(self):
        """``equilibrium(-1)`` caches under row M - 1, so re-solving that
        row drops the entry instead of carrying a stale one over."""
        mutable = MutableMarketStack(random_markets(8, root_seed=17))
        before = mutable.equilibria_live()
        assert before.equilibrium(-1) is before.equilibrium(7)
        mutable.set_fading_gain(7, 0.05)
        after = mutable.equilibria_live()
        assert after.equilibrium(-1).price == after.prices[7]
        assert after.equilibrium(-1) is after.equilibrium(7)
        assert_bitwise_equal(
            after, MarketStack(list(mutable.markets)).equilibria_stacked()
        )

    def test_scalar_accessor_rejects_bad_indices(self):
        solved = MutableMarketStack(
            random_markets(3, root_seed=17)
        ).equilibria_live()
        with pytest.raises(IndexError):
            solved.equilibrium(3)
        with pytest.raises(IndexError):
            solved.equilibrium(-4)
        with pytest.raises(TypeError):
            solved.equilibrium(1.0)

    def test_spliced_result_is_frozen_and_cached_rows_read_only(self):
        mutable = MutableMarketStack(random_markets(4, root_seed=31))
        mutable.equilibria_live()
        mutable.set_fading_gain(2, 0.4)
        live = mutable.equilibria_live()
        with pytest.raises(ValueError):
            live.prices[0] = 1.0
        with pytest.raises(ValueError):
            live.equilibrium(0).demands[0] = 0.0

    def test_old_snapshot_untouched_by_splice(self):
        """Splicing builds a new result; the previous snapshot's arrays
        and cache still describe the pre-update state."""
        mutable = MutableMarketStack(random_markets(5, root_seed=41))
        before = mutable.equilibria_live()
        old_price = float(before.prices[2])
        mutable.set_fading_gain(2, 0.3)
        after = mutable.equilibria_live()
        assert before.prices[2] == old_price
        assert after is not before


class TestMutationApi:
    def test_leave_unknown_vmu_rejected(self):
        mutable = MutableMarketStack(random_markets(3, root_seed=2))
        with pytest.raises(ConfigurationError, match="no VMU"):
            mutable.leave(0, "nobody")

    def test_leave_last_member_rejected(self):
        market = StackelbergMarket(
            [VmuProfile("only", data_size_mb=100.0, immersion_coef=5.0)]
        )
        mutable = MutableMarketStack([market])
        with pytest.raises(ConfigurationError, match="last"):
            mutable.leave(0, "only")

    def test_out_of_range_index_rejected(self):
        mutable = MutableMarketStack(random_markets(3, root_seed=2))
        with pytest.raises(ConfigurationError):
            mutable.set_fading_gain(3, 1.0)

    @pytest.mark.parametrize("index", [3, -1, 2.5, 1.0, True, "1", None])
    def test_every_mutation_rejects_a_bad_index(self, index):
        """Rows are ints in [0, M): negative, float, bool and non-numeric
        indices raise ``ConfigurationError`` and dirty nothing."""
        mutable = MutableMarketStack(random_markets(3, root_seed=2))
        market = mutable.market(1)
        vmu = VmuProfile("new", data_size_mb=90.0, immersion_coef=4.0)
        mutations = (
            lambda: mutable.update_market(index, market),
            lambda: mutable.join(index, vmu),
            lambda: mutable.leave(index, market.vmus[0].vmu_id),
            lambda: mutable.set_fading_gain(index, 0.5),
        )
        for mutate in mutations:
            with pytest.raises(ConfigurationError, match="market index"):
                mutate()
        assert dirty_rows(mutable) == ()

    def test_numpy_integer_index_accepted(self):
        mutable = MutableMarketStack(random_markets(3, root_seed=2))
        mutable.equilibria_live()
        mutable.set_fading_gain(np.int64(2), 0.5)
        assert dirty_rows(mutable) == (2,)
        assert isinstance(dirty_rows(mutable)[0], int)

    def test_update_requires_market_instance(self):
        mutable = MutableMarketStack(random_markets(3, root_seed=2))
        with pytest.raises(ConfigurationError):
            mutable.update_market(0, "not a market")

    def test_join_duplicate_vmu_id_rejected(self):
        mutable = MutableMarketStack([StackelbergMarket(paper_fig2_population())])
        twin = VmuProfile("vmu-0", data_size_mb=50.0, immersion_coef=9.0)
        with pytest.raises(ConfigurationError, match="already in market 0"):
            mutable.join(0, twin)
        # The rejected join left the row as it was, clean and leavable.
        assert mutable.market(0).num_vmus == 2
        assert dirty_rows(mutable) == ()
        mutable.leave(0, "vmu-0")
        assert [v.vmu_id for v in mutable.market(0).vmus] == ["vmu-1"]

    def test_join_requires_vmu_profile(self):
        mutable = MutableMarketStack(random_markets(3, root_seed=2))
        with pytest.raises(ConfigurationError, match="VmuProfile"):
            mutable.join(0, "not a vmu")


class TestColumnNative:
    """Mutations write the padded columns in place; no objects in between."""

    def test_churn_window_builds_no_market_or_stack(self, monkeypatch):
        markets = random_markets(12, root_seed=43, max_vmus=5)
        mutable = MutableMarketStack(markets)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        monkeypatch.setattr(StackelbergMarket, "__init__", refuse)
        monkeypatch.setattr(MarketStack, "__init__", refuse)
        mutable.equilibria_live()
        widest = int(np.argmax(mutable.counts))
        for j in range(3):  # three slots past the padded width
            mutable.join(
                widest,
                VmuProfile(f"w{j}", data_size_mb=80.0, immersion_coef=6.0),
            )
        mutable.leave(widest, "w1")
        shared = next(
            m for m in range(12) if m != widest and markets[m].num_vmus > 1
        )
        mutable.leave(shared, markets[shared].vmus[0].vmu_id)
        mutable.set_fading_gain(7, 0.35)
        live = mutable.equilibria_live()
        mutable.leave(widest, "w0")
        mutable.leave(widest, "w2")
        narrowed = mutable.equilibria_live()
        monkeypatch.undo()
        assert narrowed.demands.shape[1] == live.demands.shape[1] - 2
        assert_bitwise_equal(
            narrowed, MarketStack(list(mutable.markets)).equilibria_stacked()
        )

    def test_padded_width_is_the_widest_population(self):
        """Joins past the width widen the columns; leaving the only widest
        row narrows them — the result's width is always ``counts.max()``,
        as a cold solve's is, and old snapshots keep their own width."""
        markets = random_markets(8, root_seed=47, max_vmus=4)
        markets[5] = infeasible_market()  # nan tails when widened
        mutable = MutableMarketStack(markets)
        before = mutable.equilibria_live()
        width = before.demands.shape[1]
        row = int(np.argmin(mutable.counts))
        added = mutable.max_vmus - int(mutable.counts[row]) + 2
        for j in range(added):
            mutable.join(
                row,
                VmuProfile(f"g{j}", data_size_mb=150.0, immersion_coef=3.0),
            )
            assert mutable.max_vmus == max(width, int(mutable.counts[row]))
        wide = mutable.equilibria_live()
        assert wide.demands.shape == (8, width + 2)
        assert np.isnan(wide.demands[5, width:]).all()
        for j in range(added):
            mutable.leave(row, f"g{j}")
        assert mutable.max_vmus == width
        narrow = mutable.equilibria_live()
        assert narrow.demands.shape == before.demands.shape
        assert wide.demands.shape == (8, width + 2)  # handed out: frozen
        assert_bitwise_equal(
            narrow, MarketStack(list(mutable.markets)).equilibria_stacked()
        )
        assert_bitwise_equal(narrow, before)  # the same markets again

    def test_members_are_built_from_the_rows_not_the_columns(self):
        markets = random_markets(4, root_seed=53, max_vmus=4)
        mutable = MutableMarketStack(markets)
        assert mutable.market(1) is markets[1]
        mutable.set_fading_gain(1, 0.25)
        rebuilt = mutable.market(1)
        assert rebuilt is not markets[1]
        assert rebuilt.vmus == markets[1].vmus
        assert rebuilt.config == markets[1].config
        assert rebuilt.link == markets[1].link.with_fading_gain(0.25)
        assert mutable.market(1) is rebuilt  # cached until the next write
        assert mutable.markets[-1] is markets[3]


OUTCOME_FIELDS = (
    "prices",
    "demands",
    "allocations",
    "msp_utilities",
    "vmu_utilities",
    "capacity_binding",
    "mask",
    "counts",
)


class TestInheritedPaths:
    """The reads a written stack inherits from ``MarketStack``."""

    def test_reads_follow_the_width_through_writes(self):
        """A join that widens an unpadded stack and the leave that narrows
        it back: ``outcomes_stacked`` at ``(M,)`` and ``(M, R)`` prices,
        and the live re-solve of a padded row beside it (wide enough for
        the numpy form), stay bitwise a cold stack's — the padding flags
        follow the writes."""
        markets = [
            StackelbergMarket(
                sample_population(8, seed=seed),
                config=MarketConfig(unit_cost=4.0 + seed, max_price=50.0),
            )
            for seed in range(5)
        ]
        mutable = MutableMarketStack(markets)
        mutable.equilibria_live()
        rng = np.random.default_rng(67)

        def assert_reads_match_cold():
            cold = MarketStack(mutable.markets)
            costs = cold.unit_costs[:, np.newaxis]
            grid = costs + (50.0 - costs) * rng.uniform(size=(5, 7))
            for prices in (grid[:, 0], grid):
                got = mutable.outcomes_stacked(prices)
                expected = cold.outcomes_stacked(prices)
                for name in OUTCOME_FIELDS:
                    a, b = getattr(got, name), getattr(expected, name)
                    assert a.shape == b.shape, name
                    assert a.tobytes() == b.tobytes(), name

        def widen(row):
            mutable.join(
                row, VmuProfile("late", data_size_mb=90.0, immersion_coef=6.0)
            )
            mutable.set_fading_gain(row + 1, 0.7)
            assert mutable.max_vmus == 9

        def narrow(row):
            mutable.leave(row, "late")
            mutable.set_fading_gain(row + 1, 0.6)
            assert mutable.max_vmus == 8

        def assert_live_matches_cold():
            cold = MarketStack(mutable.markets).equilibria_stacked()
            assert_bitwise_equal(mutable.equilibria_live(), cold)

        # Each kind of read comes first after a widening write once, so
        # each must bring the padding flags up to date itself.
        assert_reads_match_cold()
        widen(0)
        assert_live_matches_cold()
        assert_reads_match_cold()
        narrow(0)
        assert_live_matches_cold()
        assert_reads_match_cold()
        widen(2)
        assert_reads_match_cold()
        assert_live_matches_cold()

    def test_column_built_stack_after_churn_is_a_cold_solve(self):
        columns = city_columns(CityGridSpec.for_markets(40, seed=5))
        mutable = MutableMarketStack.from_columns(columns)
        assert isinstance(mutable, MutableMarketStack)
        assert_bitwise_equal(
            mutable.equilibria_live(),
            MarketStack.from_columns(columns).equilibria_stacked(),
        )
        rng = np.random.default_rng(71)
        for _ in range(3):
            for index in rng.choice(40, size=6, replace=False):
                apply_random_update(mutable, rng, int(index))
            assert_bitwise_equal(
                mutable.equilibria_live(),
                MarketStack(list(mutable.markets)).equilibria_stacked(),
            )

    def test_a_first_write_that_moves_a_count_keeps_the_other_members(self):
        """The members of a column-built stack come from the columns as
        given, even when the first write, before any member is built,
        changes a row's VMU count (which places the later rows' VMUs)."""
        spec = CityGridSpec.for_markets(12, seed=13)
        mutable = MutableMarketStack.from_columns(city_columns(spec))
        reference = MarketStack.from_columns(city_columns(spec))
        n = int(mutable.counts[0]) + 1
        mutable.update_market(
            0, StackelbergMarket(sample_population(n, seed=3))
        )
        for j in range(1, 12):
            got, expected = mutable.market(j), reference.market(j)
            assert got.vmus == expected.vmus, j
            assert got.config == expected.config, j
            assert got.link == expected.link, j
        assert_bitwise_equal(
            mutable.equilibria_live(),
            MarketStack(mutable.markets).equilibria_stacked(),
        )

    def test_writes_leave_the_columns_and_sibling_stacks_alone(self):
        """Churn on a column-built stack changes neither the caller's
        columns nor an immutable stack built from the same columns."""
        spec = CityGridSpec.for_markets(12, seed=17)
        columns = city_columns(spec)
        names = [f.name for f in dataclasses.fields(columns) if f.name != "link"]
        given = {name: getattr(columns, name).copy() for name in names}
        sibling = MarketStack.from_columns(columns)
        sibling_arrays = {
            name: getattr(sibling, name) for name in _COLUMN_ACCESSORS
        }
        solved = sibling.equilibria_stacked()
        mutable = MutableMarketStack.from_columns(columns)
        replacement = StackelbergMarket(
            sample_population(3, seed=5),
            config=MarketConfig(
                unit_cost=7.0, max_price=60.0, enforce_capacity=False
            ),
        )
        for index in range(12):
            mutable.update_market(index, replacement)
            mutable.set_fading_gain(index, 0.4)
        for name in names:
            assert getattr(columns, name).tobytes() == given[name].tobytes()
        for name in _COLUMN_ACCESSORS:
            got = getattr(sibling, name).tobytes()
            assert got == sibling_arrays[name].tobytes(), name
        assert sibling.equilibria_stacked() is solved
        fresh = MarketStack.from_columns(city_columns(spec))
        assert_bitwise_equal(solved, fresh.equilibria_stacked())
        prices = given["unit_costs"] * 1.5
        got, expected = (
            stack.outcomes_stacked(prices) for stack in (sibling, fresh)
        )
        for name in OUTCOME_FIELDS:
            a, b = getattr(got, name), getattr(expected, name)
            assert a.tobytes() == b.tobytes(), name
        for j in range(12):
            assert sibling.market(j).config == fresh.market(j).config, j
            assert sibling.market(j).link == fresh.market(j).link, j


def _twin_stacks():
    """Two identical live stacks, solved, then given the same dirty rows."""
    markets = random_markets(6, root_seed=59, max_vmus=5)
    markets[2] = StackelbergMarket(
        [VmuProfile("only", data_size_mb=100.0, immersion_coef=5.0)]
    )
    stacks = []
    for _ in range(2):
        mutable = MutableMarketStack(markets)
        mutable.equilibria_live()
        mutable.join(
            4, VmuProfile("late", data_size_mb=70.0, immersion_coef=8.0)
        )
        mutable.set_fading_gain(0, 0.6)
        stacks.append(mutable)
    return markets, stacks


_COLUMN_ACCESSORS = (
    "counts",
    "mask",
    "immersion_coefs",
    "data_units",
    "spectral_efficiencies",
    "unit_costs",
    "max_prices",
    "capacities_natural",
)

_REJECTED = {
    "join-duplicate-id": lambda s, m: s.join(
        1,
        VmuProfile(m[1].vmus[0].vmu_id, data_size_mb=90.0, immersion_coef=4.0),
    ),
    "join-not-a-profile": lambda s, m: s.join(1, "vmu"),
    "leave-unknown-id": lambda s, m: s.leave(1, "nobody"),
    "leave-last-vmu": lambda s, m: s.leave(2, "only"),
    "fading-nan": lambda s, m: s.set_fading_gain(3, float("nan")),
    "fading-inf": lambda s, m: s.set_fading_gain(3, float("inf")),
    "fading-zero": lambda s, m: s.set_fading_gain(3, 0.0),
    "fading-negative": lambda s, m: s.set_fading_gain(3, -1.0),
    "fading-se-underflow": lambda s, m: s.set_fading_gain(3, 1e-320),
    "update-not-a-market": lambda s, m: s.update_market(0, "market"),
    "join-bad-index": lambda s, m: s.join(
        6, VmuProfile("x", data_size_mb=90.0, immersion_coef=4.0)
    ),
    "leave-bad-index": lambda s, m: s.leave(-1, m[1].vmus[0].vmu_id),
    "fading-bad-index": lambda s, m: s.set_fading_gain(1.0, 0.5),
    "update-bad-index": lambda s, m: s.update_market(True, m[1]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mutation", list(_REJECTED), ids=list(_REJECTED))
def test_rejected_mutation_changes_nothing(mutation):
    """A mutation that raises leaves the columns, counts, dirty rows,
    solve count and the next live solve bitwise as they were."""
    markets, (mutable, twin) = _twin_stacks()
    with pytest.raises(ConfigurationError):
        _REJECTED[mutation](mutable, markets)
    for name in _COLUMN_ACCESSORS:
        a, b = getattr(mutable, name), getattr(twin, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert dirty_rows(mutable) == dirty_rows(twin) == (0, 4)
    assert mutable.solve_count == twin.solve_count == 1
    assert_bitwise_equal(mutable.equilibria_live(), twin.equilibria_live())
    assert mutable.rows_resolved == twin.rows_resolved
