"""The equilibrium solve's two forms.

The numpy form of ``MarketStack._solve_rows`` cuts each row of Theorem 2's
candidate layout (``MarketStack._candidate_rows``) to its distinct prices
(``marketstack._distinct_candidates``), evaluates that grid once through
``MarketStack._outcomes_trusted`` and reads every field at the first
argmax of the leader utility. It is pinned **bitwise** on every field
against an in-test oracle that skips the cut: the full layout through
the validating ``outcomes_stacked``, first argmax, outcome at the winner.

- ragged stacks with ``N_max`` 7 and 11, on both sides of numpy's width-8
  pairwise-summation boundary;
- non-enforcing, capacity-binding and infeasible rows;
- the whole stack, and row ranges of 5 and the same rows gathered in
  reverse, as the chunked solve and the live re-solve stream them, each
  in exactly one evaluation;
- each cut row holds the full row's distinct prices in first-occurrence
  order, then padding only.

The row-by-row form ``MarketStack._solve_rows_scalar``, which small
chunks take, is pinned the same way against the numpy form on every
field ``_solve_rows`` returns: a seeded fuzz over every row count from 1 to past the row
gate and every width from 1 to 7, with degenerate rows (``p_max == C``,
every VMU priced out, capacity enforcement off, a tiny capacity that
always binds), in stacks exactly that wide and in a wider padded stack.
The solve's routing between the two forms is pinned on both sides of the
row and width gates.
"""

import numpy as np
import pytest

from repro.core import MarketStack, MutableMarketStack, marketstack
from repro.core.marketstack import _SCALAR_SOLVE_MAX_ROWS
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import sample_population

from test_core_equilibria_stacked import infeasible_market, random_markets


def kernel_stack(n_max, seed):
    """A ragged stack of width exactly ``n_max`` with every row kind."""
    markets = random_markets(10, root_seed=seed, max_vmus=n_max)
    # Full width, tiny capacity: Σ demand exceeds B_max at low prices.
    markets.append(
        StackelbergMarket(
            sample_population(n_max, seed=seed),
            config=MarketConfig(max_bandwidth=2.0, enforce_capacity=True),
        )
    )
    # One VMU, capacity ignored: the ragged short row.
    markets.append(
        StackelbergMarket(
            sample_population(1, seed=seed + 1),
            config=MarketConfig(max_bandwidth=2.0, enforce_capacity=False),
        )
    )
    markets.insert(4, infeasible_market())
    stack = MarketStack(markets)
    assert stack.max_vmus == n_max
    assert len(set(stack.counts.tolist())) > 1  # ragged
    return stack


def candidate_oracle(stack):
    """The solve without compaction, for the whole stack: every slot of
    ``_candidate_rows``' full layout through the validating
    ``outcomes_stacked``, the first argmax, and each field at the winner."""
    candidates, feasible = stack._candidate_rows(slice(None))
    outcome = stack.outcomes_stacked(candidates)
    winner = (
        np.arange(stack.num_markets),
        np.argmax(outcome.msp_utilities, axis=1),
    )
    prices = candidates[winner]
    rows = feasible[:, None]
    return {
        "prices": np.where(feasible, prices, np.nan),
        "demands": np.where(rows, outcome.allocations[winner], np.nan),
        "msp_utilities": np.where(
            feasible, outcome.msp_utilities[winner], np.nan
        ),
        "vmu_utilities": np.where(rows, outcome.vmu_utilities[winner], np.nan),
        "capacity_binding": outcome.capacity_binding[winner] & feasible,
        "price_cap_binding": (np.abs(prices - stack.max_prices) < 1e-9)
        & feasible,
        "feasible": feasible,
    }


@pytest.mark.parametrize("n_max", [7, 11])
def test_compacted_rows_hold_each_distinct_candidate_once(n_max):
    stack = kernel_stack(n_max, seed=100 + n_max)
    candidates, _ = stack._candidate_rows(slice(None))
    grid = marketstack._distinct_candidates(candidates)
    assert grid.shape[1] < candidates.shape[1]
    for full, compact in zip(candidates.tolist(), grid.tolist()):
        distinct = list(dict.fromkeys(full))
        assert compact[: len(distinct)] == distinct
        assert set(compact[len(distinct) :]) <= {full[0]}  # padding


@pytest.fixture
def trusted_calls(monkeypatch):
    """Counts the solve's evaluations through ``_outcomes_trusted``."""
    calls = []
    original = MarketStack._outcomes_trusted

    def counted(self, p, sl=slice(None)):
        calls.append(p.shape)
        return original(self, p, sl)

    monkeypatch.setattr(MarketStack, "_outcomes_trusted", counted)
    return calls


def assert_solved_like_oracle(stack, oracle, chunks, monkeypatch, calls):
    """Each chunk solved by the numpy form in one evaluation, every field
    bitwise the oracle's rows."""
    calls.clear()
    for chunk in chunks:
        solved = solve_rows(stack, chunk, 0, monkeypatch)
        assert solved.keys() == oracle.keys()
        for key, values in solved.items():
            expected = oracle[key][chunk]
            assert values.dtype == expected.dtype, key
            assert values.tobytes() == expected.tobytes(), (key, chunk)
    assert len(calls) == len(chunks)


@pytest.mark.parametrize("n_max", [7, 11])
def test_numpy_form_matches_the_candidate_oracle_bitwise(
    n_max, monkeypatch, trusted_calls
):
    """The whole stack in one evaluation."""
    stack = kernel_stack(n_max, seed=200 + n_max)
    oracle = candidate_oracle(stack)
    # The stack really covers every row kind.
    enforce = np.array([m.config.enforce_capacity for m in stack.markets])
    assert oracle["capacity_binding"].any() and (~enforce).any()
    assert not oracle["feasible"][4]
    assert_solved_like_oracle(
        stack, oracle, [slice(None)], monkeypatch, trusted_calls
    )


@pytest.mark.parametrize("n_max", [7, 11])
def test_streamed_row_slices_match_the_full_stack(
    n_max, monkeypatch, trusted_calls
):
    """Row ranges of 5 solved one after another, and the same rows
    gathered in reverse, give the full-stack bits in one evaluation per
    chunk."""
    stack = kernel_stack(n_max, seed=300 + n_max)
    oracle = candidate_oracle(stack)
    rows = np.arange(stack.num_markets)
    chunks = []
    for start in range(0, stack.num_markets, 5):
        sl = slice(start, min(start + 5, stack.num_markets))
        chunks += [sl, rows[::-1][sl]]
    assert_solved_like_oracle(stack, oracle, chunks, monkeypatch, trusted_calls)


FUZZ_KINDS = ("plain", "flat", "priced_out", "unenforced", "tiny_capacity")


def fuzz_market(rng, n, kind):
    """One market of ``n`` VMUs; ``kind`` picks its degenerate feature."""
    population = sample_population(n, seed=int(rng.integers(0, 2**31)))
    cost = float(rng.uniform(3.0, 9.0))
    config = {
        "plain": MarketConfig(
            unit_cost=cost,
            max_price=float(rng.uniform(30.0, 60.0)),
            max_bandwidth=float(rng.uniform(20.0, 60.0)),
        ),
        # p_max == C: every candidate is the one price C.
        "flat": MarketConfig(unit_cost=cost, max_price=cost),
        # Every threshold at or below C: a masked infeasible row.
        "priced_out": MarketConfig(unit_cost=1e4, max_price=2e4),
        "unenforced": MarketConfig(
            unit_cost=cost,
            max_bandwidth=float(rng.uniform(1.0, 5.0)),
            enforce_capacity=False,
        ),
        "tiny_capacity": MarketConfig(unit_cost=cost, max_bandwidth=1e-3),
    }[kind]
    return StackelbergMarket(population, config=config)


def fuzz_pool(width, seed):
    """More rows than the gate admits, every kind, at most ``width`` VMUs
    (one row exactly that wide)."""
    rng = np.random.default_rng(seed)
    count = _SCALAR_SOLVE_MAX_ROWS + 2 + len(FUZZ_KINDS)
    kinds = list(FUZZ_KINDS) + [
        FUZZ_KINDS[int(k)] for k in rng.integers(0, len(FUZZ_KINDS), count)
    ]
    sizes = [width] + [int(n) for n in rng.integers(1, width + 1, count - 1)]
    return [fuzz_market(rng, n, kind) for n, kind in zip(sizes, kinds[:count])]


def solve_rows(stack, rows, gate, monkeypatch):
    """``_solve_rows`` under the row gate ``gate``: 0 forces the numpy
    form, a gate past ``len(rows)`` the row form."""
    with monkeypatch.context() as patch:
        patch.setattr(marketstack, "_SCALAR_SOLVE_MAX_ROWS", gate)
        return stack._solve_rows(rows)


@pytest.mark.parametrize("padded", [False, True], ids=["exact", "padded"])
@pytest.mark.parametrize("width", range(1, 8))
def test_row_form_equals_numpy_form_on_every_field(width, padded, monkeypatch):
    markets = fuzz_pool(width, seed=width)
    kinds = set()
    if padded:
        # A wider member pads the stack past 8: the rows below keep their
        # own populations, reduced per population size.
        markets.append(StackelbergMarket(sample_population(9, seed=width)))
    stack = MarketStack(markets)
    rng = np.random.default_rng(100 + width)
    for rows in range(1, _SCALAR_SOLVE_MAX_ROWS + 3):
        # Scattered rows, gathered by index as the live re-solve does.
        idx = np.sort(rng.choice(len(markets) - padded, rows, replace=False))
        scalar = solve_rows(stack, idx, rows, monkeypatch)
        numpy_form = solve_rows(stack, idx, 0, monkeypatch)
        for key, values in numpy_form.items():
            assert scalar[key].dtype == values.dtype, key
            assert scalar[key].tobytes() == values.tobytes(), (rows, key)
        kinds.update(
            ("infeasible" if not ok else "binding" if bound else "slack")
            for ok, bound in zip(
                numpy_form["feasible"], numpy_form["capacity_binding"]
            )
        )
    assert kinds == {"infeasible", "binding", "slack"}


@pytest.fixture
def scalar_calls(monkeypatch):
    """Counts the rows of each chunk the solve hands the row-by-row form."""
    calls = []
    original = MarketStack._solve_rows_scalar

    def counted(self, sl):
        calls.append(len(self._counts[sl]))
        return original(self, sl)

    monkeypatch.setattr(MarketStack, "_solve_rows_scalar", counted)
    return calls


def test_row_gate_routes_small_chunks_to_the_row_form(scalar_calls):
    rows = _SCALAR_SOLVE_MAX_ROWS + 1
    stack = MarketStack(random_markets(rows, root_seed=37, max_vmus=7))
    chunked = stack.equilibria_stacked_chunked(
        chunk_size=_SCALAR_SOLVE_MAX_ROWS
    )
    assert scalar_calls == [_SCALAR_SOLVE_MAX_ROWS, 1]
    cold = MarketStack(stack.markets).equilibria_stacked()
    assert scalar_calls == [_SCALAR_SOLVE_MAX_ROWS, 1]
    for name in ("prices", "demands", "msp_utilities", "vmu_utilities"):
        assert np.array_equal(
            getattr(chunked, name), getattr(cold, name), equal_nan=True
        )


def test_width_gate_is_the_solved_rows_widest_population(scalar_calls):
    """The row form sums sequentially, which is bitwise only below width
    8: rows of < 8 VMUs take it even in a wider live stack, as they would
    in a cold solve of just those rows, and a row of 8 or more does not."""
    markets = random_markets(6, root_seed=41, max_vmus=5)
    markets[0] = StackelbergMarket(sample_population(9, seed=3))
    mutable = MutableMarketStack(markets)
    mutable.equilibria_live()
    assert scalar_calls == []
    mutable.set_fading_gain(2, 0.5)
    mutable.set_fading_gain(4, 0.7)
    mutable.equilibria_live()
    assert scalar_calls == [2]
    mutable.set_fading_gain(0, 0.5)
    live = mutable.equilibria_live()
    assert scalar_calls == [2]
    cold = MarketStack(list(mutable.markets)).equilibria_stacked()
    for name in ("prices", "demands", "msp_utilities", "vmu_utilities"):
        assert np.array_equal(
            getattr(live, name), getattr(cold, name), equal_nan=True
        )
