"""E3-E6 — Fig. 3: cost sweep (a, b) and population sweep (c, d).

Each bench regenerates the full series of one figure pair and asserts the
paper's qualitative shape:

- 3(a): MSP price rises with cost (anchors ~25 at C=5, ~34 at C=9); MSP
  utility falls; DRL tracks the equilibrium and beats random/greedy means.
- 3(b): total VMU utility and total purchased bandwidth fall with cost
  (anchors ~27.9 at C=6, ~23.4 at C=8 in market units).
- 3(c): MSP utility rises with N (7.03 at N=2 -> 20.35 at N=6); price flat
  while capacity is slack, then rising.
- 3(d): average bandwidth flat then falling; average VMU utility falls
  with competition.
"""

import pytest

from repro.experiments import ExperimentConfig, run_experiment

pytestmark = pytest.mark.slow

QUICK = ExperimentConfig.quick()

# The two panels of each figure share one sweep (same training runs); the
# first bench to need a sweep pays for it inside its timer, the second
# reuses the cached result.
_CACHE: dict[str, object] = {}


def cost_sweep():
    if "cost" not in _CACHE:
        _CACHE["cost"] = run_experiment("fig3_cost", {"config": QUICK})
    return _CACHE["cost"]


def vmu_sweep():
    if "vmus" not in _CACHE:
        _CACHE["vmus"] = run_experiment("fig3_vmus", {"config": QUICK})
    return _CACHE["vmus"]


def test_fig3a_msp_vs_cost(benchmark, record_table):
    result = benchmark.pedantic(cost_sweep, rounds=1, iterations=1)
    record_table("fig3a", result.msp_table())

    eq_price = result.series("equilibrium", "mean_price")
    eq_utility = result.series("equilibrium", "mean_msp_utility")
    drl_utility = result.series("drl", "mean_msp_utility")
    random_utility = result.series("random", "mean_msp_utility")
    greedy_utility = result.series("greedy", "mean_msp_utility")

    # Paper anchors.
    assert eq_price[0] == pytest.approx(25.0, abs=0.5)
    assert eq_price[-1] == pytest.approx(34.0, abs=0.1)
    # Price strictly increasing, utility strictly decreasing in cost.
    assert all(a < b for a, b in zip(eq_price, eq_price[1:]))
    assert all(a > b for a, b in zip(eq_utility, eq_utility[1:]))
    # Scheme ordering at every cost: DRL within 5% of equilibrium and
    # above the random baseline; greedy sits between.
    for drl, eq, rnd, greedy in zip(
        drl_utility, eq_utility, random_utility, greedy_utility
    ):
        assert drl > rnd
        assert drl >= 0.95 * eq
        assert greedy > rnd


def test_fig3b_vmu_vs_cost(benchmark, record_table):
    result = benchmark.pedantic(cost_sweep, rounds=1, iterations=1)
    record_table("fig3b", result.vmu_table())

    bandwidth = result.series("equilibrium", "mean_total_bandwidth_market")
    vmu_utility = result.series("equilibrium", "mean_total_vmu_utility")

    # Paper anchors (market units): ~27.9 at C=6, ~23.4 at C=8.
    assert bandwidth[1] == pytest.approx(27.9, abs=0.5)
    assert bandwidth[3] == pytest.approx(23.4, abs=0.2)
    # Monotone declines with cost.
    assert all(a > b for a, b in zip(bandwidth, bandwidth[1:]))
    assert all(a > b for a, b in zip(vmu_utility, vmu_utility[1:]))


def test_fig3c_msp_vs_n(benchmark, record_table):
    result = benchmark.pedantic(vmu_sweep, rounds=1, iterations=1)
    record_table("fig3c", result.msp_table())

    eq_utility = result.series("equilibrium", "mean_msp_utility")
    eq_price = result.series("equilibrium", "mean_price")
    drl_utility = result.series("drl", "mean_msp_utility")

    # Paper anchors: 7.03 at N=2, 20.35 at N=6.
    assert eq_utility[1] == pytest.approx(7.03, abs=0.02)
    assert eq_utility[5] == pytest.approx(20.35, abs=0.1)
    # Utility strictly increasing with N.
    assert all(a < b for a, b in zip(eq_utility, eq_utility[1:]))
    # Price flat while capacity slack (N <= 3), then rising.
    assert eq_price[0] == pytest.approx(eq_price[2], rel=1e-6)
    assert eq_price[5] > eq_price[3] > eq_price[2]
    # DRL tracks the equilibrium across the sweep.
    for drl, eq in zip(drl_utility, eq_utility):
        assert drl >= 0.93 * eq


def test_fig3d_vmu_vs_n(benchmark, record_table):
    result = benchmark.pedantic(vmu_sweep, rounds=1, iterations=1)
    record_table("fig3d", result.vmu_table())

    avg_bandwidth = [
        total / count
        for total, count in zip(
            result.series("equilibrium", "mean_total_bandwidth_market"),
            result.counts,
        )
    ]
    avg_utility = [
        total / count
        for total, count in zip(
            result.series("equilibrium", "mean_total_vmu_utility"),
            result.counts,
        )
    ]
    # Average bandwidth flat then falling (capacity competition).
    assert avg_bandwidth[0] == pytest.approx(avg_bandwidth[2], rel=1e-6)
    assert avg_bandwidth[5] < avg_bandwidth[4] < avg_bandwidth[3]
    # Average VMU utility decreases from N=2 to N=6 (paper: -12.8%).
    assert avg_utility[5] < avg_utility[1]
