"""AoTM-derived metrics on production code.

- The risk that a migration misses an AoTM deadline under fading, measured
  on the per-draw links the ``fading_sweep`` experiment builds
  (``paper_link().with_fading_gain(g)``, Eq. 1 via
  :meth:`RsuLink.transfer_time`).
- The log immersion ``α·ln(1 + 1/A)`` a VMU gets from a production market
  round (its utility plus what it paid), against the Eq. 1/2 oracle of
  ``test_core_equilibrium_oracle``.
"""

import math

import numpy as np
import pytest

from repro.channel.fading import NoFading, RayleighFading
from repro.channel.link import paper_link
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population
from repro.utils.rng import as_generator

from test_core_equilibrium_oracle import aotm, immersion

SE = paper_link().spectral_efficiency


def deadline_violation_probability(
    data_units, bandwidth, deadline, *, fading, samples, seed
):
    """Share of fading draws whose link misses ``deadline``."""
    gains = fading.sample(as_generator(seed), size=samples)
    link = paper_link()
    ages = np.array(
        [
            link.with_fading_gain(float(max(gain, 1e-6))).transfer_time(
                data_units, bandwidth
            )
            for gain in gains
        ]
    )
    return float(np.mean(ages > deadline))


class TestDeadlineViolation:
    def test_deterministic_channel_binary(self):
        # Feasible deadline -> probability 0; infeasible -> 1.
        generous = deadline_violation_probability(
            1.0, 0.5, deadline=10.0, fading=NoFading(), samples=100, seed=0
        )
        impossible = deadline_violation_probability(
            1.0, 0.001, deadline=0.001, fading=NoFading(), samples=100, seed=0
        )
        assert generous == 0.0
        assert impossible == 1.0

    def test_fading_gives_intermediate_probability(self):
        # Pick the deadline at the no-fading AoTM: roughly median outcome.
        bandwidth = 0.5
        nominal = 1.0 / (bandwidth * SE)
        p = deadline_violation_probability(
            1.0,
            bandwidth,
            deadline=nominal,
            fading=RayleighFading(),
            samples=20_000,
            seed=0,
        )
        assert 0.05 < p < 0.95

    def test_more_bandwidth_lowers_risk(self):
        kwargs = dict(
            deadline=0.06, fading=RayleighFading(), samples=20_000, seed=0
        )
        risky = deadline_violation_probability(1.0, 0.4, **kwargs)
        safe = deadline_violation_probability(1.0, 1.2, **kwargs)
        assert safe < risky

    def test_deterministic_given_seed(self):
        kwargs = dict(deadline=0.05, fading=RayleighFading(), samples=500)
        assert deadline_violation_probability(
            1.0, 0.5, seed=7, **kwargs
        ) == deadline_violation_probability(1.0, 0.5, seed=7, **kwargs)


def round_immersion(market, price):
    """Each VMU's immersion in a production round: utility plus payment."""
    outcome = market.round_outcome(price)
    return outcome.vmu_utilities + price * outcome.allocations, outcome


class TestImmersionModels:
    MARKET = StackelbergMarket(paper_fig2_population())

    def test_log_matches_core_function(self):
        for price in (6.0, 12.0, 40.0):
            gains, outcome = round_immersion(self.MARKET, price)
            expected = [
                immersion(alpha, aotm(data, bandwidth, SE))
                for alpha, data, bandwidth in zip(
                    self.MARKET.immersion_coefs,
                    self.MARKET.data_units,
                    outcome.allocations,
                )
            ]
            assert list(gains) == pytest.approx(expected, rel=1e-12)

    def test_zero_bandwidth_zero_immersion(self):
        # Above its drop-out threshold α·SE/D the 200 MB twin buys nothing.
        price = 150.0
        assert self.MARKET.dropout_thresholds()[0] < price
        gains, outcome = round_immersion(self.MARKET, price)
        assert outcome.allocations[0] == 0.0
        assert gains[0] == 0.0
        assert immersion(5.0, aotm(2.0, 0.0, SE)) == 0.0
        assert outcome.allocations[1] > 0.0 and gains[1] > 0.0

    def test_both_monotone_decreasing_in_aotm(self):
        # Off the capacity bound, a higher price buys less bandwidth, so the
        # twin is staler and every VMU's immersion falls.
        rounds = [round_immersion(self.MARKET, p) for p in (24.0, 48.0, 90.0)]
        assert not any(o.capacity_binding for _, o in rounds)
        for vmu in range(2):
            ages = [
                aotm(self.MARKET.data_units[vmu], o.allocations[vmu], SE)
                for _, o in rounds
            ]
            values = [gains[vmu] for gains, _ in rounds]
            assert ages[0] < ages[1] < ages[2] < math.inf
            assert values[0] > values[1] > values[2]
