"""Multi-seed spec tests: aggregation, payloads, and shard fan-out."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.multiseed import (
    MultiSeedResult,
    _merge_shards,
    _partition_seeds,
)
from repro.queue import QueueScheduler
from repro.utils.serialization import load_json, save_json


def multiseed(seeds, schemes=("random", "equilibrium"), scheduler=None, **params):
    """The ``multiseed`` spec on the paper market at the smoke budget."""
    return run_experiment(
        "multiseed",
        {
            "config": ExperimentConfig.smoke(),
            "seeds": seeds,
            "schemes": schemes,
            **params,
        },
        scheduler=scheduler,
    )


@pytest.fixture(scope="module")
def result():
    return multiseed((0, 1, 2))


class TestMultiSeed:
    def test_sample_counts(self, result):
        assert len(result.samples["random"]) == 3
        assert len(result.samples["equilibrium"]) == 3

    def test_equilibrium_is_seed_invariant(self, result):
        values = result.samples["equilibrium"]
        assert max(values) - min(values) < 1e-9

    def test_stats_and_table(self, result):
        stats = result.stats("random")
        assert stats.count == 3
        assert "Multi-seed" in str(result.table())

    def test_equilibrium_beats_random_significantly(self):
        comparison = multiseed((0, 1, 2, 3, 4))
        eq_mean = comparison.stats("equilibrium").mean
        rnd_mean = comparison.stats("random").mean
        assert eq_mean > rnd_mean
        assert comparison.significance("equilibrium", "random") < 0.05

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            multiseed((0,))

    def test_duplicate_seeds_rejected(self):
        """Duplicate seeds would silently double-count samples (same run
        twice) and shrink every CI — the runner must refuse them."""
        with pytest.raises(ValueError, match="duplicate seeds"):
            multiseed((0, 1, 2, 1))

    def test_result_records_seed_axis(self, result):
        assert result.seeds == (0, 1, 2)


class TestPayloadRoundTrip:
    def test_to_payload_from_payload_identity(self, result):
        assert MultiSeedResult.from_payload(result.to_payload()) == result

    def test_round_trips_through_save_load_json(self, result, tmp_path):
        path = save_json(tmp_path / "multiseed.json", result.to_payload())
        assert MultiSeedResult.from_payload(load_json(path)) == result

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ExperimentError):
            MultiSeedResult.from_payload([1, 2, 3])
        with pytest.raises(ExperimentError):
            MultiSeedResult.from_payload({"metric": "m", "seeds": []})
        with pytest.raises(ExperimentError):
            MultiSeedResult.from_payload(
                {"metric": "m", "seeds": [], "samples": "oops"}
            )
        with pytest.raises(ExperimentError):
            MultiSeedResult.from_payload(
                {"metric": "m", "seeds": 5, "samples": {}}
            )


class TestSharding:
    def test_partition_is_deterministic_round_robin(self):
        assert _partition_seeds((0, 1, 2, 3, 4), 2) == [(0, 2, 4), (1, 3)]
        assert _partition_seeds((5, 6), 8) == [(5,), (6,)]

    def test_sharded_equals_sequential_exactly(self, tmp_path):
        """Acceptance: k shard jobs — in-process or over k local queue
        executors — return samples exactly equal to (and in the same seed
        order as) the single-shard run."""
        seeds = (0, 1, 2, 3, 4)
        sequential = multiseed(seeds)
        for shards in (2, 3):
            assert multiseed(seeds, shards=shards) == sequential
            fanned = QueueScheduler(tmp_path / f"queue{shards}", workers=shards)
            assert multiseed(seeds, scheduler=fanned) == sequential
            assert fanned.jobs_executed == shards

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError):
            multiseed((0, 1), schemes=("random",), shards=0)

    def test_invalid_shards_rejected_before_seed_validation(self):
        """shards=0 must error up front — before seed validation or any
        other work."""
        with pytest.raises(ValueError, match="shards"):
            # seeds=(0,) is itself invalid — shards must win
            multiseed((0,), schemes=("random",), shards=0)


def _shard_payload(seeds, samples):
    return MultiSeedResult(
        metric="mean_msp_utility", samples=samples, seeds=tuple(seeds)
    ).to_payload()


class TestMergeValidation:
    """A crashed or short shard must fail the merge loudly — the old
    pre-fill-with-0.0 merge silently corrupted means/CIs/p-values."""

    SEEDS = (0, 1, 2, 3)
    SCHEMES = ("random", "equilibrium")

    def _full_payloads(self):
        return [
            _shard_payload(
                (0, 2), {"random": [1.0, 3.0], "equilibrium": [5.0, 7.0]}
            ),
            _shard_payload(
                (1, 3), {"random": [2.0, 4.0], "equilibrium": [6.0, 8.0]}
            ),
        ]

    def test_complete_payloads_merge_in_seed_order(self):
        merged = _merge_shards(
            "mean_msp_utility", self.SEEDS, self.SCHEMES, self._full_payloads()
        )
        assert merged.samples["random"] == [1.0, 2.0, 3.0, 4.0]
        assert merged.samples["equilibrium"] == [5.0, 6.0, 7.0, 8.0]

    def test_dropped_shard_raises_naming_missing_cells(self):
        payloads = self._full_payloads()[:1]  # shard for seeds (1, 3) died
        with pytest.raises(ExperimentError, match="seed 1") as excinfo:
            _merge_shards(
                "mean_msp_utility", self.SEEDS, self.SCHEMES, payloads
            )
        assert "seed 3" in str(excinfo.value)
        assert "missing 4 sample" in str(excinfo.value)

    def test_short_shard_payload_raises(self):
        payloads = [
            self._full_payloads()[0],
            _shard_payload(
                (1, 3), {"random": [2.0], "equilibrium": [6.0, 8.0]}
            ),  # 'random' lost its seed-3 sample
        ]
        with pytest.raises(ExperimentError, match=r"\('random', seed 3\)"):
            _merge_shards(
                "mean_msp_utility", self.SEEDS, self.SCHEMES, payloads
            )

    def test_missing_scheme_raises(self):
        payloads = [
            self._full_payloads()[0],
            _shard_payload((1, 3), {"random": [2.0, 4.0]}),
        ]
        with pytest.raises(ExperimentError, match="'equilibrium'"):
            _merge_shards(
                "mean_msp_utility", self.SEEDS, self.SCHEMES, payloads
            )

    def test_unknown_seed_raises(self):
        payloads = [
            self._full_payloads()[0],
            _shard_payload(
                (1, 9), {"random": [2.0, 4.0], "equilibrium": [6.0, 8.0]}
            ),
        ]
        with pytest.raises(ExperimentError, match="seed 9"):
            _merge_shards(
                "mean_msp_utility", self.SEEDS, self.SCHEMES, payloads
            )

    def test_duplicate_cell_raises(self):
        payloads = [*self._full_payloads(), self._full_payloads()[0]]
        with pytest.raises(ExperimentError, match="both carry"):
            _merge_shards(
                "mean_msp_utility", self.SEEDS, self.SCHEMES, payloads
            )
