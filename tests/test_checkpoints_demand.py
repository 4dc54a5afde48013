"""Checkpointing and demand-driven capacity-sizing tests."""

import json
import math
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.channel.link import paper_link
from repro.drl.checkpoints import load_agent, save_agent
from repro.drl.policy import ActionScaler, ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig
from repro.errors import ConfigurationError
from repro.mobility.demand import capacity_for_demand, sized_capacity


class TestCheckpoints:
    def _agent(self, seed=0):
        network = ActorCritic(obs_dim=12, hidden_sizes=(16, 16), seed=seed)
        return PPOAgent(network, PPOConfig(learning_rate=1e-3)), ActionScaler(5.0, 50.0)

    def test_round_trip_preserves_policy(self, tmp_path):
        agent, scaler = self._agent(seed=3)
        path = save_agent(tmp_path / "agent.npz", agent, scaler, history_length=4)
        loaded_agent, loaded_scaler, meta = load_agent(path)
        obs = np.random.default_rng(0).normal(size=12)
        original, _, value_a = agent.act(obs, deterministic=True)
        restored, _, value_b = loaded_agent.act(obs, deterministic=True)
        np.testing.assert_allclose(original, restored)
        assert value_a == pytest.approx(value_b)
        assert loaded_scaler.low == 5.0 and loaded_scaler.high == 50.0
        assert meta["history_length"] == 4

    def test_architecture_rebuilt(self, tmp_path):
        agent, scaler = self._agent()
        path = save_agent(tmp_path / "a.npz", agent, scaler)
        loaded, _, meta = load_agent(path)
        assert meta["hidden_sizes"] == [16, 16]
        assert loaded.network.obs_dim == 12
        assert loaded.network.segments == agent.network.segments

    def test_suffix_added(self, tmp_path):
        agent, scaler = self._agent()
        path = save_agent(tmp_path / "bare", agent, scaler)
        assert path.suffix == ".npz"
        assert path.exists()

    def test_not_a_checkpoint_rejected(self, tmp_path):
        bogus = tmp_path / "junk.npz"
        np.savez(bogus, x=np.zeros(3))
        with pytest.raises(ConfigurationError, match="not a repro"):
            load_agent(bogus)

    def test_load_closes_file_so_checkpoint_is_deletable(self, tmp_path):
        """The npz handle must be closed on return — a leaked handle keeps
        the file undeletable on platforms with mandatory locking and trips
        ResourceWarning everywhere else."""
        import gc
        import warnings

        agent, scaler = self._agent()
        path = save_agent(tmp_path / "a.npz", agent, scaler)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            loaded, _, _ = load_agent(path)
            gc.collect()  # an unclosed NpzFile would warn on collection
        path.unlink()
        assert not path.exists()
        assert loaded.network.segments == agent.network.segments

    def _rewrite_checkpoint(self, path, mutate):
        """Rewrite a checkpoint's array set through ``mutate(arrays)``."""
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        mutate(arrays)
        np.savez(path, **arrays)

    def test_missing_parameter_rejected(self, tmp_path):
        agent, scaler = self._agent()
        path = save_agent(tmp_path / "a.npz", agent, scaler)

        def drop_one(arrays):
            name = next(k for k in arrays if k != "__checkpoint_meta__")
            del arrays[name]

        self._rewrite_checkpoint(path, drop_one)
        with pytest.raises(ConfigurationError, match="missing parameters"):
            load_agent(path)

    def test_unexpected_parameter_rejected(self, tmp_path):
        agent, scaler = self._agent()
        path = save_agent(tmp_path / "a.npz", agent, scaler)
        self._rewrite_checkpoint(
            path, lambda arrays: arrays.update(rogue__weight=np.zeros(3))
        )
        with pytest.raises(ConfigurationError, match="unexpected parameters"):
            load_agent(path)

    def test_mismatched_architecture_rejected(self, tmp_path):
        """Meta claiming a different width than the stored arrays must be
        a ConfigurationError, not a bare KeyError/shape blow-up."""
        import json as json_module

        agent, scaler = self._agent()
        path = save_agent(tmp_path / "a.npz", agent, scaler)

        def shrink_hidden(arrays):
            meta = json_module.loads(
                bytes(arrays["__checkpoint_meta__"]).decode("utf-8")
            )
            meta["hidden_sizes"] = [8, 8]
            arrays["__checkpoint_meta__"] = np.frombuffer(
                json_module.dumps(meta).encode("utf-8"), dtype=np.uint8
            )

        self._rewrite_checkpoint(path, shrink_hidden)
        with pytest.raises(ConfigurationError):
            load_agent(path)

    @pytest.mark.parametrize(
        "key,value",
        [("learning_rate", float("nan")), ("action_high", float("inf"))],
    )
    def test_non_finite_metadata_rejected(self, tmp_path, key, value):
        """PPOConfig and ActionScaler are rebuilt from the metadata, so a
        NaN or inf there must surface as a ConfigurationError at load."""
        import json as json_module

        agent, scaler = self._agent()
        path = save_agent(tmp_path / "a.npz", agent, scaler)

        def poison(arrays):
            meta = json_module.loads(
                bytes(arrays["__checkpoint_meta__"]).decode("utf-8")
            )
            meta[key] = value
            arrays["__checkpoint_meta__"] = np.frombuffer(
                json_module.dumps(meta).encode("utf-8"), dtype=np.uint8
            )

        self._rewrite_checkpoint(path, poison)
        with pytest.raises(ConfigurationError, match=key.split("_")[-1]):
            load_agent(path)

    def _rewrite_meta(self, path, edit):
        """Rewrite a checkpoint's metadata object through ``edit(meta)``."""

        def rewrite(arrays):
            meta = json.loads(bytes(arrays["__checkpoint_meta__"]).decode("utf-8"))
            arrays["__checkpoint_meta__"] = np.frombuffer(
                json.dumps(edit(meta)).encode("utf-8"), dtype=np.uint8
            )

        self._rewrite_checkpoint(path, rewrite)

    NON_DEFAULT_CONFIG = PPOConfig(
        learning_rate=1e-3,
        clip_epsilon=0.1,
        value_coef=1.0,
        entropy_coef=0.01,
        max_grad_norm=2.0,
        normalize_advantages=False,
    )
    LATER_FIELDS = (
        "value_coef", "entropy_coef", "max_grad_norm", "normalize_advantages"
    )

    def test_round_trip_keeps_whole_ppo_config(self, tmp_path):
        network = ActorCritic(obs_dim=12, hidden_sizes=(16, 16), seed=0)
        agent = PPOAgent(network, self.NON_DEFAULT_CONFIG)
        path = save_agent(tmp_path / "a.npz", agent, ActionScaler(5.0, 50.0))
        loaded, _, meta = load_agent(path)
        assert loaded.config == self.NON_DEFAULT_CONFIG
        assert meta["normalize_advantages"] is False

    def test_metadata_without_later_fields_loads_defaults(self, tmp_path):
        """A version-1 checkpoint written before the last four PPOConfig
        fields joined the metadata restores PPOConfig's defaults for them."""
        network = ActorCritic(obs_dim=12, hidden_sizes=(16, 16), seed=0)
        agent = PPOAgent(network, self.NON_DEFAULT_CONFIG)
        path = save_agent(tmp_path / "a.npz", agent, ActionScaler(5.0, 50.0))
        self._rewrite_meta(
            path,
            lambda meta: {
                k: v for k, v in meta.items() if k not in self.LATER_FIELDS
            },
        )
        loaded, _, _ = load_agent(path)
        assert loaded.config == PPOConfig(learning_rate=1e-3, clip_epsilon=0.1)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("value_coef", "1.0"),
            ("value_coef", True),
            ("value_coef", -1.0),
            ("entropy_coef", None),
            ("entropy_coef", float("nan")),
            ("max_grad_norm", [2.0]),
            ("max_grad_norm", 0.0),
            ("normalize_advantages", 1),
            ("normalize_advantages", "false"),
        ],
    )
    def test_bad_later_field_raises_configuration_error_naming_file(
        self, tmp_path, key, value
    ):
        agent, scaler = self._agent()
        path = save_agent(tmp_path / "bad.npz", agent, scaler)
        self._rewrite_meta(path, lambda meta: {**meta, key: value})
        with pytest.raises(ConfigurationError, match=f"bad.npz.*{key}"):
            load_agent(path)

    def test_loaded_agent_can_keep_training(self, tmp_path):
        from training_oracle import RolloutBuffer

        agent, scaler = self._agent()
        path = save_agent(tmp_path / "a.npz", agent, scaler)
        loaded, _, _ = load_agent(path)
        rng = np.random.default_rng(0)
        buffer = RolloutBuffer(gamma=0.0)
        for _ in range(8):
            obs = rng.normal(size=12)
            raw, log_prob, value = loaded.act(obs, seed=rng)
            buffer.add(obs, raw, 1.0, log_prob, value)
        buffer.finalize(0.0)
        stats = loaded.update(buffer.sample(8, seed=0))
        assert np.isfinite(stats.policy_loss)


    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_truncated_file_rejected(self, tmp_path):
        """Typed error naming the path, and no leaked file handle (a bad
        zip directory makes ``np.load`` drop its own handle unclosed)."""
        import gc
        import warnings

        agent, scaler = self._agent()
        path = save_agent(tmp_path / "a.npz", agent, scaler)
        data = path.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for cut in (len(data) // 2, len(data) - 10, 3):
                path.write_bytes(data[:cut])
                with pytest.raises(ConfigurationError, match="a.npz"):
                    load_agent(path)
            gc.collect()

    @pytest.mark.parametrize(
        "payload",
        [b"garbage, not an archive " * 8, b""],
        ids=["garbage", "empty"],
    )
    def test_garbage_file_rejected(self, tmp_path, payload):
        path = tmp_path / "junk.npz"
        path.write_bytes(payload)
        with pytest.raises(ConfigurationError, match="junk.npz"):
            load_agent(path)

    def test_bare_array_file_rejected(self, tmp_path):
        path = tmp_path / "bare.npz"
        with open(path, "wb") as handle:
            np.save(handle, np.zeros(3))
        with pytest.raises(ConfigurationError, match="bare.npz"):
            load_agent(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, tmp_path, value):
        """Poisoned weights must not load: a NaN weight makes every later
        act return NaN log-probabilities."""
        agent, scaler = self._agent()
        path = save_agent(tmp_path / "a.npz", agent, scaler)

        def poison(arrays):
            arrays["trunk__layer2__weight"] = arrays["trunk__layer2__weight"].copy()
            arrays["trunk__layer2__weight"][1, 2] = value

        self._rewrite_checkpoint(path, poison)
        with pytest.raises(ConfigurationError, match="a.npz.*trunk.layer2.weight"):
            load_agent(path)


FIXTURES = Path(__file__).resolve().parent / "data"


class TestCheckpointCompatibility:
    """``data/parent_agent.npz`` was written by ``save_agent`` when the
    network was still a Module of autograd tensors (a 6-input, (8, 8)
    network, seed 7, after three PPO updates), and
    ``data/parent_agent_outputs.npz`` holds that network's deterministic
    ``act_batch`` and ``value_batch`` on a fixed observation batch. The
    flat network must load it unchanged."""

    def test_state_dict_is_the_stored_arrays(self):
        agent, scaler, meta = load_agent(FIXTURES / "parent_agent.npz")
        with np.load(FIXTURES / "parent_agent.npz") as archive:
            stored = {
                key.replace("__", "."): archive[key]
                for key in archive.files
                if key != "__checkpoint_meta__"
            }
        state = agent.network.state_dict()
        assert sorted(state) == sorted(stored)
        for name, value in stored.items():
            assert state[name].dtype == value.dtype
            assert state[name].tobytes() == value.tobytes(), name
        assert meta["hidden_sizes"] == [8, 8]
        assert (scaler.low, scaler.high) == (5.0, 50.0)

    def test_recorded_outputs_match(self):
        agent, _, _ = load_agent(FIXTURES / "parent_agent.npz")
        with np.load(FIXTURES / "parent_agent_outputs.npz") as recorded:
            observations = recorded["observations"]
            raws, log_probs, values = agent.act_batch(
                observations, deterministic=True
            )
            np.testing.assert_allclose(raws, recorded["raws"], rtol=1e-12)
            np.testing.assert_allclose(log_probs, recorded["log_probs"], rtol=1e-12)
            np.testing.assert_allclose(values, recorded["values"], rtol=1e-12)
            np.testing.assert_allclose(
                agent.value_batch(observations), recorded["value_batch"], rtol=1e-12
            )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: {k: v for k, v in meta.items() if k != "obs_dim"},
            lambda meta: {k: v for k, v in meta.items() if k != "learning_rate"},
            lambda meta: [1, 2],
            lambda meta: {**meta, "hidden_sizes": "abc"},
            lambda meta: {**meta, "action_low": float("nan")},
            lambda meta: {**meta, "history_length": 2.5},
        ],
        ids=[
            "no_obs_dim",
            "no_learning_rate",
            "not_an_object",
            "hidden_sizes_string",
            "action_low_nan",
            "history_length_float",
        ],
    )
    def test_bad_metadata_raises_configuration_error_naming_file(
        self, tmp_path, edit
    ):
        """The fixture re-saved with edited metadata fails with a typed
        error that names the file, never a bare KeyError/AttributeError."""
        with np.load(FIXTURES / "parent_agent.npz") as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["__checkpoint_meta__"]).decode("utf-8"))
        arrays["__checkpoint_meta__"] = np.frombuffer(
            json.dumps(edit(meta)).encode("utf-8"), dtype=np.uint8
        )
        path = tmp_path / "edited.npz"
        np.savez(path, **arrays)
        with pytest.raises(ConfigurationError, match="edited.npz"):
            load_agent(path)

    def test_save_load_round_trip_is_byte_stable(self, tmp_path):
        """Re-saving the loaded fixture reproduces every parameter member
        byte for byte (the zip container itself carries timestamps), and
        its metadata is the fixture's with the PPOConfig fields the fixture
        predates appended at their defaults."""
        agent, scaler, meta = load_agent(FIXTURES / "parent_agent.npz")
        assert agent.config == PPOConfig(
            learning_rate=meta["learning_rate"],
            clip_epsilon=meta["clip_epsilon"],
        )
        path = save_agent(
            tmp_path / "again.npz",
            agent,
            scaler,
            history_length=meta["history_length"],
        )
        again, _, _ = load_agent(path)
        for name, value in agent.network.state_dict().items():
            assert again.network.state_dict()[name].tobytes() == value.tobytes()
        with zipfile.ZipFile(FIXTURES / "parent_agent.npz") as original:
            with zipfile.ZipFile(path) as resaved:
                assert sorted(original.namelist()) == sorted(resaved.namelist())
                for member in original.namelist():
                    if member == "__checkpoint_meta__.npy":
                        continue
                    assert original.read(member) == resaved.read(member), member
        defaults = PPOConfig()
        expected_meta = {
            **meta,
            "value_coef": defaults.value_coef,
            "entropy_coef": defaults.entropy_coef,
            "max_grad_norm": defaults.max_grad_norm,
            "normalize_advantages": defaults.normalize_advantages,
        }
        with np.load(path) as archive:
            assert bytes(archive["__checkpoint_meta__"]) == json.dumps(
                expected_meta
            ).encode("utf-8")


class TestCapacitySizing:
    def test_scales_with_rate(self):
        se = paper_link().spectral_efficiency
        slow = capacity_for_demand(
            0.02, mean_data_units=2.0, target_aotm=0.5, spectral_efficiency=se,
        )
        fast = capacity_for_demand(
            0.08, mean_data_units=2.0, target_aotm=0.5, spectral_efficiency=se,
        )
        assert fast == pytest.approx(4.0 * slow)

    def test_littles_law_formula(self):
        se = paper_link().spectral_efficiency
        capacity = capacity_for_demand(
            0.1, mean_data_units=2.0, target_aotm=0.5,
            spectral_efficiency=se, concurrency_margin=1.0,
        )
        expected = (0.1 * 0.5) * (2.0 / (0.5 * se))
        assert capacity == pytest.approx(expected)

    def test_margin_multiplies(self):
        se = paper_link().spectral_efficiency
        base = capacity_for_demand(
            0.1, mean_data_units=2.0, target_aotm=0.5,
            spectral_efficiency=se, concurrency_margin=1.0,
        )
        padded = capacity_for_demand(
            0.1, mean_data_units=2.0, target_aotm=0.5,
            spectral_efficiency=se, concurrency_margin=2.0,
        )
        assert padded == pytest.approx(2.0 * base)

    @pytest.mark.parametrize(
        "rate", [math.nan, math.inf, -math.inf, 0.0, -0.1],
        ids=["nan", "inf", "-inf", "zero", "negative"],
    )
    def test_rejects_degenerate_arrival_rates(self, rate):
        with pytest.raises(ConfigurationError, match="arrival_rate_hz"):
            capacity_for_demand(
                rate, mean_data_units=2.0, target_aotm=0.5,
                spectral_efficiency=paper_link().spectral_efficiency,
            )

    def test_sized_capacity_is_the_validated_formula_elementwise(self):
        se = paper_link().spectral_efficiency
        rates = np.array([0.02, 0.1, 7.5, 1234.5])
        means = np.array([1.0, 2.0, 2.5, 2.9])
        expected = [
            capacity_for_demand(
                r, mean_data_units=m, target_aotm=0.05, spectral_efficiency=se
            )
            for r, m in zip(rates.tolist(), means.tolist())
        ]
        got = sized_capacity(rates, means, 0.05, np.full(4, se))
        assert got.tobytes() == np.array(expected).tobytes()
