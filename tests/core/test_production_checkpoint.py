"""Production controller (§IV-F) and checkpointing."""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointMeta, load_checkpoint, save_checkpoint
from repro.core.networks import PolicyNetwork, ValueNetwork
from repro.core.ppo import PPOAgent, PPOConfig
from repro.core.production import AutoMDTController
from repro.nn.plan import PlanUnsupported
from repro.transfer.engine import Observation


def make_obs(threads=(5, 5, 5), throughputs=(500, 500, 500)):
    return Observation(
        threads=threads,
        throughputs=throughputs,
        sender_free=0.8e9,
        receiver_free=0.9e9,
        sender_capacity=1e9,
        receiver_capacity=1e9,
        elapsed=10.0,
        bytes_written_total=1e9,
    )


def proposed_state(ctrl, observation):
    """The state ``ctrl.propose`` hands its policy plan for ``observation``."""
    seen = []
    act = ctrl._plan.act

    def spy(state, *args, **kwargs):
        seen.append(state.copy())
        return act(state, *args, **kwargs)

    ctrl._plan.act = spy
    ctrl.propose(observation)
    return seen[0]


class TestAutoMDTController:
    def make(self, deterministic=False, seed=0):
        policy = PolicyNetwork(8, 3, hidden_dim=16, num_blocks=1, rng=seed)
        return AutoMDTController(
            policy,
            max_threads=30,
            throughput_scale=1000.0,
            deterministic=deterministic,
            rng=seed,
        )

    def test_non_policy_network_is_rejected(self):
        """Proposals always run the compiled plan: no Tensor fallback."""
        with pytest.raises(PlanUnsupported):
            AutoMDTController(
                ValueNetwork(8, hidden_dim=16, num_blocks=1, rng=0),
                max_threads=30,
                throughput_scale=1000.0,
            )

    def test_propose_returns_valid_triple(self):
        ctrl = self.make()
        for _ in range(20):
            triple = ctrl.propose(make_obs())
            assert len(triple) == 3
            assert all(1 <= n <= 30 for n in triple)

    def test_deterministic_mode_stable(self):
        ctrl = self.make(deterministic=True)
        assert ctrl.propose(make_obs()) == ctrl.propose(make_obs())

    def test_sampling_mode_varies(self):
        ctrl = self.make(deterministic=False)
        proposals = {ctrl.propose(make_obs()) for _ in range(30)}
        assert len(proposals) > 1

    def test_state_construction_matches_env_convention(self):
        ctrl = self.make()
        state = proposed_state(ctrl, make_obs((15, 30, 3), (500, 1000, 100)))
        np.testing.assert_allclose(state[:3], [0.5, 1.0, 0.1])
        np.testing.assert_allclose(state[3:6], [0.5, 1.0, 0.1])
        np.testing.assert_allclose(state[6:], [0.8, 0.9])

    def test_responds_to_observation(self):
        """Different observations may map to different proposals (policy is
        state-conditioned, not constant)."""
        ctrl = self.make(deterministic=True)
        a = ctrl.propose(make_obs((1, 1, 1), (10, 10, 10)))
        b = ctrl.propose(make_obs((30, 30, 30), (1000, 1000, 1000)))
        # Not required to differ for an untrained net, but the call path
        # must accept both extremes without error.
        assert len(a) == len(b) == 3

    def test_nan_throughputs_yield_finite_state(self):
        """Probe dropouts hand the controller NaN readings; the state must
        stay finite or the Gaussian head emits NaN thread counts."""
        ctrl = self.make(deterministic=True)
        nan = float("nan")
        state = proposed_state(ctrl, make_obs(throughputs=(nan, nan, nan)))
        assert np.all(np.isfinite(state))
        np.testing.assert_allclose(state[3:6], [0.0, 0.0, 0.0])

    def test_degenerate_buffer_reports_yield_finite_state(self):
        nan = float("nan")
        obs = Observation(
            threads=(5, 5, 5),
            throughputs=(500, 500, 500),
            sender_free=nan,
            receiver_free=float("inf"),
            sender_capacity=0.0,
            receiver_capacity=nan,
            elapsed=10.0,
            bytes_written_total=1e9,
        )
        state = proposed_state(self.make(), obs)
        assert np.all(np.isfinite(state))

    def test_propose_on_pathological_observation_returns_valid_triple(self):
        ctrl = self.make(deterministic=True)
        nan = float("nan")
        obs = Observation(
            threads=(5, 5, 5),
            throughputs=(nan, float("inf"), -1.0),
            sender_free=nan,
            receiver_free=nan,
            sender_capacity=0.0,
            receiver_capacity=0.0,
            elapsed=10.0,
            bytes_written_total=0.0,
        )
        triple = ctrl.propose(obs)
        assert all(isinstance(n, int) and 1 <= n <= 30 for n in triple)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        agent = PPOAgent(config=PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1), rng=0)
        meta = CheckpointMeta(
            max_threads=30, throughput_scale=1000.0, action_mode="normalized", utility_k=1.02
        )
        save_checkpoint(tmp_path / "ckpt", agent, meta)

        loaded, loaded_meta = load_checkpoint(tmp_path / "ckpt", rng=1)
        assert loaded_meta == meta
        s = np.random.default_rng(0).standard_normal(8)
        np.testing.assert_allclose(
            agent.act(s, deterministic=True)[0], loaded.act(s, deterministic=True)[0]
        )
        assert loaded.config.hidden_dim == 16

    def test_files_created(self, tmp_path):
        agent = PPOAgent(config=PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1), rng=0)
        meta = CheckpointMeta(30, 1000.0, "normalized", 1.02)
        save_checkpoint(tmp_path / "sub" / "ckpt", agent, meta)
        assert (tmp_path / "sub" / "ckpt.npz").exists()
        assert (tmp_path / "sub" / "ckpt.json").exists()


class TestAutoMDTFacade:
    def test_full_pipeline_small(self, tmp_path):
        """explore -> train (tiny budget) -> controller -> save/load."""
        from repro.core.agent import AutoMDT
        from repro.core.training import TrainingConfig
        from repro.emulator import Testbed, fig5_read_bottleneck

        pipeline = AutoMDT(
            ppo_config=PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1),
            training_config=TrainingConfig(max_episodes=12, stagnation_episodes=12),
            seed=0,
        )
        profile = pipeline.explore(Testbed(fig5_read_bottleneck(), rng=0), duration=30)
        assert profile.bottleneck > 0

        result = pipeline.train_offline()
        assert result.episodes_run == 12

        controller = pipeline.controller()
        triple = controller.propose(make_obs())
        assert all(1 <= n <= 30 for n in triple)

        pipeline.save(tmp_path / "automdt")
        fresh = AutoMDT(seed=1)
        fresh.load(tmp_path / "automdt")
        assert fresh.profile == profile
        ctrl = fresh.controller(deterministic=True)
        assert len(ctrl.propose(make_obs())) == 3

    def test_controller_before_training_raises(self):
        from repro.core.agent import AutoMDT
        from repro.utils.errors import ConfigError

        with pytest.raises(ConfigError):
            AutoMDT().controller()

    def test_training_before_profile_raises(self):
        from repro.core.agent import AutoMDT
        from repro.utils.errors import ConfigError

        with pytest.raises(ConfigError):
            AutoMDT().train_offline()
