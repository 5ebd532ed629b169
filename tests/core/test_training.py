"""Algorithm 2 training loop: convergence bookkeeping, best-model tracking."""

import numpy as np
import pytest

from repro.core.ppo import PPOAgent, PPOConfig
from repro.core.training import ConvergenceTracker, TrainingConfig, TrainingResult, train
from repro.utils.errors import ConfigError


class BanditEnv:
    """Minimal 1-step-quality env: reward = 1 - |action - target| (clipped).

    Converges in very few episodes, which keeps these tests fast while still
    exercising the full loop (reset/step/done, memory, update, convergence).
    """

    state_dim = 8
    action_dim = 3

    def __init__(self, target=(0.4, 0.2, 0.1), steps=5):
        self.target = np.asarray(target)
        self.steps = steps
        self._count = 0

    def reset(self):
        self._count = 0
        return np.zeros(8)

    def step(self, action):
        err = np.abs(np.asarray(action).reshape(-1) - self.target).mean()
        reward = float(np.clip(1.0 - err, 0.0, 1.0))
        self._count += 1
        return np.zeros(8), reward, self._count >= self.steps, {}


def tiny_agent(seed=0, **kw):
    return PPOAgent(config=PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1, **kw),
                    rng=seed)


class TestTrainingLoop:
    def test_improves_reward(self):
        agent = tiny_agent()
        result = train(
            agent,
            BanditEnv(),
            TrainingConfig(max_episodes=300, steps_per_episode=5, stagnation_episodes=300),
            max_episode_reward=5.0,
        )
        first = result.episode_rewards[:30].mean()
        last = result.episode_rewards[-30:].mean()
        assert last > first

    def test_result_fields(self):
        result = train(
            tiny_agent(),
            BanditEnv(),
            TrainingConfig(max_episodes=50, steps_per_episode=5, stagnation_episodes=50),
            max_episode_reward=5.0,
        )
        assert isinstance(result, TrainingResult)
        assert result.episodes_run == 50
        assert len(result.episode_rewards) == 50
        assert result.best_episode >= 0
        assert result.wall_seconds > 0
        assert result.steps_per_episode == 5

    def test_best_state_is_kept(self):
        agent = tiny_agent()
        result = train(
            agent,
            BanditEnv(),
            TrainingConfig(max_episodes=60, steps_per_episode=5, stagnation_episodes=60),
            max_episode_reward=5.0,
        )
        assert result.best_reward == pytest.approx(result.episode_rewards.max())
        # best_state must load cleanly.
        agent.load_state_dict(result.best_state)

    def test_early_stop_on_stagnation_after_convergence(self):
        """Once the target is hit, `stagnation_episodes` without improvement
        ends training before max_episodes."""
        agent = tiny_agent()
        result = train(
            agent,
            BanditEnv(target=(0.5, 0.5, 0.5)),
            TrainingConfig(
                max_episodes=5000,
                steps_per_episode=5,
                convergence_threshold=0.1,  # trivially reachable
                stagnation_episodes=20,
            ),
            max_episode_reward=5.0,
        )
        assert result.converged
        assert result.episodes_run < 5000

    def test_convergence_episode_recorded(self):
        result = train(
            tiny_agent(),
            BanditEnv(),
            TrainingConfig(
                max_episodes=200, steps_per_episode=5,
                convergence_threshold=0.05, stagnation_episodes=500,
            ),
            max_episode_reward=5.0,
        )
        assert result.convergence_episode is not None
        assert result.convergence_episode <= result.best_episode or result.converged

    def test_simulated_and_online_estimates(self):
        result = train(
            tiny_agent(),
            BanditEnv(),
            TrainingConfig(max_episodes=10, steps_per_episode=5, stagnation_episodes=10),
            max_episode_reward=5.0,
        )
        assert result.simulated_seconds == 50.0
        assert result.online_training_estimate(3.0) == 150.0

    def test_simulated_seconds_counts_actual_steps_on_early_done(self):
        """Episodes that end early must not be billed the full budget."""
        result = train(
            tiny_agent(),
            BanditEnv(steps=3),  # done after 3 steps, budget allows 10
            TrainingConfig(max_episodes=10, steps_per_episode=10, stagnation_episodes=10),
            max_episode_reward=10.0,
        )
        assert result.total_steps == result.episodes_run * 3
        assert result.simulated_seconds == float(result.total_steps)
        assert result.online_training_estimate(2.0) == 2.0 * result.total_steps
        # The naive episodes × budget estimate would have overcounted:
        assert result.simulated_seconds < result.episodes_run * 10.0

    def test_progress_callback(self):
        calls = []
        train(
            tiny_agent(),
            BanditEnv(),
            TrainingConfig(max_episodes=20, steps_per_episode=5,
                           stagnation_episodes=20, log_every=5),
            max_episode_reward=5.0,
            progress=lambda ep, r, best: calls.append(ep),
        )
        assert calls == [0, 5, 10, 15]

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            TrainingConfig(max_episodes=0)
        with pytest.raises(ConfigError):
            TrainingConfig(convergence_threshold=2.0)


class TestConvergenceTracker:
    """The one copy of Algorithm 2's bookkeeping, on scripted rewards."""

    def test_stop_rule_best_checkpoint_and_result(self):
        agent = tiny_agent()
        tracker = ConvergenceTracker(agent, TrainingConfig(stagnation_episodes=2), 10.0)
        # Target 9.0: reached at episode 1; a tie is no improvement, so the
        # second episode without one stops the run.
        rewards = [3.0, 9.5, 9.0, 9.5]
        stops, snapshots = [], []
        for reward in rewards:
            stops.append(tracker.record(reward, 10))
            snapshots.append(agent.state_dict())
            for param in agent.policy.parameters():
                param.data += 1.0  # every episode ends with a different policy
        assert stops == [False, False, False, True]
        result = tracker.result(1.5)
        assert (result.best_episode, result.best_reward) == (1, 9.5)
        assert result.convergence_episode == 1 and result.converged is True
        assert (result.episodes_run, result.total_steps) == (4, 40)
        assert result.wall_seconds == 1.5 and result.max_episode_reward == 10.0
        np.testing.assert_array_equal(result.episode_rewards, rewards)
        for name, value in result.best_state["policy"].items():
            np.testing.assert_array_equal(value, snapshots[1]["policy"][name])

    def test_budget_exhausted_after_the_target_still_converges(self):
        reached = ConvergenceTracker(tiny_agent(), TrainingConfig(), 10.0)
        assert not reached.record(9.5, 10)
        assert reached.result(0.0).converged is True
        short = ConvergenceTracker(tiny_agent(), TrainingConfig(), 10.0)
        short.record(8.9, 10)
        result = short.result(0.0)
        assert result.converged is False and result.convergence_episode is None


class TestSimulatorIntegration:
    def test_short_training_on_simulator_env(self):
        """End-to-end smoke: a short run on the real training env must
        produce sane rewards and leave the agent deployable."""
        from repro.core.env import SimulatorEnv
        from repro.simulator import SimulatorConfig

        env = SimulatorEnv(
            SimulatorConfig(
                tpt_read=80, tpt_network=160, tpt_write=200,
                bandwidth_read=1000, bandwidth_network=1000, bandwidth_write=1000,
            ),
            rng=0,
        )
        agent = tiny_agent()
        result = train(
            agent, env, TrainingConfig(max_episodes=40, stagnation_episodes=40)
        )
        assert 0.0 < result.best_reward <= result.max_episode_reward * 1.01
        action, _ = agent.act(env.reset(), deterministic=True)
        threads = env.action_to_threads(action)
        assert all(1 <= n <= 30 for n in threads)
