"""PPO agent: memory, returns, update mechanics."""

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from repro.core.discrete import DiscretePPOAgent, JointDiscretePPOAgent
from repro.core.ppo import PPOAgent, PPOConfig, RolloutMemory, discounted_returns
from tests.nn.ppo_oracle import AutogradPPOAgent


def tiny_config(**overrides) -> PPOConfig:
    defaults = dict(hidden_dim=16, policy_blocks=1, value_blocks=1)
    defaults.update(overrides)
    return PPOConfig(**defaults)


class TestDiscountedReturns:
    def test_gamma_zero_is_identity(self):
        r = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(discounted_returns(r, 0.0), r)

    def test_gamma_one_is_suffix_sum(self):
        r = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(discounted_returns(r, 1.0), [6.0, 5.0, 3.0])

    def test_recursive_definition(self):
        r = np.array([1.0, 1.0, 1.0, 1.0])
        g = discounted_returns(r, 0.5)
        for t in range(3):
            assert g[t] == pytest.approx(r[t] + 0.5 * g[t + 1])


def _loop_returns(rewards, gamma):
    """The original Horner-loop oracle the vectorized path must match."""
    returns = np.empty(len(rewards), dtype=float)
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] + gamma * running
        returns[t] = running
    return returns


class TestDiscountedReturnsVectorized:
    """The cumsum fast path is bit-identical to the loop, or falls back."""

    @pytest.mark.parametrize("gamma", [0.5, 0.25, 0.875, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 50, 400])
    def test_power_of_two_gammas_bit_identical(self, gamma, n):
        rewards = np.random.default_rng(hash((gamma, n)) % 2**32).uniform(
            -5.0, 5.0, n
        )
        np.testing.assert_array_equal(
            discounted_returns(rewards, gamma), _loop_returns(rewards, gamma)
        )

    @pytest.mark.parametrize("gamma", [0.9, 0.99, 0.3, 0.6180339887])
    def test_non_power_of_two_gammas_bit_identical(self, gamma):
        rewards = np.random.default_rng(13).uniform(-2.0, 2.0, 60)
        np.testing.assert_array_equal(
            discounted_returns(rewards, gamma), _loop_returns(rewards, gamma)
        )

    def test_extreme_magnitudes_bit_identical(self):
        # Near the float range edges the pre-scaled partials go subnormal
        # or overflow; the guards must route these through the loop.
        rewards = np.array([1e300, -1e300, 1e-310, 5.0, -1e308, 1e-320, 0.0])
        for gamma in (0.5, 0.25, 1.0, 0.9):
            np.testing.assert_array_equal(
                discounted_returns(rewards, gamma), _loop_returns(rewards, gamma)
            )

    def test_nan_and_inf_propagate_like_the_loop(self):
        rewards = np.array([1.0, np.nan, 2.0, np.inf, -3.0])
        got = discounted_returns(rewards, 0.5)
        want = _loop_returns(rewards, 0.5)
        np.testing.assert_array_equal(
            np.isnan(got), np.isnan(want)
        )
        mask = ~np.isnan(want)
        np.testing.assert_array_equal(got[mask], want[mask])

    def test_gamma_zero_and_empty(self):
        rewards = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(discounted_returns(rewards, 0.0), rewards)
        assert discounted_returns(np.array([]), 0.5).size == 0


class TestRolloutMemory:
    def test_store_and_arrays(self):
        mem = RolloutMemory()
        for i in range(3):
            mem.store(np.full(8, i), np.full(3, i), -1.0 * i, float(i))
        mem.end_episode(gamma=0.5)
        states, actions, lps, returns = mem.arrays()
        assert states.shape == (3, 8)
        assert actions.shape == (3, 3)
        assert lps.shape == (3,)
        np.testing.assert_allclose(returns, discounted_returns(np.array([0.0, 1.0, 2.0]), 0.5))

    def test_multiple_episodes_independent_returns(self):
        mem = RolloutMemory()
        for _ in range(2):
            for r in (1.0, 1.0):
                mem.store(np.zeros(8), np.zeros(3), 0.0, r)
            mem.end_episode(gamma=1.0)
        _, _, _, returns = mem.arrays()
        # Episode boundary respected: each episode's first step has G=2.
        np.testing.assert_array_equal(returns, [2.0, 1.0, 2.0, 1.0])

    def test_arrays_without_end_episode_raises(self):
        mem = RolloutMemory()
        mem.store(np.zeros(8), np.zeros(3), 0.0, 1.0)
        with pytest.raises(RuntimeError):
            mem.arrays()

    def test_clear(self):
        mem = RolloutMemory()
        mem.store(np.zeros(8), np.zeros(3), 0.0, 1.0)
        mem.end_episode(0.5)
        mem.clear()
        assert len(mem) == 0
        assert mem.returns == []


class TestAgentActing:
    def test_act_returns_action_and_logprob(self):
        agent = PPOAgent(config=tiny_config(), rng=0)
        action, log_prob = agent.act(np.zeros(8))
        assert action.shape == (3,)
        assert isinstance(log_prob, float)

    def test_deterministic_act_is_mean(self):
        agent = PPOAgent(config=tiny_config(), rng=0)
        a1, _ = agent.act(np.zeros(8), deterministic=True)
        a2, _ = agent.act(np.zeros(8), deterministic=True)
        np.testing.assert_array_equal(a1, a2)

    def test_stochastic_act_varies(self):
        agent = PPOAgent(config=tiny_config(), rng=0)
        a1, _ = agent.act(np.zeros(8))
        a2, _ = agent.act(np.zeros(8))
        assert not np.array_equal(a1, a2)

    def test_batched_states_are_rejected(self):
        """``act`` takes one ``(8,)`` state; populations use ``act_all``."""
        agent = PPOAgent(config=tiny_config(), rng=0)
        with pytest.raises(ValueError, match=r"\(8,\) state"):
            agent.act(np.zeros((4, 8)))


class TestAgentUpdate:
    def fill_memory(self, agent, n_episodes=2, steps=5, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(n_episodes):
            for _ in range(steps):
                state = rng.standard_normal(8)
                action, log_prob = agent.act(state)
                agent.memory.store(state, action, log_prob, float(rng.random()))
            agent.memory.end_episode(agent.config.gamma)

    def test_update_returns_stats(self):
        agent = PPOAgent(config=tiny_config(), rng=0)
        self.fill_memory(agent)
        stats = agent.update()
        assert set(stats) >= {
            "loss", "actor_loss", "critic_loss", "entropy", "mean_ratio",
            "approx_kl", "clip_fraction",
        }
        assert math.isfinite(stats["approx_kl"])
        assert 0.0 <= stats["clip_fraction"] <= 1.0

    def test_update_changes_parameters(self):
        agent = PPOAgent(config=tiny_config(), rng=0)
        before = {k: v.copy() for k, v in agent.policy.state_dict().items()}
        self.fill_memory(agent)
        agent.update()
        changed = any(
            not np.array_equal(before[k], v) for k, v in agent.policy.state_dict().items()
        )
        assert changed

    def test_first_epoch_ratio_is_one(self):
        """Collected with the same policy that updates: the first-epoch ratio
        must be ≈1 (Algorithm 2's π/π_old at sync)."""
        agent = PPOAgent(config=tiny_config(update_epochs=1), rng=0)
        self.fill_memory(agent)
        stats = agent.update()
        assert stats["mean_ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_critic_improves_on_repeated_data(self):
        agent = PPOAgent(config=tiny_config(update_epochs=1, learning_rate=1e-2), rng=0)
        rng = np.random.default_rng(0)
        states = rng.standard_normal((10, 8))
        losses = []
        for _ in range(30):
            agent.memory.clear()
            for s in states:
                a, lp = agent.act(s)
                agent.memory.store(s, a, lp, 1.0)
            agent.memory.end_episode(agent.config.gamma)
            losses.append(agent.update()["critic_loss"])
        assert losses[-1] < losses[0]

    def test_lr_progress_anneals(self):
        agent = PPOAgent(config=tiny_config(learning_rate=1e-3, final_learning_rate=1e-4), rng=0)
        agent.set_lr_progress(0.0)
        assert agent.lr == pytest.approx(1e-3)
        agent.set_lr_progress(1.0)
        assert agent.lr == pytest.approx(1e-4)
        agent.set_lr_progress(5.0)  # clamped
        assert agent.lr == pytest.approx(1e-4)

    def test_update_matches_autograd_oracle(self):
        """The lone agent's K=1 stacked update is the autograd update, bit
        for bit, across annealed learning rates."""
        agent = PPOAgent(config=tiny_config(), rng=0)
        oracle = AutogradPPOAgent(config=tiny_config(), rng=0)
        for update, fraction in enumerate((0.0, 0.5, 1.0)):
            for side in (agent, oracle):
                self.fill_memory(side, seed=update)
                side.set_lr_progress(fraction)
            assert agent.update() == oracle.update()
            agent.memory.clear()
            oracle.memory.clear()
            for (name, want), (_, got) in zip(
                oracle.policy.named_parameters(), agent.policy.named_parameters()
            ):
                assert np.array_equal(want.data, got.data), name
            for want, got in zip(oracle.value.parameters(), agent.value.parameters()):
                assert np.array_equal(want.data, got.data)

    def test_stack_is_built_at_the_first_update(self):
        """Acting never allocates the engine; the first update builds one
        K=1 stack over the agent's own parameters, and later updates reuse it."""
        agent = PPOAgent(config=tiny_config(), rng=0)
        agent.act(np.zeros(8))
        assert agent._stack is None
        self.fill_memory(agent)
        agent.update()
        stack = agent._stack
        assert stack.k == 1 and stack.members == [agent]
        for param in agent.parameters():
            assert np.shares_memory(param.data, stack._flat_params)
        agent.update()
        assert agent._stack is stack
        assert agent.updates == 2

    def test_dropping_the_agent_frees_its_engine(self):
        """The agent owns its K=1 engine, which links back weakly, so
        reference counting frees the engine with the agent; no cyclic
        collection is needed."""
        agent = PPOAgent(config=tiny_config(), rng=0)
        self.fill_memory(agent)
        agent.update()
        engine = weakref.ref(agent._stack)
        gc.collect()
        gc.disable()
        try:
            del agent
            assert engine() is None
        finally:
            gc.enable()


class TestStateDict:
    def test_roundtrip(self):
        a = PPOAgent(config=tiny_config(), rng=0)
        b = PPOAgent(config=tiny_config(), rng=1)
        b.load_state_dict(a.state_dict())
        s = np.random.default_rng(2).standard_normal(8)
        np.testing.assert_allclose(
            a.act(s, deterministic=True)[0], b.act(s, deterministic=True)[0]
        )

    def test_seeded_init_stream_is_pinned(self):
        """Seeded init weights are byte-stable: every training fingerprint
        rests on them, and the batched-vs-scalar tests cannot catch a
        shifted init stream because both sides shift together."""
        agent = PPOAgent(config=PPOConfig(hidden_dim=16), rng=0)
        digest = hashlib.sha256()
        for net, params in sorted(agent.state_dict().items()):
            for name, array in sorted(params.items()):
                digest.update(f"{net}.{name}".encode())
                digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == (
            "1250dd665d7300c224f2d1fd06e48ec9dbe1303dffc2f254f327626a794d438b"
        )

    @pytest.mark.parametrize("make,keys,expected", [
        (
            lambda: PPOAgent(config=PPOConfig(hidden_dim=16), rng=0),
            ("loss", "actor_loss", "critic_loss", "entropy", "mean_ratio",
             "mean_return", "approx_kl", "clip_fraction"),
            "d0f4ba40f15f14e0ab6c3039296863049b98e2ae78d712bf10ba463a6eb65503",
        ),
        (
            lambda: DiscretePPOAgent(8, max_threads=6, config=tiny_config(), rng=0),
            ("loss", "actor_loss", "critic_loss", "entropy", "mean_return"),
            "8e754635bf924b6a479c88cedadefaffa80ada324d2b555f1882652e166b779e",
        ),
        (
            lambda: JointDiscretePPOAgent(8, max_threads=6, config=tiny_config(), rng=0),
            ("loss", "actor_loss", "critic_loss", "entropy", "mean_return"),
            "cee8587eddaf0750d0d4df3e48d185239755fbc84fc629e08da6a4aa0e15d210",
        ),
    ], ids=["gaussian", "discrete", "joint-discrete"])
    def test_seeded_updates_are_pinned(self, make, keys, expected):
        """Parameters and diagnostics after three seeded updates are
        byte-stable.  An equality test between two update paths cannot
        catch a shift both paths share; these digests can."""
        agent = make()
        rng = np.random.default_rng(7)
        digest = hashlib.sha256()
        for _ in range(3):
            for _ in range(2):
                for _ in range(5):
                    state = rng.uniform(0.0, 1.0, 8)
                    action, log_prob = agent.act(state)
                    agent.memory.store(state, action, log_prob, float(rng.uniform()))
                agent.memory.end_episode(agent.config.gamma)
            stats = agent.update()
            agent.memory.clear()
            for key in keys:
                digest.update(f"{key}={stats[key]!r}".encode())
        for net, params in sorted(agent.state_dict().items()):
            for name, array in sorted(params.items()):
                digest.update(f"{net}.{name}".encode())
                digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == expected
