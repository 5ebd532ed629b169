"""Batched population training must be bit-identical to the scalar path.

``train_population(batched=True)`` fuses every member's simulator into one
:class:`BatchedEnv`, but derives the same per-member seed streams and
replays the same act/store/update cadence as ``_train_member``.  These
tests pin that contract: every reward, checkpoint metric and evaluation
score must match ``workers=1`` exactly — ``==`` on floats, no tolerance.
"""

import gc
import hashlib
import weakref

import numpy as np

from repro.core.batched_env import BatchedEnv
from repro.core.env import SimulatorEnv
from repro.core.population import train_population
from repro.core.ppo import PPOConfig
from repro.core.training import TrainingConfig
from repro.nn.stacked import StackedPPOAgent
from repro.parallel import derive_seed
from repro.simulator.config import SimulatorConfig

#: ``_result_digest`` of ``test_population_batched_result_is_pinned``'s run.
PINNED_POPULATION_DIGEST = "c28e595fcc92413328fc28778faf0579f6c1dea7d0cfa69b32efdf39aa3fddf5"


def _variant(scale: float) -> SimulatorConfig:
    return SimulatorConfig(
        tpt_read=80.0 * scale,
        tpt_network=160.0,
        tpt_write=200.0,
        max_threads=8,
        label=f"variant-{scale:g}",
    )


def test_batched_env_columns_match_scalar_envs():
    """Each BatchedEnv column replays SimulatorEnv's exact RNG + state math."""
    configs = [_variant(1.0), _variant(0.8), _variant(1.3)]
    seeds = [101, 202, 303]
    scalars = [
        SimulatorEnv(c, rng=np.random.default_rng(s))
        for c, s in zip(configs, seeds)
    ]
    batched = BatchedEnv(configs, rngs=[np.random.default_rng(s) for s in seeds])
    rng = np.random.default_rng(7)
    for _episode in range(3):
        states = batched.reset_all()
        for i, env in enumerate(scalars):
            assert np.array_equal(states[i], env.reset())
        for _step in range(batched.episode_steps):
            actions = rng.uniform(0.0, 1.0, (len(configs), 3))
            states, rewards, done, _info = batched.step_all(actions)
            for i, env in enumerate(scalars):
                want_state, want_reward, want_done, _ = env.step(actions[i])
                assert np.array_equal(states[i], want_state), f"column {i}"
                assert rewards[i] == want_reward
                assert done == want_done


def test_batched_env_masked_reset_skips_finished_columns():
    """Unselected columns draw nothing: their RNG streams stay untouched."""
    configs = [_variant(1.0), _variant(1.0)]
    batched = BatchedEnv(configs, rngs=[5, 6])
    batched.reset_all()
    # Column 1 "finishes": only column 0 resets; column 1's stream must be
    # exactly where a scalar env's stream would be after one reset.
    batched.reset_all(mask=np.array([True, False]))
    probe = SimulatorEnv(configs[1], rng=6)
    probe.reset()
    assert batched.members[1].rng.integers(0, 1 << 30) == probe.rng.integers(0, 1 << 30)


def test_population_batched_matches_serial():
    """Full pipeline: rewards, checkpoints, eval scores, winner — all equal."""
    variants = [_variant(1.0), _variant(0.7), _variant(1.2)]
    training = TrainingConfig(
        max_episodes=6, steps_per_episode=5, episodes_per_update=2,
        stagnation_episodes=2, convergence_threshold=0.5,
    )
    ppo = PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1, update_epochs=2)
    kwargs = dict(
        root_seed=42, training_config=training, ppo_config=ppo, eval_episodes=2
    )
    serial = train_population(variants, workers=1, **kwargs)
    batched = train_population(variants, batched=True, **kwargs)

    assert batched.best_index == serial.best_index
    assert batched.eval_rewards() == serial.eval_rewards()
    for got, want in zip(batched.members, serial.members):
        assert got.index == want.index
        assert got.seed == want.seed == derive_seed(42, want.index)
        assert got.eval_reward == want.eval_reward
        t_got, t_want = got.training, want.training
        assert np.array_equal(t_got.episode_rewards, t_want.episode_rewards)
        assert t_got.best_reward == t_want.best_reward
        assert t_got.best_episode == t_want.best_episode
        assert t_got.converged == t_want.converged
        assert t_got.convergence_episode == t_want.convergence_episode
        assert t_got.episodes_run == t_want.episodes_run
        assert t_got.total_steps == t_want.total_steps
        for key in ("policy", "value"):
            for k, a in t_want.best_state[key].items():
                assert np.array_equal(t_got.best_state[key][k], a), (key, k)


def test_population_batched_winner_fingerprint_second_config():
    """A second profile (more members, longer episodes, 4 epochs — the
    stacked engine's default epoch count) picks the same winner with a
    bit-identical checkpoint."""
    variants = [_variant(s) for s in (1.0, 0.6, 0.9, 1.4)]
    training = TrainingConfig(
        max_episodes=4, steps_per_episode=8, episodes_per_update=1,
        stagnation_episodes=3, convergence_threshold=0.9,
    )
    ppo = PPOConfig(hidden_dim=24, policy_blocks=2, value_blocks=2)
    kwargs = dict(
        root_seed=7, training_config=training, ppo_config=ppo, eval_episodes=3
    )
    serial = train_population(variants, workers=1, **kwargs)
    batched = train_population(variants, batched=True, **kwargs)

    assert batched.best_index == serial.best_index
    assert batched.eval_rewards() == serial.eval_rewards()
    for key in ("policy", "value"):
        want_state = serial.best.training.best_state[key]
        got_state = batched.best.training.best_state[key]
        for k, a in want_state.items():
            assert np.array_equal(got_state[k], a), (key, k)


def _result_digest(result) -> str:
    """sha256 over the rewards, the winner and member 1's best checkpoint."""
    h = hashlib.sha256(str(result.best_index).encode())
    h.update(np.asarray(result.eval_rewards(), dtype=np.float64).tobytes())
    for member in result.members:
        h.update(np.asarray(member.training.episode_rewards, dtype=np.float64).tobytes())
    state = result.members[1].training.best_state
    for net in sorted(state):
        for name in sorted(state[net]):
            h.update(f"{net}.{name}".encode())
            h.update(np.ascontiguousarray(state[net][name], dtype=np.float64).tobytes())
    return h.hexdigest()


def test_population_batched_result_is_pinned():
    """A seeded batched population, byte for byte: any change to the batched
    simulator, the member codec or the stacked engine that moves one reward
    or one weight changes this digest."""
    variants = [_variant(s) for s in (1.0, 0.75, 1.25)]
    training = TrainingConfig(
        max_episodes=4, steps_per_episode=6, episodes_per_update=2,
        stagnation_episodes=5,
    )
    ppo = PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1, update_epochs=2)
    result = train_population(
        variants, root_seed=2024, training_config=training, ppo_config=ppo,
        eval_episodes=2, batched=True,
    )
    assert _result_digest(result) == PINNED_POPULATION_DIGEST


def test_population_engine_is_freed_on_return(monkeypatch):
    """The population engine owns its members, which link back weakly, so
    reference counting frees it when ``train_population`` returns; with the
    cyclic collector off, nothing of it is left."""
    engines = []
    build = StackedPPOAgent.__init__

    def recording_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(StackedPPOAgent, "__init__", recording_build)
    training = TrainingConfig(max_episodes=2, steps_per_episode=4, episodes_per_update=2)
    ppo = PPOConfig(hidden_dim=16, policy_blocks=1, value_blocks=1, update_epochs=1)
    gc.collect()
    gc.disable()
    try:
        train_population(
            [_variant(1.0), _variant(0.8)], root_seed=3, training_config=training,
            ppo_config=ppo, eval_episodes=1, batched=True,
        )
        alive = [engine() for engine in engines]
    finally:
        gc.enable()
    assert len(engines) == 1 and alive == [None]
