"""Stacked-K engine vs the autograd PPO oracle — exact, not approximate.

Every assertion here is ``==`` / ``array_equal``: the stacked forward,
hand-rolled backward, gradient clipping and Adam step must reproduce the
autograd update (:func:`repro.core.ppo.autograd_ppo_update`) bit-for-bit
(see the bit-identity argument in ``repro/nn/stacked.py`` and DESIGN §17).
Reference agents are built with the same seeds, stepped through identical
rollouts, and compared on every parameter after every update.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import repro.core.ppo as ppo_module
import repro.nn.stacked as stacked_module
from repro.core.ppo import PPOConfig
from repro.nn.optim import clip_grad_norm
from repro.nn.stacked import _ADAM_BLOCK, StackedPPOAgent
from tests.nn.ppo_oracle import AutogradPPOAgent


def tiny_config(**overrides) -> PPOConfig:
    defaults = dict(hidden_dim=8, policy_blocks=1, value_blocks=1, update_epochs=2)
    defaults.update(overrides)
    return PPOConfig(**defaults)


def _build(k: int, cfg: PPOConfig, state_dim: int = 8, action_dim: int = 3):
    seeds = [1000 + 7 * i for i in range(k)]
    reference = [AutogradPPOAgent(state_dim, action_dim, cfg, rng=s) for s in seeds]
    stacked = StackedPPOAgent(state_dim, action_dim, cfg, rngs=seeds)
    return reference, stacked


def _rollout(reference, stacked, rng, *, steps, episodes, active=None, state_dim=8):
    """Feed identical transitions to both sides, asserting act equality."""
    k = stacked.k
    gamma = stacked.config.gamma
    indices = list(range(k)) if active is None else list(active)
    mask = None if active is None else np.isin(np.arange(k), indices)
    for _ in range(episodes):
        states = rng.uniform(0.0, 1.0, (k, state_dim))
        for _ in range(steps):
            want = {i: reference[i].act(states[i]) for i in indices}
            acts, lps = stacked.act_all(states, active=mask)
            rewards = rng.uniform(0.0, 1.0, k)
            for i in indices:
                assert np.array_equal(want[i][0], acts[i])
                assert want[i][1] == lps[i]
                reference[i].memory.store(states[i], want[i][0], want[i][1], rewards[i])
                stacked.members[i].memory.store(
                    states[i], acts[i].copy(), float(lps[i]), rewards[i]
                )
            states = rng.uniform(0.0, 1.0, (k, state_dim))
        for i in indices:
            reference[i].memory.end_episode(gamma)
            stacked.members[i].memory.end_episode(gamma)


def _assert_params_equal(reference, stacked):
    for i, ref in enumerate(reference):
        member = stacked.members[i]
        for net in ("policy", "value"):
            pairs = zip(
                getattr(ref, net).named_parameters(),
                getattr(member, net).named_parameters(),
            )
            for (name, want), (_, got) in pairs:
                assert np.array_equal(want.data, got.data), (i, net, name)


def _update_and_compare(reference, stacked, active):
    want_stats = {i: reference[i].update() for i in active}
    got_stats = stacked.update_all(np.asarray(active))
    for row, i in enumerate(active):
        reference[i].memory.clear()
        stacked.members[i].memory.clear()
        assert want_stats[i] == got_stats[row], i
    _assert_params_equal(reference, stacked)


#: Shapes and settings off the default path: (state_dim, action_dim,
#: config overrides).  The first is the online-DRL baseline's agent.
EDGE_CONFIGS = {
    "online-drl": (4, 1, dict(hidden_dim=64, policy_blocks=1, value_blocks=1,
                               update_epochs=4)),
    "raw-advantages": (8, 3, dict(normalize_advantages=False)),
    "one-epoch": (8, 3, dict(update_epochs=1)),
    "log-std-above-range": (8, 3, dict(log_std_init=1.0)),
    "log-std-below-range": (8, 3, dict(log_std_init=-5.0)),
    "no-grad-clip": (8, 3, dict(max_grad_norm=math.inf)),
    "no-residual-blocks": (8, 3, dict(policy_blocks=0, value_blocks=0)),
}
ORACLE_CASES = [
    pytest.param(k, 8, 3, {}, 4, 2, id=str(k)) for k in (1, 2, 7, 64)
] + [
    pytest.param(k, s, a, overrides, batch, 1, id=f"{name}-k{k}-b{batch}")
    for name, (s, a, overrides) in EDGE_CONFIGS.items()
    for k in (1, 3)
    for batch in (1, 7)
]


@pytest.mark.parametrize("k,state_dim,action_dim,overrides,steps,episodes", ORACLE_CASES)
def test_stacked_update_matches_scalar_oracle(
    k, state_dim, action_dim, overrides, steps, episodes
):
    """Forward, backward, clip and Adam agree on every parameter, K-wide."""
    cfg = tiny_config(**overrides)
    reference, stacked = _build(k, cfg, state_dim, action_dim)
    rng = np.random.default_rng(3)
    _rollout(reference, stacked, rng, steps=steps, episodes=episodes, state_dim=state_dim)
    _update_and_compare(reference, stacked, list(range(k)))


@pytest.mark.parametrize("batch", [1, 3, 10])
def test_stacked_update_across_batch_sizes(batch):
    """The stacked loss/backward handles any rollout length, including B=1."""
    cfg = tiny_config()
    reference, stacked = _build(3, cfg)
    rng = np.random.default_rng(11)
    _rollout(reference, stacked, rng, steps=batch, episodes=1)
    _update_and_compare(reference, stacked, [0, 1, 2])


def test_repeated_updates_keep_adam_state_identical():
    """Moment estimates and bias-correction counts stay in lockstep."""
    cfg = tiny_config(policy_blocks=2, update_epochs=3)
    reference, stacked = _build(4, cfg)
    rng = np.random.default_rng(5)
    for _ in range(3):
        _rollout(reference, stacked, rng, steps=5, episodes=1)
        _update_and_compare(reference, stacked, [0, 1, 2, 3])


def test_partial_active_rows_update_in_place():
    """Deactivated members' rows are untouched; active rows update exactly,
    on views of their own rows."""
    cfg = tiny_config()
    reference, stacked = _build(5, cfg)
    rng = np.random.default_rng(9)
    _rollout(reference, stacked, rng, steps=4, episodes=1)
    _update_and_compare(reference, stacked, [0, 1, 2, 3, 4])
    frozen = {
        i: [p.data.copy() for p in stacked.members[i].parameters()]
        for i in (1, 4)
    }
    active = [0, 2, 3]
    _rollout(reference, stacked, rng, steps=4, episodes=1, active=active)
    _update_and_compare(reference, stacked, active)
    for i, before in frozen.items():
        for want, got in zip(before, stacked.members[i].parameters()):
            assert np.array_equal(want, got.data), i


@pytest.mark.parametrize("block_rows", [1, 2])
def test_row_blocks_match_oracle(monkeypatch, block_rows):
    """Blocks of one and two rows: gaps in the active set and the block cap
    both split runs of rows ([0..4] → 0-1, 2-3, 4 at two rows; [0, 2, 3]
    → 0, 2-3), and every block matches the oracle through three updates."""
    cfg = tiny_config()
    member_bytes = StackedPPOAgent(8, 3, cfg, rngs=[0])._flat_params.nbytes
    monkeypatch.setattr(stacked_module, "_BLOCK_BYTES", block_rows * member_bytes)
    reference, stacked = _build(5, cfg)
    assert stacked._flat_g.shape == (block_rows, stacked._member_size)
    rng = np.random.default_rng(12)
    for active in ([0, 1, 2, 3, 4], [0, 2, 3], [0, 2, 3]):
        _rollout(reference, stacked, rng, steps=4, episodes=1, active=active)
        _update_and_compare(reference, stacked, active)


def test_member_update_stays_on_its_population_row():
    """A member's own update() runs on its row of the population stack: no
    private stack, no rebinding away from it, the other rows untouched."""
    cfg = tiny_config()
    reference, stacked = _build(3, cfg)
    rng = np.random.default_rng(4)
    _rollout(reference, stacked, rng, steps=4, episodes=1, active=[1])
    member = stacked.members[1]
    bound = [p.data for p in member.parameters()]
    assert member.update() == reference[1].update()
    assert member._stack is stacked and member.updates == 1
    for param, view in zip(member.parameters(), bound):
        assert param.data is view
    # Member-major storage: each member's parameters lie in its own row.
    for i, agent in enumerate(stacked.members):
        for param in agent.parameters():
            for row in range(stacked.k):
                assert np.shares_memory(param.data, stacked._flat_params[row]) == (row == i)
    _assert_params_equal(reference, stacked)
    with pytest.raises(ValueError, match="already live"):
        StackedPPOAgent.from_agents([member])


def test_member_of_a_freed_engine_refuses_to_update():
    """A population engine owns its members; a member that outlives it
    keeps its weights (row views) but not its Adam moments, so its update
    raises instead of restarting Adam from zero in a new engine."""
    cfg = tiny_config()
    reference, stacked = _build(2, cfg)
    _rollout(reference, stacked, np.random.default_rng(6), steps=3, episodes=1)
    member = stacked.members[0]
    del stacked
    with pytest.raises(RuntimeError, match="freed"):
        member.update()
    want, _ = reference[0].act(np.full(8, 0.5), deterministic=True)
    assert np.array_equal(member.act(np.full(8, 0.5), deterministic=True)[0], want)


def test_diverged_step_counts_rejected():
    """The monotone-deactivation contract is asserted, not assumed."""
    cfg = tiny_config()
    reference, stacked = _build(2, cfg)
    rng = np.random.default_rng(2)
    _rollout(reference, stacked, rng, steps=3, episodes=1, active=[0])
    _update_and_compare(reference, stacked, [0])
    _rollout(reference, stacked, rng, steps=3, episodes=1)
    with pytest.raises(RuntimeError, match="step counts"):
        stacked.update_all(np.array([0, 1]))


def test_deterministic_act_all_matches_members():
    cfg = tiny_config()
    reference, stacked = _build(3, cfg)
    states = np.random.default_rng(0).uniform(0.0, 1.0, (3, 8))
    acts, _ = stacked.act_all(states, deterministic=True)
    for i, ref in enumerate(reference):
        want, _ = ref.act(states[i], deterministic=True)
        assert np.array_equal(want, acts[i])


def test_state_dict_round_trip_stays_bound_to_stack():
    """load_state_dict writes through the row views into stacked storage."""
    cfg = tiny_config()
    _, stacked = _build(2, cfg)
    states = np.random.default_rng(1).uniform(0.0, 1.0, (2, 8))
    acts, _ = stacked.act_all(states, deterministic=True)
    stacked.members[0].load_state_dict(stacked.members[1].state_dict())
    same_state = np.stack([states[1], states[1]])
    swapped, _ = stacked.act_all(same_state, deterministic=True)
    assert np.array_equal(swapped[0], swapped[1])
    via_member, _ = stacked.members[0].act(states[1], deterministic=True)
    assert np.array_equal(swapped[0], via_member)


def test_set_lr_progress_matches_scalar_annealing():
    cfg = tiny_config()
    reference, stacked = _build(1, cfg)
    for fraction in (0.0, 0.3, 1.0, 2.0):
        reference[0].set_lr_progress(fraction)
        stacked.set_lr_progress(fraction)
        assert stacked.lr == reference[0].lr


def test_rejects_empty_population():
    with pytest.raises(ValueError):
        StackedPPOAgent(8, 3, tiny_config(), rngs=[])


def test_wide_hidden_preserves_scalar_strides_and_bits():
    """Regression: orthogonal() leaves wide (in < out) embed weights
    Fortran-ordered, and BLAS results depend on operand layout.  The
    stacked storage must keep every rebound row view on the scalar
    array's exact strides — and stay bit-identical through updates."""
    cfg = tiny_config(hidden_dim=32, policy_blocks=2)
    reference, stacked = _build(3, cfg)
    for ref, member in zip(reference, stacked.members):
        for (name, want), (_, got) in zip(
            ref.policy.named_parameters(), member.policy.named_parameters()
        ):
            assert want.data.strides == got.data.strides, name
    rng = np.random.default_rng(21)
    for _ in range(2):
        _rollout(reference, stacked, rng, steps=5, episodes=1)
        _update_and_compare(reference, stacked, [0, 1, 2])


def test_adam_blocks_ending_inside_segments_stay_exact(monkeypatch):
    """At the paper's hidden 256 a member's row holds ~666k elements, so
    Adam's cache-sized pieces end inside parameter segments.  The blocked
    sweep must still match the oracle on every parameter, with one member
    clipped and one not in the same epoch, over all three rows and over a
    two-row subset."""
    norms = []

    def recording_clip(parameters, max_norm):
        norms.append(clip_grad_norm(parameters, max_norm))
        return norms[-1]

    monkeypatch.setattr(ppo_module, "clip_grad_norm", recording_clip)
    cfg = PPOConfig(hidden_dim=256, update_epochs=2, max_grad_norm=30.0)
    reference, stacked = _build(3, cfg)
    assert stacked._member_size > 20 * _ADAM_BLOCK
    rng = np.random.default_rng(3)
    for active in (None, [0, 1]):
        _rollout(reference, stacked, rng, steps=6, episodes=1, active=active)
        norms.clear()
        _update_and_compare(reference, stacked, active or [0, 1, 2])
        first_epoch = norms[:: cfg.update_epochs]  # one norm per member and epoch
        assert min(first_epoch) <= cfg.max_grad_norm < max(first_epoch), first_epoch


def _filled_stack(k: int, cfg: PPOConfig, transitions: int, seed: int) -> StackedPPOAgent:
    """A K-member stack holding ``transitions`` stored steps per member."""
    stacked = StackedPPOAgent(8, 3, cfg, rngs=[seed + i for i in range(k)])
    rng = np.random.default_rng(seed)
    for _ in range(transitions):
        states = rng.uniform(0.0, 1.0, (k, 8))
        acts, lps = stacked.act_all(states)
        for i, member in enumerate(stacked.members):
            member.memory.store(states[i], acts[i].copy(), float(lps[i]), rng.uniform())
    for member in stacked.members:
        member.memory.end_episode(cfg.gamma)
    return stacked


def test_update_holds_one_member_of_gradients():
    """At hidden 256 one member's parameters (5.33 MB) exceed a block, so
    the engine keeps a one-member gradient buffer, updates member by member
    on row views, and runs Adam through one small scratch: an update's
    transient memory stays below one member's parameter bytes (K=4)."""
    cfg = PPOConfig(hidden_dim=256)
    stacked = _filled_stack(4, cfg, transitions=40, seed=5)
    member_bytes = stacked._flat_params[0].nbytes
    assert stacked._flat_g.nbytes == member_bytes
    tracemalloc.start()
    try:
        stacked.update_rows(np.arange(4), stacked.lr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < member_bytes, (peak, member_bytes)


#: sha256 of the Adam moments after ``test_adam_moments_are_pinned``'s three
#: updates, taken before Adam ran in cache blocks, over the parameter-major
#: layout the engine then had (see ``_parameter_major_bytes``).
PINNED_MOMENTS = {
    "m": "4965427c705cef4f1de454e6bdafb4b85f9741255fe50234576d6669640dd9a1",
    "v": "e0d86dcc9e3fb23d791c128fe3226d6facc37ca020c1a8558cbb9bc7396b02f5",
}


def test_adam_moments_are_pinned():
    """A seeded K=2 stack's Adam moments after three updates, byte for byte.
    The oracle shares ``adam_step`` with the engine, so a change to Adam's
    op sequence moves both sides alike; this pin catches it.  The buffers
    span two blocks, the second one partial."""
    cfg = tiny_config(hidden_dim=64, update_epochs=4)
    reference, stacked = _build(2, cfg)
    assert _ADAM_BLOCK < stacked._flat_m.size < 2 * _ADAM_BLOCK
    rng = np.random.default_rng(17)
    for _ in range(3):
        _rollout(reference, stacked, rng, steps=5, episodes=1)
        _update_and_compare(reference, stacked, [0, 1])
    digests = {
        name: hashlib.sha256(
            _parameter_major_bytes(stacked, getattr(stacked, f"_flat_{name}"))
        ).hexdigest()
        for name in PINNED_MOMENTS
    }
    assert digests == PINNED_MOMENTS


def _parameter_major_bytes(stacked: StackedPPOAgent, flat: np.ndarray) -> bytes:
    """A member-major ``(K, P)`` buffer's bytes in parameter-major order:
    each parameter's ``(K, *shape)`` stack in turn, a Fortran-ordered one
    transposed back to how its segment was stored."""
    stacks = stacked._segment_views(flat)
    return b"".join(
        np.ascontiguousarray(s.transpose(0, 2, 1) if f else s).tobytes()
        for s, f in zip(stacks, stacked._fordered)
    )
