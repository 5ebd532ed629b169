"""Compiled inference plans vs the Tensor forward — exact and Tensor-free.

``PolicyPlan`` flattens a trained policy into a raw-ndarray op list with
preallocated buffers.  It must (a) reproduce the autograd forward
bit-for-bit — action mean, sampling (same RNG stream), log-prob — and
(b) allocate zero ``Tensor`` objects on the hot path.
"""

import importlib

import numpy as np
import pytest

from repro.autograd.tensor import no_grad

tensor_mod = importlib.import_module("repro.autograd.tensor")
from repro.core.networks import PolicyNetwork, ValueNetwork
from repro.nn.plan import PlanUnsupported, PolicyPlan, row_mean


def _policy(**overrides) -> PolicyNetwork:
    defaults = dict(hidden_dim=16, num_blocks=2, rng=3)
    defaults.update(overrides)
    return PolicyNetwork(8, 3, **defaults)


def _states(n=25, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 2.0, (n, 8))


class TestPolicyPlan:
    def test_sampling_matches_tensor_path_bitwise(self):
        policy = _policy()
        plan = PolicyPlan(policy)
        for state in _states():
            rng_a = np.random.default_rng(42)
            rng_b = np.random.default_rng(42)
            with no_grad():
                dist = policy(state)
                want_action = dist.sample(rng_a)
                want_lp = float(dist.log_prob(want_action).data)
            action, lp = plan.act(state, rng_b)
            assert np.array_equal(action, want_action)
            assert lp == want_lp

    def test_paper_width_with_trained_norms_matches_tensor_path(self):
        """At hidden 256 the layernorm sums split pairwise; with LayerNorm
        parameters moved off their init, both sampling modes stay exact."""
        policy = _policy(hidden_dim=256, num_blocks=3, rng=7)
        rng = np.random.default_rng(4)
        for block in policy.blocks:
            for norm in (block.norm1, block.norm2):
                norm.scale.data += rng.normal(0.0, 0.3, norm.scale.data.shape)
                norm.shift.data += rng.normal(0.0, 0.3, norm.shift.data.shape)
        plan = PolicyPlan(policy)
        for state in _states(40, seed=5):
            with no_grad():
                dist = policy(state)
                want_action = dist.sample(np.random.default_rng(9))
                want_lp = float(dist.log_prob(want_action).data)
                want_mode = dist.mode()
            action, lp = plan.act(state, np.random.default_rng(9))
            assert np.array_equal(action, want_action)
            assert lp == want_lp
            mode, _ = plan.act(state, None, deterministic=True)
            assert np.array_equal(mode, want_mode)

    def test_deterministic_mode_matches_mode(self):
        policy = _policy(num_blocks=1)
        plan = PolicyPlan(policy)
        for state in _states(10, seed=1):
            with no_grad():
                want = policy(state).mode()
            action, _ = plan.act(state, np.random.default_rng(0), deterministic=True)
            assert np.array_equal(action, want)

    def test_reflects_in_place_weight_updates(self):
        """Plans deref param.data at call time: updates need no recompile."""
        policy = _policy(num_blocks=1)
        plan = PolicyPlan(policy)
        state = np.full(8, 0.25)
        before, _ = plan.act(state, np.random.default_rng(0), deterministic=True)
        for p in policy.parameters():
            p.data -= 0.05
        with no_grad():
            want = policy(state).mode()
        after, _ = plan.act(state, np.random.default_rng(0), deterministic=True)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, want)

    def test_allocates_zero_tensors(self, monkeypatch):
        policy = _policy()
        plan = PolicyPlan(policy)
        state = np.zeros(8)
        plan.act(state, np.random.default_rng(0))  # warm any lazy state
        count = 0
        original = tensor_mod.Tensor.__init__

        def counting(self, *args, **kwargs):
            nonlocal count
            count += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(tensor_mod.Tensor, "__init__", counting)
        plan.act(state, np.random.default_rng(0))
        plan.act(state, np.random.default_rng(1), deterministic=True)
        assert count == 0

    def test_unsupported_structure_raises(self):
        class Doubled:
            pass

        with pytest.raises(PlanUnsupported):
            PolicyPlan(Doubled())

    def test_only_policy_blocks_compile(self):
        """The compiler takes the ReLU + LayerNorm blocks PolicyNetwork
        builds; value-style Tanh blocks and critics are rejected."""
        policy = _policy(num_blocks=1)
        for block in policy.blocks:
            block.activation = "tanh"
        with pytest.raises(PlanUnsupported):
            PolicyPlan(policy)
        with pytest.raises(PlanUnsupported):
            PolicyPlan(ValueNetwork(8, hidden_dim=16, num_blocks=1, rng=5))


@pytest.mark.parametrize("width", [1, 3, 7, 8, 9, 16, 127, 128, 129, 256, 1000])
def test_row_mean_is_ndarray_mean_bit_for_bit(width):
    rng = np.random.default_rng(width)
    for shape in ((width,), (4, width), (2, 5, width)):
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)
        want = x.mean(axis=-1, keepdims=True)
        got = row_mean(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
