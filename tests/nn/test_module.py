"""Module base: registration, state dicts, copy."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter, Sequential


class _Net(Module):
    def __init__(self):
        super().__init__()
        self.fc = Linear(2, 3, rng=0)
        self.scale = Parameter(np.ones(3))

    def forward(self, x):
        return self.fc(x) * self.scale


class TestRegistration:
    def test_named_parameters_depth_first(self):
        names = [n for n, _ in _Net().named_parameters()]
        assert names == ["scale", "fc.weight", "fc.bias"]

    def test_num_parameters(self):
        assert _Net().num_parameters() == 2 * 3 + 3 + 3

    def test_nested_modules(self):
        net = Sequential(_Net(), _Net())
        assert len(net.parameters()) == 6


class TestStateDict:
    def test_roundtrip(self):
        a, b = _Net(), _Net()
        b.fc.weight.data[...] = 7.0
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(b.fc.weight.data, a.fc.weight.data)

    def test_state_dict_is_copy(self):
        net = _Net()
        state = net.state_dict()
        state["scale"][...] = 99.0
        assert net.scale.data[0] == 1.0

    def test_missing_key_raises(self):
        net = _Net()
        state = net.state_dict()
        del state["scale"]
        with pytest.raises(KeyError, match="missing"):
            net.load_state_dict(state)

    def test_unexpected_key_raises(self):
        net = _Net()
        state = net.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        net = _Net()
        state = net.state_dict()
        state["scale"] = np.zeros(7)
        with pytest.raises(ValueError, match="shape"):
            net.load_state_dict(state)


class TestZeroGrad:
    def test_clears_all(self):
        net = _Net()
        from repro.autograd.tensor import Tensor

        net(Tensor(np.ones((2, 2)))).sum().backward()
        assert net.fc.weight.grad is not None
        net.zero_grad()
        assert net.fc.weight.grad is None
