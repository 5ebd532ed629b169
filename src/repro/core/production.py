"""The production thread-update loop, §IV-F.

During a real transfer AutoMDT loads the best offline checkpoint and keeps
interacting: the policy produces ``⟨μ, σ⟩``, an action is sampled from the
diagonal Gaussian, rounded to integers, clamped to ``[1, n_max]``, and the
triple is applied to the live transfer.  :class:`AutoMDTController`
implements exactly that against the
:class:`repro.transfer.engine.ModularTransferEngine` controller protocol.
"""

from __future__ import annotations

import numpy as np

from repro.core.networks import PolicyNetwork
from repro.core.utility import UtilityFunction
from repro.nn.plan import PolicyPlan
from repro.transfer.engine import Observation
from repro.utils.config import require_positive
from repro.utils.rng import as_generator


class AutoMDTController:
    """Trained policy driving a production transfer.

    Parameters
    ----------
    policy:
        The (trained) policy network; anything not built like a
        :class:`PolicyNetwork` raises :class:`repro.nn.plan.PlanUnsupported`.
    max_threads:
        Clamp bound ``n_max``.
    throughput_scale:
        Normalization constant for the throughput components of the state —
        use the bottleneck ``b`` from the exploration profile, exactly as
        during training.
    action_mode:
        Must match the environment convention the policy was trained with.
    deterministic:
        Use the Gaussian mean instead of sampling.  The paper samples, but
        only after full-scale training has annealed σ to near zero; at
        scaled-down budgets the checkpoint's σ is still large and sampling
        injects thread-count noise the paper's traces don't show.  The
        default (True) is therefore the budget-equivalent of the paper's
        converged-σ sampling; pass False to reproduce the literal §IV-F
        behaviour.
    """

    def __init__(
        self,
        policy: PolicyNetwork,
        *,
        max_threads: int,
        throughput_scale: float,
        action_mode: str = "normalized",
        deterministic: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        require_positive(max_threads, "max_threads")
        require_positive(throughput_scale, "throughput_scale")
        self.policy = policy
        self.max_threads = int(max_threads)
        self.throughput_scale = float(throughput_scale)
        self.action_mode = action_mode
        self.deterministic = deterministic
        self.rng = as_generator(rng)
        self.utility = UtilityFunction()
        # Compiled zero-Tensor inference plan (repro.nn.plan): production
        # proposals and GuardedController wrapping all query through here.
        self._plan = PolicyPlan(policy)

    def _state_from_observation(self, obs: Observation) -> np.ndarray:
        n = np.asarray(obs.threads, dtype=float) / self.max_threads
        t = np.asarray(obs.throughputs, dtype=float) / self.throughput_scale
        # Probe dropouts (NaN throughputs) and degenerate buffer reports
        # (zero/NaN capacities) must not reach the policy net: NaN propagates
        # through every layer and the Gaussian head turns it into NaN thread
        # counts.  Free space defaults to "buffer empty" when unreported.
        sender_capacity = obs.sender_capacity if obs.sender_capacity > 0 else 1.0
        receiver_capacity = obs.receiver_capacity if obs.receiver_capacity > 0 else 1.0
        sender_free = obs.sender_free if np.isfinite(obs.sender_free) else sender_capacity
        receiver_free = obs.receiver_free if np.isfinite(obs.receiver_free) else receiver_capacity
        buffers = np.array(
            [sender_free / sender_capacity, receiver_free / receiver_capacity]
        )
        state = np.concatenate([n, t, buffers])
        return np.nan_to_num(state, nan=0.0, posinf=1.0, neginf=0.0)

    def _action_to_threads(self, action: np.ndarray) -> tuple[int, int, int]:
        if self.action_mode == "normalized":
            raw = 1.0 + action * (self.max_threads - 1)
        else:
            raw = action
        threads = np.clip(np.round(raw), 1, self.max_threads).astype(int)
        return (int(threads[0]), int(threads[1]), int(threads[2]))

    def propose(self, observation: Observation) -> tuple[int, int, int]:
        """One §IV-F step: state → sample → round → clamp."""
        state = self._state_from_observation(observation)
        action, _ = self._plan.act(
            state, self.rng, deterministic=self.deterministic, want_log_prob=False
        )
        return self._action_to_threads(action)

    def reset(self) -> None:
        """The controller is stateless between transfers."""
