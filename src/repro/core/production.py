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

from repro.core.env import encode_state, threads_from_action
from repro.core.networks import PolicyNetwork
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
        # Compiled zero-Tensor inference plan (repro.nn.plan): production
        # proposals and GuardedController wrapping all query through here.
        self._plan = PolicyPlan(policy)

    def propose(self, observation: Observation) -> tuple[int, int, int]:
        """One §IV-F step: state → sample → round → clamp.

        Probe dropouts (NaN throughputs) and degenerate buffer reports
        (zero/NaN capacities) must not reach the policy net: NaN propagates
        through every layer and the Gaussian head turns it into NaN thread
        counts.  So the observation is sanitized before it is encoded —
        free space defaults to "buffer empty" when unreported — and the
        state's NaNs become 0 and its infinities 1 or 0.
        """
        obs = observation
        sender_capacity = obs.sender_capacity if obs.sender_capacity > 0 else 1.0
        receiver_capacity = obs.receiver_capacity if obs.receiver_capacity > 0 else 1.0
        sender_free = obs.sender_free if np.isfinite(obs.sender_free) else sender_capacity
        receiver_free = obs.receiver_free if np.isfinite(obs.receiver_free) else receiver_capacity
        state = encode_state(
            obs.threads, obs.throughputs, sender_free, receiver_free,
            self.max_threads, self.throughput_scale, sender_capacity, receiver_capacity,
        )
        action, _ = self._plan.act(
            np.nan_to_num(state, nan=0.0, posinf=1.0, neginf=0.0), self.rng,
            deterministic=self.deterministic, want_log_prob=False,
        )
        return threads_from_action(action, self.max_threads, self.action_mode)

    def reset(self) -> None:
        """The controller is stateless between transfers."""
