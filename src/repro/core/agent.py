"""The AutoMDT facade: explore → train offline → deploy.

One object wires the full pipeline of Fig. 2 together:

>>> automdt = AutoMDT(seed=7)
>>> profile = automdt.explore(testbed, duration=60)      # §IV-A logging run
>>> result = automdt.train_offline()                     # Algorithm 2 in the
...                                                      # Algorithm-1 simulator
>>> controller = automdt.controller()                    # §IV-F production
>>> ModularTransferEngine(testbed, dataset, controller).run()
"""

from __future__ import annotations

from pathlib import Path

from repro import obs
from repro.core.checkpoint import CheckpointMeta, load_checkpoint, save_checkpoint
from repro.core.env import SimulatorEnv
from repro.core.exploration import ExplorationProfile, run_exploration
from repro.core.ppo import PPOAgent, PPOConfig
from repro.core.production import AutoMDTController
from repro.core.training import TrainingConfig, TrainingResult, train
from repro.core.utility import DEFAULT_K, UtilityFunction
from repro.emulator.testbed import Testbed
from repro.utils.errors import ConfigError
from repro.utils.rng import RngFactory


class AutoMDT:
    """End-to-end AutoMDT pipeline.

    Parameters
    ----------
    k:
        Utility penalty base (paper fixes 1.02).
    ppo_config, training_config:
        Hyper-parameters; defaults are the scaled-down profiles described in
        EXPERIMENTS.md.  ``TrainingConfig(max_episodes=30000,
        stagnation_episodes=1000)`` reproduces the paper-scale budget.
    action_mode:
        ``"normalized"`` (default) or ``"direct"`` — see
        :mod:`repro.core.env`.
    """

    def __init__(
        self,
        *,
        k: float = DEFAULT_K,
        ppo_config: PPOConfig | None = None,
        training_config: TrainingConfig | None = None,
        action_mode: str = "normalized",
        seed: int = 0,
    ) -> None:
        self.utility = UtilityFunction(k)
        self.ppo_config = ppo_config or PPOConfig()
        self.training_config = training_config or TrainingConfig()
        self.action_mode = action_mode
        self._rngs = RngFactory(seed)
        self.profile: ExplorationProfile | None = None
        self.agent: PPOAgent | None = None
        self.training_result: TrainingResult | None = None

    # ------------------------------------------------------------ exploration
    def explore(self, testbed: Testbed, *, duration: float = 600.0) -> ExplorationProfile:
        """Run the §IV-A random-threads logging phase on ``testbed``."""
        with obs.span("pipeline/exploration", duration=duration):
            self.profile = run_exploration(
                testbed, duration=duration, rng=self._rngs.stream("exploration")
            )
        return self.profile

    def set_profile(self, profile: ExplorationProfile) -> None:
        """Install a previously-measured (or synthetic) exploration profile."""
        self.profile = profile

    # --------------------------------------------------------------- training
    def make_training_env(self, **env_kwargs) -> SimulatorEnv:
        """The offline-training environment seeded from the profile."""
        if self.profile is None:
            raise ConfigError("run explore() or set_profile() before training")
        return SimulatorEnv.from_profile(
            self.profile,
            utility=self.utility,
            episode_steps=self.training_config.steps_per_episode,
            action_mode=self.action_mode,
            rng=self._rngs.stream("env"),
            **env_kwargs,
        )

    def train_offline(self, env: SimulatorEnv | None = None) -> TrainingResult:
        """Algorithm 2 in the Algorithm-1 simulator; keeps the best model."""
        with obs.span("pipeline/simulator-training"):
            env = env or self.make_training_env()
            self.agent = PPOAgent(
                env.state_dim, env.action_dim, self.ppo_config, rng=self._rngs.stream("agent")
            )
            self.training_result = train(
                self.agent,
                env,
                self.training_config,
                max_episode_reward=float(self.training_config.steps_per_episode),
            )
            # Production deploys the best checkpoint (§IV-F), not the last state.
            self.agent.load_state_dict(self.training_result.best_state)
        return self.training_result

    # -------------------------------------------------------------- deployment
    def controller(self, *, deterministic: bool = True) -> AutoMDTController:
        """Production controller over the trained policy (§IV-F)."""
        if self.agent is None or self.profile is None:
            raise ConfigError("train_offline() (or load()) must run before deployment")
        obs.event(
            "pipeline/deployment",
            deterministic=deterministic,
            max_threads=self.profile.max_threads,
        )
        return AutoMDTController(
            self.agent.policy,
            max_threads=self.profile.max_threads,
            throughput_scale=self.profile.bottleneck,
            action_mode=self.action_mode,
            deterministic=deterministic,
            rng=self._rngs.stream("production"),
        )

    # ------------------------------------------------------------- persistence
    def save(self, path: str | Path) -> None:
        """Persist weights + deployment metadata + profile."""
        if self.agent is None or self.profile is None:
            raise ConfigError("nothing to save: train_offline() first")
        meta = CheckpointMeta(
            max_threads=self.profile.max_threads,
            throughput_scale=self.profile.bottleneck,
            action_mode=self.action_mode,
            utility_k=self.utility.k,
        )
        save_checkpoint(path, self.agent, meta)
        import json

        Path(path).with_suffix(".profile.json").write_text(
            json.dumps(self.profile.to_dict(), indent=2)
        )

    def load(self, path: str | Path) -> None:
        """Restore a pipeline saved by :meth:`save`."""
        import json

        self.agent, meta = load_checkpoint(path, rng=self._rngs.stream("agent"))
        self.utility = UtilityFunction(meta.utility_k)
        self.action_mode = meta.action_mode
        profile_path = Path(path).with_suffix(".profile.json")
        if profile_path.exists():
            self.profile = ExplorationProfile.from_dict(json.loads(profile_path.read_text()))

    @property
    def max_reward(self) -> float:
        """Per-step ``R_max`` from the current profile."""
        if self.profile is None:
            raise ConfigError("no exploration profile available")
        return self.profile.max_reward(self.utility)
