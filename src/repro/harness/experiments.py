"""The paper's experiments, one function per table/figure.

Every function accepts a ``fast`` flag: ``fast=True`` (default) uses the
scaled-down budgets documented in EXPERIMENTS.md so the whole suite runs on
one CPU core in minutes; ``fast=False`` uses paper-scale budgets.
Randomness is fully seeded; repeated calls with the same arguments return
identical numbers (training results additionally go through the artifact
cache, see :mod:`repro.harness.artifacts`).
"""

from __future__ import annotations

import numpy as np

from repro.baselines import GlobusController, MarlinController, StaticController
from repro.core.agent import AutoMDT
from repro.core.discrete import DiscreteActionAdapter, DiscretePPOAgent
from repro.core.env import SimulatorEnv, TestbedEnv
from repro.core.finetune import finetune_online
from repro.core.ppo import PPOAgent, PPOConfig
from repro.core.training import TrainingConfig, train
from repro.core.utility import UtilityFunction
from repro.emulator.presets import (
    fabric_ncsa_tacc,
    fig5_network_bottleneck,
    fig5_read_bottleneck,
    fig5_write_bottleneck,
)
from repro.emulator.testbed import Testbed, TestbedConfig
from repro.harness.artifacts import trained_automdt
from repro.harness.result import ExperimentResult
from repro.parallel.seeds import spawn_key
from repro.transfer.engine import EngineConfig, ModularTransferEngine, TransferResult
from repro.transfer.files import Dataset
from repro.utils.tables import render_table
from repro.utils.timeseries import TimeSeries
from repro.workloads import fig3_dataset, large_dataset, mixed_dataset

FAST_TRAINING = TrainingConfig(max_episodes=4000, stagnation_episodes=800)
PAPER_TRAINING = TrainingConfig(max_episodes=30000, stagnation_episodes=1000)


def _training_config(fast: bool) -> TrainingConfig:
    return FAST_TRAINING if fast else PAPER_TRAINING


#: Decision interval for gradient-estimating online optimizers (Marlin,
#: joint GD).  §IV: "we have to wait at least 3 to 5 seconds to get stable
#: metrics for that configuration" — finite-difference gradients on 1 s
#: probes are dominated by noise.  AutoMDT's policy does not estimate
#: gradients online, so it acts on 1 s probes.
GRADIENT_PROBE_INTERVAL = 3.0


def _run_transfer(
    testbed_config: TestbedConfig,
    dataset: Dataset,
    controller,
    *,
    seed: int,
    probe_noise: float = 0.02,
    max_seconds: float = 3600.0,
    utility: UtilityFunction | None = None,
    decision_interval: float = 1.0,
) -> TransferResult:
    testbed = Testbed(testbed_config, rng=seed)
    engine = ModularTransferEngine(
        testbed,
        dataset,
        controller,
        EngineConfig(
            max_seconds=max_seconds,
            probe_noise=probe_noise,
            seed=seed,
            decision_interval=decision_interval,
        ),
        utility_fn=utility or UtilityFunction(),
    )
    return engine.run()


# --------------------------------------------------------------------- Fig. 1
def experiment_figure1(*, fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 1: read/network/write throughputs are coupled through the buffers.

    Drives the read-bottleneck testbed through three regimes — balanced,
    read-over-provisioned (sender buffer fills, read throttles itself), and
    write-starved (receiver drains) — and records the per-stage throughput
    and buffer series that the figure sketches.
    """
    config = fig5_read_bottleneck()
    testbed = Testbed(config, rng=seed)
    phases = [((13, 7, 5), 20), ((28, 4, 5), 40), ((13, 7, 2), 30)]
    series = {
        name: TimeSeries(name)
        for name in ("t_read", "t_network", "t_write", "sender_fill", "receiver_fill")
    }
    t = 0.0
    for threads, duration in phases:
        for _ in range(duration):
            flows = testbed.advance(threads)
            t += 1.0
            series["t_read"].append(t, flows.throughput_read)
            series["t_network"].append(t, flows.throughput_network)
            series["t_write"].append(t, flows.throughput_write)
            series["sender_fill"].append(t, testbed.sender_buffer.fill_fraction)
            series["receiver_fill"].append(t, testbed.receiver_buffer.fill_fraction)

    # During the over-read phase the buffer fills and read falls back to the
    # drain rate — the central coupling the figure illustrates.
    overread_read_early = series["t_read"].mean(t_start=21, t_end=30)
    overread_read_late = series["t_read"].mean(t_start=50, t_end=60)
    summary = {
        "balanced_read_mbps": round(series["t_read"].mean(t_start=5, t_end=20), 1),
        "overread_initial_mbps": round(overread_read_early, 1),
        "overread_after_buffer_full_mbps": round(overread_read_late, 1),
        "sender_fill_at_60s": round(series["sender_fill"].values[59], 3),
        "coupling_demonstrated": bool(overread_read_late < overread_read_early * 0.8),
    }
    return ExperimentResult(
        name="figure1",
        summary=summary,
        series=series,
        notes=[
            "Over-provisioned read runs at device speed only until the sender "
            "buffer fills, then collapses to the network drain rate (Fig. 1 coupling)."
        ],
    )


# --------------------------------------------------------------------- Fig. 3
def experiment_figure3(*, fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 3: AutoMDT vs Marlin on NCSA→TACC, 100 × 1 GB.

    Paper: Marlin 74 s vs AutoMDT 44 s (~1.7x); AutoMDT reaches network
    concurrency 20 in ~7 s, Marlin reaches 14 only at ~62 s.
    """
    config = fabric_ncsa_tacc(noise_sigma=0.02)
    dataset = fig3_dataset()
    target_net = config.optimal_threads()[1]

    pipeline = trained_automdt(
        config, training_config=_training_config(fast), seed=seed
    )
    automdt_result = _run_transfer(
        config, dataset, pipeline.controller(), seed=seed, utility=pipeline.utility
    )
    marlin_result = _run_transfer(
        config,
        dataset,
        MarlinController(rng=seed),
        seed=seed,
        decision_interval=GRADIENT_PROBE_INTERVAL,
    )

    auto_reach = automdt_result.metrics.time_to_network_concurrency(target_net)
    marlin_reach = marlin_result.metrics.time_to_network_concurrency(target_net - 6)
    speedup = marlin_result.completion_time / automdt_result.completion_time
    summary = {
        "automdt_completion_s": round(automdt_result.completion_time, 1),
        "marlin_completion_s": round(marlin_result.completion_time, 1),
        "marlin_vs_automdt_ratio": round(speedup, 2),
        "automdt_time_to_net20_s": auto_reach,
        "marlin_time_to_net14_s": marlin_reach,
        "automdt_throughput_mbps": round(automdt_result.effective_throughput, 1),
        "marlin_throughput_mbps": round(marlin_result.effective_throughput, 1),
        "paper_ratio": 74 / 44,
    }
    series = {
        "automdt_net_threads": automdt_result.metrics.threads_network,
        "marlin_net_threads": marlin_result.metrics.threads_network,
        "automdt_write_tput": automdt_result.metrics.throughput_write,
        "marlin_write_tput": marlin_result.metrics.throughput_write,
    }
    table = render_table(
        ["tool", "completion (s)", "avg Mbps", f"reach net≈{target_net} (s)"],
        [
            ["AutoMDT", summary["automdt_completion_s"], summary["automdt_throughput_mbps"],
             auto_reach if auto_reach is not None else "never"],
            ["Marlin", summary["marlin_completion_s"], summary["marlin_throughput_mbps"],
             marlin_reach if marlin_reach is not None else "never"],
        ],
        title="Fig. 3 — NCSA→TACC, 100 x 1 GB",
    )
    return ExperimentResult("figure3", summary=summary, tables=[table], series=series)


# --------------------------------------------------------------------- Fig. 4
def experiment_figure4(*, fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 4: the discrete action space fails to converge.

    Trains three agents on the same simulator scenario and budget:

    * the continuous Gaussian agent (the paper's choice) — converges;
    * a **joint** categorical over all ``n_max³`` thread triples — the
      naive exponential action space the paper's §IV remark describes;
      this is the variant that fails;
    * a *factorized* categorical (one head per stage) — a smarter discrete
      design; its behaviour is reported as a reproduction finding.
    """
    from repro.core.discrete import JointDiscreteActionAdapter, JointDiscretePPOAgent
    from repro.simulator.config import SimulatorConfig

    # The fig5-read scenario with n_max = 20 keeps the joint space (8,000
    # actions) trainable in minutes on one core while staying exponential
    # relative to the 3 × 20 factorized one.
    sim_config = SimulatorConfig(
        tpt_read=80.0, tpt_network=160.0, tpt_write=200.0,
        bandwidth_read=1000.0, bandwidth_network=1000.0, bandwidth_write=1000.0,
        max_threads=20, label="figure4",
    )
    n_max = sim_config.max_threads

    episodes = 1200 if fast else 30000
    training = TrainingConfig(max_episodes=episodes, stagnation_episodes=episodes)

    cont_env = SimulatorEnv(sim_config, rng=seed)
    cont_agent = PPOAgent(config=PPOConfig(), rng=seed)
    cont = train(cont_agent, cont_env, training)

    joint_env = JointDiscreteActionAdapter(SimulatorEnv(sim_config, rng=seed), n_max)
    joint_agent = JointDiscretePPOAgent(max_threads=n_max, rng=seed)
    joint = train(joint_agent, joint_env, training)

    disc_env = DiscreteActionAdapter(SimulatorEnv(sim_config, rng=seed))
    disc_agent = DiscretePPOAgent(max_threads=n_max, rng=seed)
    disc = train(disc_agent, disc_env, training)

    def curve(result) -> TimeSeries:
        rewards = result.episode_rewards
        window = max(1, len(rewards) // 100)
        smooth = np.convolve(rewards, np.ones(window) / window, mode="valid")
        return TimeSeries("reward", [(float(i), float(v)) for i, v in enumerate(smooth)])

    def rolling_convergence(result, window: int = 100) -> int | None:
        """First episode where the *rolling-mean* reward crosses 90% R_max.

        Single-episode maxima are a noisy max statistic (a lucky random
        initialization can score high once even under a bad policy); the
        figure's notion of convergence is about the sustained level.
        """
        from repro.analysis.convergence import rolling_convergence_episode

        return rolling_convergence_episode(
            result.episode_rewards, 0.9 * result.max_episode_reward, window=window
        )

    summary = {
        "continuous_best_reward": round(cont.best_reward, 2),
        "joint_discrete_best_reward": round(joint.best_reward, 2),
        "factorized_discrete_best_reward": round(disc.best_reward, 2),
        "continuous_rolling_convergence": rolling_convergence(cont),
        "joint_discrete_rolling_convergence": rolling_convergence(joint),
        "factorized_discrete_rolling_convergence": rolling_convergence(disc),
        "continuous_tail_mean": round(float(cont.episode_rewards[-200:].mean()), 2),
        "joint_discrete_tail_mean": round(float(joint.episode_rewards[-200:].mean()), 2),
        "factorized_discrete_tail_mean": round(float(disc.episode_rewards[-200:].mean()), 2),
        "max_episode_reward": cont.max_episode_reward,
    }
    return ExperimentResult(
        "figure4",
        summary=summary,
        series={
            "continuous_reward": curve(cont),
            "joint_discrete_reward": curve(joint),
            "factorized_discrete_reward": curve(disc),
        },
        notes=[
            "Paper §V-A claims 'the discrete action space failed miserably'. "
            "NOT REPRODUCED at tractable scales: with batched, advantage-"
            "normalized PPO updates, both discrete designs (factorized and "
            "even the joint n_max³ space at n_max=20) converge — often "
            "faster than the continuous agent, whose sampled σ keeps "
            "injecting reward noise. The paper's observation is plausibly "
            "an artifact of its one-update-per-episode training regime "
            "and/or a larger joint space; see EXPERIMENTS.md.",
        ],
    )


# --------------------------------------------------------------------- Fig. 5
_FIG5_SCENARIOS = {
    "read": (fig5_read_bottleneck, "§V-B1 col 1: throttles (80,160,200) Mbps"),
    "network": (fig5_network_bottleneck, "§V-B1 col 2: throttles (205,75,195) Mbps"),
    "write": (fig5_write_bottleneck, "§V-B1 col 3: throttles (200,150,70) Mbps"),
}


def experiment_figure5(
    scenario: str = "read", *, fast: bool = True, seed: int = 0, dataset_gb: float = 25.0
) -> ExperimentResult:
    """Fig. 5: bottleneck scenarios — AutoMDT vs Marlin concurrency traces.

    For the requested bottleneck the paper reports AutoMDT reaching the
    optimal stream count within a few seconds while Marlin takes tens of
    seconds and keeps fluctuating, so AutoMDT finishes earlier.
    """
    if scenario not in _FIG5_SCENARIOS:
        raise ValueError(f"scenario must be one of {sorted(_FIG5_SCENARIOS)}")
    factory, description = _FIG5_SCENARIOS[scenario]
    config = factory()
    optimal = config.optimal_threads()
    stage_index = {"read": 0, "network": 1, "write": 2}[scenario]
    target = optimal[stage_index]
    from repro.transfer.files import uniform_dataset

    dataset = uniform_dataset(int(dataset_gb), 1e9, name=f"fig5-{scenario}")

    pipeline = trained_automdt(config, training_config=_training_config(fast), seed=seed)
    auto = _run_transfer(config, dataset, pipeline.controller(), seed=seed,
                         utility=pipeline.utility)
    marlin = _run_transfer(
        config, dataset, MarlinController(rng=seed), seed=seed,
        decision_interval=GRADIENT_PROBE_INTERVAL,
    )

    stage_series = ("threads_read", "threads_network", "threads_write")[stage_index]
    auto_reach = getattr(auto.metrics, stage_series).time_to_reach(target, sustain=3)
    marlin_reach = getattr(marlin.metrics, stage_series).time_to_reach(target - 1, sustain=3)

    summary = {
        "scenario": scenario,
        "optimal_threads": optimal,
        "automdt_completion_s": round(auto.completion_time, 1),
        "marlin_completion_s": round(marlin.completion_time, 1),
        "automdt_finishes_earlier_s": round(marlin.completion_time - auto.completion_time, 1),
        f"automdt_reach_{scenario}{target}_s": auto_reach,
        f"marlin_reach_{scenario}{target - 1}_s": marlin_reach,
        "automdt_stability_std": round(auto.metrics.stability(stage_series, t_start=10), 2),
        "marlin_stability_std": round(marlin.metrics.stability(stage_series, t_start=10), 2),
        "automdt_mean_total_threads": round(auto.metrics.concurrency_cost(), 1),
        "marlin_mean_total_threads": round(marlin.metrics.concurrency_cost(), 1),
    }
    series = {
        "automdt_bottleneck_threads": getattr(auto.metrics, stage_series),
        "marlin_bottleneck_threads": getattr(marlin.metrics, stage_series),
        "automdt_write_tput": auto.metrics.throughput_write,
        "marlin_write_tput": marlin.metrics.throughput_write,
    }
    table = render_table(
        ["tool", "completion (s)", f"reach {scenario}*{target} (s)", "stability σ", "mean Σthreads"],
        [
            ["AutoMDT", summary["automdt_completion_s"],
             auto_reach if auto_reach is not None else "never",
             summary["automdt_stability_std"], summary["automdt_mean_total_threads"]],
            ["Marlin", summary["marlin_completion_s"],
             marlin_reach if marlin_reach is not None else "never",
             summary["marlin_stability_std"], summary["marlin_mean_total_threads"]],
        ],
        title=f"Fig. 5 ({scenario} bottleneck) — {description}",
    )
    return ExperimentResult(f"figure5_{scenario}", summary=summary, tables=[table], series=series)


# -------------------------------------------------------------------- Table I
def experiment_table1(
    *, fast: bool = True, seed: int = 0, dataset_scale: float | None = None
) -> ExperimentResult:
    """Table I: end-to-end transfer speed, Globus vs Marlin vs AutoMDT.

    Paper (Mbps): Large 3,652.2 / 18,066.8 / 23,988.0; Mixed 2,325.9 /
    13,721.5 / 16,915.8 — AutoMDT 6.57x/1.33x (Large) and 7.28x/1.23x
    (Mixed) over Globus/Marlin.
    """
    scale = dataset_scale if dataset_scale is not None else (0.1 if fast else 1.0)
    config = fabric_ncsa_tacc(noise_sigma=0.02)
    datasets = {
        "A (Large)": large_dataset(total_bytes=1e12 * scale),
        "B (Mixed)": mixed_dataset(total_bytes=1e12 * scale, rng=seed),
    }
    pipeline = trained_automdt(config, training_config=_training_config(fast), seed=seed)

    rows = []
    measured: dict[str, dict[str, float]] = {}
    for ds_name, dataset in datasets.items():
        speeds = {}
        for tool, controller, interval in (
            ("Globus", GlobusController(), 1.0),
            ("Marlin", MarlinController(rng=seed), GRADIENT_PROBE_INTERVAL),
            ("AutoMDT", pipeline.controller(), 1.0),
        ):
            result = _run_transfer(
                config, dataset, controller, seed=seed, max_seconds=36000.0,
                utility=pipeline.utility, decision_interval=interval,
            )
            speeds[tool] = result.effective_throughput
        measured[ds_name] = speeds
        rows.append(
            [ds_name, f"{dataset.total_bytes / 1e12:.2f} TB",
             round(speeds["Globus"], 1), round(speeds["Marlin"], 1),
             round(speeds["AutoMDT"], 1)]
        )

    large, mixed = measured["A (Large)"], measured["B (Mixed)"]
    summary = {
        "large_speed_mbps": {k: round(v, 1) for k, v in large.items()},
        "mixed_speed_mbps": {k: round(v, 1) for k, v in mixed.items()},
        "large_automdt_vs_globus": round(large["AutoMDT"] / large["Globus"], 2),
        "large_automdt_vs_marlin": round(large["AutoMDT"] / large["Marlin"], 2),
        "mixed_automdt_vs_globus": round(mixed["AutoMDT"] / mixed["Globus"], 2),
        "mixed_automdt_vs_marlin": round(mixed["AutoMDT"] / mixed["Marlin"], 2),
        "paper_large_ratios": (6.57, 1.33),
        "paper_mixed_ratios": (7.28, 1.23),
        "dataset_scale": scale,
    }
    table = render_table(
        ["Dataset", "Total Size", "Globus", "Marlin", "AutoMDT"],
        rows,
        title="Table I — end-to-end transfer speed (Mbps)",
    )
    return ExperimentResult("table1", summary=summary, tables=[table])


# ------------------------------------------------------------------- Training
def experiment_training(*, fast: bool = True, seed: int = 0) -> ExperimentResult:
    """§V-A: offline training cost vs hypothetical online training.

    The paper: ~45 min offline (simulator) vs ~7 days online; ~20,150
    episodes to convergence; online training would burn ≈5.6 PB on a
    100 Gbps link.
    """
    config = fabric_ncsa_tacc()
    stats: dict = {}

    def capture(pipeline: AutoMDT) -> None:
        stats["result"] = pipeline.training_result

    pipeline = trained_automdt(
        config,
        training_config=_training_config(fast),
        seed=seed,
        force_retrain=True,
        on_train=capture,
    )
    result = stats["result"]
    online_seconds = result.episodes_run * result.steps_per_episode * 3.0
    bottleneck_mbps = pipeline.profile.bottleneck
    online_bytes = online_seconds * bottleneck_mbps * 1e6 / 8.0
    summary = {
        "episodes_run": result.episodes_run,
        "convergence_episode": result.convergence_episode,
        "converged": result.converged,
        "best_reward": round(result.best_reward, 2),
        "max_episode_reward": result.max_episode_reward,
        "offline_wall_seconds": round(result.wall_seconds, 1),
        "online_equivalent_seconds": round(online_seconds),
        "online_equivalent_days": round(online_seconds / 86400.0, 2),
        "offline_speedup_x": round(online_seconds / max(result.wall_seconds, 1e-9)),
        "online_wasted_bytes_tb": round(online_bytes / 1e12, 2),
    }
    return ExperimentResult(
        "training",
        summary=summary,
        notes=[
            "Offline simulator training replaces days of online exploration; "
            "the online estimate uses the paper's 3 s per iteration.",
        ],
    )


# ------------------------------------------------------------------ Fine-tune
def experiment_finetune(*, fast: bool = True, seed: int = 0) -> ExperimentResult:
    """§V-C: online fine-tuning gains ≈1% concurrency at equal speed."""
    config = fig5_read_bottleneck()
    pipeline = trained_automdt(config, training_config=_training_config(fast), seed=seed)
    env = TestbedEnv(
        Testbed(config, rng=seed + 1),
        utility=pipeline.utility,
        rng=seed + 1,
    )
    episodes = 120 if fast else 120  # the paper's budget
    comparison = finetune_online(pipeline.agent, env, episodes=episodes)
    summary = {
        "base_mean_reward": round(comparison.base_mean_reward, 3),
        "tuned_mean_reward": round(comparison.tuned_mean_reward, 3),
        "reward_change_pct": round(100 * comparison.reward_change, 2),
        "base_mean_concurrency": round(comparison.base_mean_concurrency, 1),
        "tuned_mean_concurrency": round(comparison.tuned_mean_concurrency, 1),
        "concurrency_reduction_pct": round(100 * comparison.concurrency_reduction, 2),
        "paper_concurrency_reduction_pct": 1.0,
    }
    return ExperimentResult(
        "finetune",
        summary=summary,
        notes=["Paper: fine-tuned model used ~1% less concurrency at the same speed."],
    )


# ------------------------------------------------------------- parallelism
def experiment_parallelism(*, fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Extension: intra-file parallelism vs the straggler tail.

    Related work ([14], [45]) tunes per-file TCP parallelism alongside
    concurrency; the paper's modular design tunes stream *counts* only.
    This experiment shows why parallelism exists: with few large files the
    last file drains at single-stream speed, and splitting files into ``p``
    segments recovers the lost bandwidth — until per-segment overheads bite
    on small files.
    """
    from repro.baselines import StaticController
    from repro.transfer.filelevel import FileLevelConfig, FileLevelEngine
    from repro.transfer.files import uniform_dataset

    config = fig5_read_bottleneck()
    optimal = config.optimal_threads()
    straggler_set = uniform_dataset(14, 2e9, name="stragglers")  # 14 files, 13 readers
    small_set = uniform_dataset(2800, 1e7, name="small")  # same bytes, 10 MB files

    sweep: dict[int, float] = {}
    rows = []
    for p in (1, 2, 4, 8):
        result = FileLevelEngine(
            config, straggler_set, StaticController(optimal), FileLevelConfig(parallelism=p)
        ).run()
        sweep[p] = result.effective_throughput
        rows.append(["14 x 2 GB", p, round(result.effective_throughput, 1),
                     round(result.completion_time, 1)])
    small_p1 = FileLevelEngine(
        config, small_set, StaticController(optimal), FileLevelConfig(parallelism=1)
    ).run()
    small_p8 = FileLevelEngine(
        config, small_set, StaticController(optimal), FileLevelConfig(parallelism=8)
    ).run()
    rows.append(["2800 x 10 MB", 1, round(small_p1.effective_throughput, 1),
                 round(small_p1.completion_time, 1)])
    rows.append(["2800 x 10 MB", 8, round(small_p8.effective_throughput, 1),
                 round(small_p8.completion_time, 1)])

    summary = {
        "straggler_mbps_by_p": {str(p): round(v, 1) for p, v in sweep.items()},
        "p8_vs_p1_speedup": round(sweep[8] / sweep[1], 2),
        "small_files_p1_mbps": round(small_p1.effective_throughput, 1),
        "small_files_p8_mbps": round(small_p8.effective_throughput, 1),
        "small_files_p8_helps": bool(
            small_p8.effective_throughput > small_p1.effective_throughput * 1.02
        ),
    }
    table = render_table(
        ["dataset", "parallelism p", "Mbps", "completion (s)"],
        rows,
        title="intra-file parallelism vs the straggler tail",
    )
    return ExperimentResult(
        "parallelism",
        summary=summary,
        tables=[table],
        notes=["Splitting files across streams recovers straggler bandwidth; "
               "small files gain little (per-segment overhead dominates)."],
    )


# -------------------------------------------------------------- online DRL
def experiment_online_drl(*, fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Offline-trained AutoMDT vs the online-learning DRL predecessor [17].

    The paper's headline "up to 8× faster convergence" is against online
    optimizers: a single-parameter DRL agent that must *explore during the
    transfer* (Hasibul et al. needed ~28 h of online training per link).
    Here both run the same transfer; we measure how long each needs to
    first sustain ≥90% of the bottleneck bandwidth.
    """
    from repro.baselines import OnlineDRLController
    from repro.transfer.files import uniform_dataset

    config = fig5_read_bottleneck()
    bottleneck = config.bottleneck_bandwidth
    dataset = uniform_dataset(40 if fast else 200, 1e9, name="online-drl")

    pipeline = trained_automdt(config, training_config=_training_config(fast), seed=seed)
    auto = _run_transfer(
        config, dataset, pipeline.controller(), seed=seed, utility=pipeline.utility
    )
    online = _run_transfer(
        config,
        dataset,
        OnlineDRLController(
            max_threads=config.max_threads,
            throughput_scale=bottleneck,
            rng=seed,
        ),
        seed=seed,
        max_seconds=36000.0,
    )

    target = 0.9 * bottleneck
    auto_reach = auto.metrics.throughput_write.time_to_reach(target, sustain=5)
    online_reach = online.metrics.throughput_write.time_to_reach(target, sustain=5)
    speedup = (
        round(online_reach / auto_reach, 1)
        if auto_reach is not None and online_reach is not None
        else None
    )
    summary = {
        "bottleneck_mbps": bottleneck,
        "automdt_time_to_90pct_s": auto_reach,
        "online_drl_time_to_90pct_s": online_reach,
        "utilization_speedup_x": speedup,
        "automdt_completion_s": round(auto.completion_time, 1),
        "online_drl_completion_s": round(online.completion_time, 1),
        "paper_claim": "up to 8x faster convergence",
    }
    table = render_table(
        ["tool", "reach 90% util (s)", "completion (s)"],
        [
            ["AutoMDT (offline-trained)",
             auto_reach if auto_reach is not None else "never",
             summary["automdt_completion_s"]],
            ["online single-param DRL [17]",
             online_reach if online_reach is not None else "never",
             summary["online_drl_completion_s"]],
        ],
        title="offline vs online DRL — convergence during a live transfer",
    )
    return ExperimentResult("online_drl", summary=summary, tables=[table])


# ------------------------------------------------------------- file latency
def experiment_filelevel(*, fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Beyond the paper: per-file latency on the chunk-granular data plane.

    The paper reports only aggregate Mbps; the file-level engine exposes the
    per-file completion distribution, making the Mixed-dataset penalty and
    the straggler tail visible directly.  Compares the modular optimum
    against Globus's static monolithic configuration on both workloads.
    """
    from repro.baselines import StaticController
    from repro.transfer.filelevel import FileLevelEngine

    config = fabric_ncsa_tacc()
    optimal = config.optimal_threads()
    scale = 0.05 if fast else 1.0
    datasets = {
        "large": large_dataset(total_bytes=1e12 * scale),
        "mixed": mixed_dataset(total_bytes=1e12 * scale, rng=seed),
    }
    rows = []
    summary: dict = {"optimal_threads": optimal, "dataset_scale": scale}
    for ds_name, dataset in datasets.items():
        for tool, controller in (
            ("modular-optimal", StaticController(optimal)),
            ("globus", GlobusController()),
        ):
            result = FileLevelEngine(config, dataset, controller).run()
            q = result.file_latency_quantiles((0.5, 0.9, 0.99))
            rows.append(
                [ds_name, tool, round(result.effective_throughput, 1),
                 round(q[0.5], 1), round(q[0.9], 1), round(q[0.99], 1)]
            )
            summary[f"{ds_name}_{tool.replace('-', '_')}_mbps"] = round(
                result.effective_throughput, 1
            )
            summary[f"{ds_name}_{tool.replace('-', '_')}_p99_s"] = round(q[0.99], 1)
    table = render_table(
        ["dataset", "tool", "Mbps", "p50 (s)", "p90 (s)", "p99 (s)"],
        rows,
        title="file-level engine — per-file completion latency",
    )
    return ExperimentResult(
        "filelevel",
        summary=summary,
        tables=[table],
        notes=[
            "Per-file latency from the chunk-granular engine; the fluid "
            "testbed cannot resolve these distributions."
        ],
    )


# ------------------------------------------------------------------- faults
def _fault_schedule(fault: str, seed: int, horizon: float):
    """Fresh schedule per run — schedules carry restart state."""
    from repro.emulator.faults import (
        FaultSchedule,
        LinkFlap,
        ProbeDropout,
        ReceiverRestart,
        ReportLoss,
        StorageStall,
    )

    builders = {
        "link_flap": lambda: FaultSchedule([LinkFlap(start=10.0, duration=8.0)]),
        "storage_stall": lambda: FaultSchedule(
            [StorageStall(start=10.0, duration=20.0, stage="read")]
        ),
        "receiver_restart": lambda: FaultSchedule([ReceiverRestart(at=15.0)]),
        "probe_dropout": lambda: FaultSchedule([ProbeDropout(start=8.0, duration=15.0)]),
        "report_loss": lambda: FaultSchedule([ReportLoss(start=5.0, duration=30.0)]),
        "random": lambda: FaultSchedule.random(seed, horizon=horizon * 0.5),
    }
    if fault not in builders:
        raise ValueError(f"fault must be one of {sorted(builders)}")
    return builders[fault]()


def experiment_faults(fault: str = "link_flap", *, fast: bool = True, seed: int = 0):
    """Robustness extension: supervised vs unsupervised engines under faults.

    For each fault class (see :mod:`repro.emulator.faults`) the same seeded
    schedule is injected into two identical testbeds: one driven by the bare
    engine, one by :class:`~repro.transfer.supervisor.TransferSupervisor`
    (for ``probe_dropout`` the supervised side additionally wraps its
    controller in :class:`~repro.transfer.guarded.GuardedController`).
    Connection-killing faults (link flap, receiver restart) hang the bare
    engine until ``max_seconds``; the supervisor detects the stall, backs
    off, and resumes from checkpoint without re-transferring completed
    bytes.
    """
    from repro.transfer.guarded import GuardedController
    from repro.transfer.files import uniform_dataset
    from repro.transfer.supervisor import SupervisorConfig, TransferSupervisor

    config = fig5_read_bottleneck()
    optimal = config.optimal_threads()
    dataset = uniform_dataset(5 if fast else 25, 1e9, name=f"faults-{fault}")
    max_seconds = 240.0 if fast else 900.0

    def make_controller():
        if fault == "probe_dropout":
            # An (untrained) policy controller: the realistic victim of NaN
            # probe readings; training is irrelevant to the robustness claim.
            from repro.core.networks import PolicyNetwork
            from repro.core.production import AutoMDTController

            return AutoMDTController(
                PolicyNetwork(8, 3, hidden_dim=32, num_blocks=1, rng=seed),
                max_threads=config.max_threads,
                throughput_scale=config.bottleneck_bandwidth,
                deterministic=True,
                rng=seed,
            )
        return StaticController(optimal)

    def make_engine(controller):
        testbed = Testbed(config, rng=seed, faults=_fault_schedule(fault, seed, max_seconds))
        return ModularTransferEngine(
            testbed,
            dataset,
            controller,
            EngineConfig(max_seconds=max_seconds, probe_noise=0.02, seed=seed),
        )

    unsupervised = make_engine(make_controller()).run()

    supervised_controller = make_controller()
    guard = None
    if fault == "probe_dropout":
        guard = GuardedController(supervised_controller, max_threads=config.max_threads)
        supervised_controller = guard
    supervised = TransferSupervisor(
        make_engine(supervised_controller), SupervisorConfig(seed=seed)
    ).run()

    recoveries = supervised.metrics.recoveries
    summary = {
        "fault": fault,
        "unsupervised_completed": unsupervised.completed,
        "unsupervised_timed_out": unsupervised.timed_out,
        "unsupervised_time_s": round(unsupervised.completion_time, 1),
        "unsupervised_bytes_gb": round(unsupervised.bytes_transferred / 1e9, 3),
        "supervised_completed": supervised.completed,
        "supervised_time_s": round(supervised.completion_time, 1),
        "supervised_attempts": len(supervised.attempts),
        "supervised_retries": supervised.retries_used,
        "incidents_detected": len(supervised.metrics.fault_events),
        "incidents_recovered": len(recoveries),
        "mean_time_to_detect_s": round(
            float(np.mean([e.time_to_detect for e in supervised.metrics.fault_events])), 2
        )
        if supervised.metrics.fault_events
        else None,
        "mean_time_to_recover_s": round(
            float(np.mean([r.time_to_recover for r in recoveries])), 2
        )
        if recoveries
        else None,
        "goodput_lost_mb": round(sum(r.goodput_lost_bytes for r in recoveries) / 1e6, 1),
        "guard_degraded_intervals": guard.degraded_intervals if guard is not None else 0,
        "supervised_budget_exhausted": supervised.budget_exhausted,
    }
    table = render_table(
        ["engine", "completed", "time (s)", "bytes (GB)", "retries"],
        [
            ["unsupervised", unsupervised.completed, summary["unsupervised_time_s"],
             summary["unsupervised_bytes_gb"], 0],
            ["supervised", supervised.completed, summary["supervised_time_s"],
             round(supervised.total_bytes / 1e9, 3) if supervised.completed
             else round(supervised.attempts[-1].end_bytes / 1e9, 3),
             supervised.retries_used],
        ],
        title=f"fault injection — {fault}",
    )
    series = {
        "unsupervised_bytes_written": unsupervised.metrics.bytes_written,
        "supervised_bytes_written": supervised.metrics.bytes_written,
        "supervised_threads_network": supervised.metrics.threads_network,
    }
    return ExperimentResult(
        f"faults_{fault}",
        summary=summary,
        tables=[table],
        series=series,
        notes=[
            "Connection-killing faults (link_flap, receiver_restart) hang the "
            "bare engine on dead connections / lost staged bytes; the supervisor "
            "detects the stall, backs off, and resumes from checkpoint without "
            "re-transferring completed bytes.",
        ],
    )


# ---------------------------------------------------------------- integrity
def experiment_integrity(*, fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Robustness extension: end-to-end integrity under data-plane faults.

    Injects silent data damage — in-flight and at-rest
    :class:`~repro.emulator.faults.DataCorruption`, a
    :class:`~repro.emulator.faults.TornWrite` and a
    :class:`~repro.emulator.faults.SilentTruncation` — that no byte count
    ever reflects, then compares a checkpoint-trusting supervised transfer
    against :class:`~repro.transfer.integrity.VerifiedTransfer` on the
    same seeded schedule.  The supervisor alone reports success with a
    damaged destination; the verified transfer detects every bad chunk,
    re-transfers only those, and ends with all manifest digests matching.
    """
    import tempfile

    from repro.emulator.faults import (
        DataCorruption,
        FaultSchedule,
        SilentTruncation,
        TornWrite,
    )
    from repro.transfer.files import uniform_dataset
    from repro.transfer.integrity import IntegrityConfig, VerifiedTransfer
    from repro.transfer.supervisor import SupervisorConfig, TransferSupervisor

    config = fig5_read_bottleneck()
    optimal = config.optimal_threads()
    dataset = uniform_dataset(5 if fast else 25, 1e9, name="integrity")
    max_seconds = 600.0 if fast else 1800.0

    def fault_schedule():
        return FaultSchedule(
            [
                DataCorruption(start=5.0, duration=15.0, rate=0.25, site="network"),
                DataCorruption(start=25.0, duration=1.0, rate=0.15, site="storage"),
                TornWrite(at=12.0),
                SilentTruncation(at=20.0, chunks=2),
            ]
        )

    def make_supervisor():
        testbed = Testbed(config, rng=seed, faults=fault_schedule())
        engine = ModularTransferEngine(
            testbed,
            dataset,
            StaticController(optimal),
            EngineConfig(max_seconds=max_seconds, probe_noise=0.02, seed=seed),
        )
        return TransferSupervisor(engine, SupervisorConfig(seed=seed))

    # Baseline: supervision without verification trusts every counted byte.
    # Its ledger exists only to *measure* the damage it cannot see.
    baseline_sup = make_supervisor()
    with tempfile.TemporaryDirectory() as tmp:
        baseline_vt = VerifiedTransfer.for_supervisor(
            baseline_sup, tmp, IntegrityConfig(chunk_size=64e6, seed=seed)
        )
        baseline_vt.ledger.begin_pass(
            range(len(baseline_vt.manifest)), start_bytes=0.0
        )
        baseline = baseline_sup.run(
            observer=lambda o: baseline_vt.ledger.sync(
                o.bytes_written_total, o.elapsed
            )
        )
        if baseline.attempts:
            baseline_vt.ledger.sync(
                baseline.attempts[-1].end_bytes, baseline.completion_time
            )
        baseline_bad = baseline_vt.ledger.verify()
        baseline_vt.journal.close()

        verified_sup = make_supervisor()
        verified_vt = VerifiedTransfer.for_supervisor(
            verified_sup, tmp + "-verified", IntegrityConfig(chunk_size=64e6, seed=seed)
        )
        result = verified_vt.run()
        verified_vt.journal.close()

    summary = {
        "supervised_completed": baseline.completed,
        "supervised_claims_success": bool(baseline.completed),
        "supervised_bad_chunks": len(baseline_bad),
        "supervised_time_s": round(baseline.completion_time, 1),
        "verified": result.verified,
        "verified_completed": result.completed,
        "verified_time_s": round(result.supervised.completion_time, 1),
        "chunks_total": result.chunks_total,
        "chunks_resent": len(set(result.resent_chunk_ids)),
        "repair_rounds": result.repair_rounds,
        "verification_time_cost_s": round(
            result.supervised.completion_time - baseline.completion_time, 1
        ),
    }
    table = render_table(
        ["engine", "claims success", "bad chunks at dest", "time (s)"],
        [
            ["supervised (no verify)", baseline.completed, len(baseline_bad),
             summary["supervised_time_s"]],
            ["verified", result.completed, len(result.unrecovered_chunk_ids),
             summary["verified_time_s"]],
        ],
        title="end-to-end integrity — silent data damage",
    )
    return ExperimentResult(
        "integrity_corruption",
        summary=summary,
        tables=[table],
        notes=[
            "Data-plane faults never change a byte count, so the checkpoint-"
            "trusting supervisor reports success while the destination holds "
            "corrupt/torn/missing chunks; the verified transfer re-sends "
            "exactly the damaged chunks and ends fully verified.",
        ],
    )


# -------------------------------------------------------- baseline matrix
def experiment_baseline_matrix(
    scenario: str = "read", *, fast: bool = True, seed: int = 0
) -> ExperimentResult:
    """One bottleneck scenario × every controller family, on equal terms.

    The report's comparison rows come from here: AutoMDT, Marlin
    (univariate gradient probing), the joint multivariate
    gradient-descent baseline, and a monolithic single-knob controller
    all move the same dataset through the same seeded testbed.  Summary
    keys follow the ``<policy>_<measure>`` convention that ``automdt
    report`` parses (goodput / completion / mean threads / ramp time), so
    a sweep over the ``baselines_*`` experiments fully populates the
    policy × measure table from store queries alone.
    """
    from repro.baselines import MultivariateGDController
    from repro.transfer.files import uniform_dataset
    from repro.transfer.monolithic import MonolithicController

    if scenario not in _FIG5_SCENARIOS:
        raise ValueError(f"scenario must be one of {sorted(_FIG5_SCENARIOS)}")
    factory, description = _FIG5_SCENARIOS[scenario]
    config = factory()
    files = 4 if fast else 12
    dataset = uniform_dataset(files, 1e9, name=f"baselines-{scenario}")

    pipeline = trained_automdt(config, training_config=_training_config(fast), seed=seed)
    contenders = (
        ("automdt", pipeline.controller(), 1.0),
        ("marlin", MarlinController(rng=seed), GRADIENT_PROBE_INTERVAL),
        ("multivariate_gd", MultivariateGDController(rng=seed), GRADIENT_PROBE_INTERVAL),
        ("monolithic", MonolithicController(), 1.0),
    )

    ramp_target = 0.9 * config.bottleneck_bandwidth
    summary: dict = {"scenario": scenario}
    rows = []
    for policy, controller, interval in contenders:
        result = _run_transfer(
            config, dataset, controller, seed=seed,
            utility=pipeline.utility, decision_interval=interval,
        )
        reach = result.metrics.throughput_write.time_to_reach(ramp_target, sustain=5)
        summary[f"{policy}_throughput_mbps"] = round(result.effective_throughput, 1)
        summary[f"{policy}_completion_s"] = round(result.completion_time, 1)
        summary[f"{policy}_mean_threads"] = round(result.metrics.concurrency_cost(), 1)
        if reach is not None:
            summary[f"{policy}_reach_90pct_s"] = round(reach, 1)
        rows.append(
            [policy, summary[f"{policy}_throughput_mbps"],
             summary[f"{policy}_completion_s"], summary[f"{policy}_mean_threads"],
             round(reach, 1) if reach is not None else "never"]
        )

    table = render_table(
        ["policy", "goodput (Mbps)", "completion (s)", "mean Σthreads", "reach 90% (s)"],
        rows,
        title=f"baseline matrix ({scenario} bottleneck) — {description}",
    )
    return ExperimentResult(
        f"baselines_{scenario}", summary=summary, tables=[table],
        notes=[
            "Gradient-family controllers decide on 3 s probes "
            "(GRADIENT_PROBE_INTERVAL); AutoMDT and the monolithic baseline "
            "act on 1 s probes, matching the per-experiment conventions.",
        ],
    )


# -------------------------------------------------------------- adaptation
def experiment_adapt_drift(
    *, fast: bool = True, seed: int = 0, adapt: bool = False
) -> ExperimentResult:
    """Robustness extension: a frozen policy under WAN drift vs safe adaptation.

    A per-stream bandwidth ramp degrades the network path mid-transfer —
    the production scenario the paper's offline-trained, frozen deployment
    cannot answer.  The frozen supervised transfer completes (supervision
    still works) but at the drifted rate; with ``adapt=True`` (CLI:
    ``automdt run adapt_drift --adapt``) the same seeded scenario runs
    under an :class:`~repro.adapt.AdaptiveController`, which detects the
    drift, shadow-evaluates a bounded residual correction and recovers
    most of the lost throughput — or rolls back to guarded control if the
    correction regresses (see ``automdt soak --drift`` for the invariant
    suite).
    """
    from repro.adapt import AdaptConfig, AdaptiveController, SafetyEnvelope
    from repro.emulator.faults import BandwidthRamp, FaultSchedule
    from repro.transfer.files import uniform_dataset
    from repro.transfer.supervisor import SupervisorConfig, TransferSupervisor

    config = fig5_read_bottleneck()
    optimal = config.optimal_threads()
    rng = np.random.default_rng(spawn_key(seed, (31,)))
    onset = 18.0
    severity = float(rng.uniform(0.35, 0.5))
    dataset = uniform_dataset(24 if fast else 64, 0.25e9, name="adapt-drift")
    max_seconds = 600.0 if fast else 1800.0

    def run_once(enabled: bool):
        testbed = Testbed(
            config,
            rng=seed,
            faults=FaultSchedule(
                [
                    BandwidthRamp(
                        start=onset,
                        duration=8.0,
                        to_scale=severity,
                        stage="network",
                        per_stream=True,
                    )
                ]
            ),
        )
        controller = AdaptiveController(
            StaticController(optimal),
            AdaptConfig(
                enabled=enabled, envelope=SafetyEnvelope.from_testbed_config(config)
            ),
        )
        engine = ModularTransferEngine(
            testbed,
            dataset,
            controller,
            EngineConfig(max_seconds=max_seconds, probe_noise=0.02, seed=seed),
        )
        return TransferSupervisor(engine, SupervisorConfig(seed=seed)).run(), controller

    frozen, _ = run_once(False)
    summary = {
        "seed": seed,
        "adapt": adapt,
        "drift_onset_s": onset,
        "drift_severity": round(severity, 4),
        "frozen_completed": frozen.completed,
        "frozen_time_s": round(frozen.completion_time, 1),
        "frozen_mbps": round(frozen.effective_throughput, 1),
        "supervised_completed": frozen.completed,
        "supervised_budget_exhausted": frozen.budget_exhausted,
    }
    rows = [
        ["frozen", frozen.completed, summary["frozen_time_s"], summary["frozen_mbps"],
         "-", "-", "-"],
    ]
    series = {"frozen_bytes_written": frozen.metrics.bytes_written}
    notes = [
        "The frozen policy keeps its training-time concurrency through the "
        "drift and pays the full slowdown; supervision guarantees completion, "
        "not throughput.",
    ]
    if adapt:
        adaptive, controller = run_once(True)
        report = controller.report()
        suspects = [
            tr["t"] for tr in report["transitions"]
            if tr["dst"] == "drift_suspected" and tr["t"] >= onset
        ]
        summary.update(
            {
                "adaptive_completed": adaptive.completed,
                "adaptive_time_s": round(adaptive.completion_time, 1),
                "adaptive_mbps": round(adaptive.effective_throughput, 1),
                "speedup_vs_frozen": round(
                    frozen.completion_time / max(adaptive.completion_time, 1e-9), 3
                ),
                "detection_latency_s": (
                    round(suspects[0] - onset, 2) if suspects else None
                ),
                "detections": report["detections"],
                "promotions": report["promotions"],
                "rollbacks": report["rollbacks"],
                "final_state": report["state"],
                "supervised_completed": frozen.completed and adaptive.completed,
                "supervised_budget_exhausted": frozen.budget_exhausted
                or adaptive.budget_exhausted,
            }
        )
        rows.append(
            ["adaptive", adaptive.completed, summary["adaptive_time_s"],
             summary["adaptive_mbps"], summary["detection_latency_s"],
             report["promotions"], report["rollbacks"]]
        )
        series["adaptive_bytes_written"] = adaptive.metrics.bytes_written
        notes.append(
            "The adaptive controller detects the drift, promotes a "
            "shadow-evaluated residual and recovers throughput inside the "
            "safety envelope; every guard transition is audited.",
        )
    else:
        notes.append(
            "Re-run with --adapt to overlay the adaptive controller on the "
            "same seeded drift.",
        )
    table = render_table(
        ["controller", "completed", "time (s)", "Mbps", "detect (s)", "promos",
         "rollbacks"],
        rows,
        title=f"drift adaptation — ramp to {severity:.2f}x at t={onset:.0f}s",
    )
    return ExperimentResult(
        "adapt_drift", summary=summary, tables=[table], series=series, notes=notes
    )


# ---------------------------------------------------------------- ablations
from repro.harness.ablations import (  # noqa: E402  (registry assembly)
    experiment_k_sweep,
    experiment_monolithic,
    experiment_sim2real,
    experiment_state_ablation,
)

EXPERIMENTS = {
    "figure1": experiment_figure1,
    "figure3": experiment_figure3,
    "figure4": experiment_figure4,
    "figure5_read": lambda **kw: experiment_figure5("read", **kw),
    "figure5_network": lambda **kw: experiment_figure5("network", **kw),
    "figure5_write": lambda **kw: experiment_figure5("write", **kw),
    "table1": experiment_table1,
    "training": experiment_training,
    "finetune": experiment_finetune,
    "k_sweep": experiment_k_sweep,
    "state_ablation": experiment_state_ablation,
    "monolithic": experiment_monolithic,
    "sim2real": experiment_sim2real,
    "filelevel": experiment_filelevel,
    "online_drl": experiment_online_drl,
    "parallelism": experiment_parallelism,
    "faults_link_flap": lambda **kw: experiment_faults("link_flap", **kw),
    "faults_storage_stall": lambda **kw: experiment_faults("storage_stall", **kw),
    "faults_receiver_restart": lambda **kw: experiment_faults("receiver_restart", **kw),
    "faults_probe_dropout": lambda **kw: experiment_faults("probe_dropout", **kw),
    "faults_report_loss": lambda **kw: experiment_faults("report_loss", **kw),
    "faults_random": lambda **kw: experiment_faults("random", **kw),
    "adapt_drift": experiment_adapt_drift,
    "integrity_corruption": experiment_integrity,
    "baselines_read": lambda **kw: experiment_baseline_matrix("read", **kw),
    "baselines_network": lambda **kw: experiment_baseline_matrix("network", **kw),
    "baselines_write": lambda **kw: experiment_baseline_matrix("write", **kw),
}
