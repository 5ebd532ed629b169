"""The three workloads: seeded inputs, the measured phase, and their checks.

Every workload is a class with three steps, run by :mod:`perfbench.worker`
in a fresh process:

* ``__init__`` (set-up) — generates every input from ``(seed, index)`` and
  constructs the objects the measured phase needs;
* :meth:`measure` — the timed, fixed amount of work;
* :meth:`summarize` — untimed: correctness checks, the result fingerprint,
  deterministic work counts, virtual (emulator/simulator-clock) metrics.

``index`` selects one of the run's distinct inputs: a run cycles over
several inputs derived from its seed (``perfbench.run.INPUTS``), so one run's
figures pool independent draws while every repeat of an input does identical
work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def input_rng(seed: int, index: int) -> np.random.Generator:
    """The generator every input of ``(seed, index)`` is drawn from."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def draw_seed(rng: np.random.Generator) -> int:
    """A program seed drawn from the input generator."""
    return int(rng.integers(2**62))


def fingerprint(payload) -> str:
    """sha256 over a canonical JSON rendering (floats as exact reprs)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms, one per equal-width stratum of (0, 1), shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return u


# ----------------------------------------------------------------- pipeline
@dataclass(frozen=True)
class PipelineSize:
    episodes: int
    explore_seconds: float
    hidden: int
    dataset_bytes: float


class PipelineTable1:
    """explore → ``train_offline`` → two verified Table I transfers.

    Table I preset ``fabric_ncsa_tacc(noise_sigma=0.02)``; the Large set is
    1,000 × 1 GB, the Mixed set is drawn here from the seed (clipped
    log-normal, median 8 MB, σ 2.2, 100 KiB–2 GiB, summing to 1 TB — about
    15k files).  Training runs a fixed episode budget: the stagnation stop
    is pushed past the budget, so every run does the same number of PPO
    episodes and updates.
    """

    SIZES = {
        "full": PipelineSize(episodes=100, explore_seconds=120.0, hidden=256,
                             dataset_bytes=1e12),
        "tiny": PipelineSize(episodes=4, explore_seconds=10.0, hidden=16,
                             dataset_bytes=2e9),
    }

    def __init__(self, seed: int, index: int, size: str, work_dir: Path) -> None:
        from repro.core.agent import AutoMDT
        from repro.core.ppo import PPOConfig
        from repro.core.training import TrainingConfig
        from repro.emulator.presets import fabric_ncsa_tacc
        from repro.emulator.testbed import Testbed
        from repro.transfer.files import uniform_dataset

        self.size = self.SIZES[size]
        self.work_dir = work_dir
        rng = input_rng(seed, index)
        total = self.size.dataset_bytes
        self.datasets = [
            uniform_dataset(max(1, round(total / 1e9)), 1e9, name="large"),
            mixed_dataset(rng, total),
        ]
        self.config = fabric_ncsa_tacc(noise_sigma=0.02)
        self.explore_testbed = Testbed(self.config, rng=draw_seed(rng))
        episodes = self.size.episodes
        self.automdt = AutoMDT(
            ppo_config=PPOConfig(hidden_dim=self.size.hidden),
            training_config=TrainingConfig(
                max_episodes=episodes, stagnation_episodes=episodes + 1
            ),
            seed=draw_seed(rng),
        )
        self.deploy_seeds = [
            {
                "testbed": draw_seed(rng),
                "engine": draw_seed(rng),
                "supervisor": draw_seed(rng),
                "integrity": draw_seed(rng),
                "content": draw_seed(rng),
            }
            for _ in self.datasets
        ]
        self.deploy_testbeds = [
            Testbed(self.config, rng=s["testbed"]) for s in self.deploy_seeds
        ]

    def measure(self):
        from repro.transfer.engine import EngineConfig, ModularTransferEngine
        from repro.transfer.integrity import IntegrityConfig, VerifiedTransfer
        from repro.transfer.supervisor import SupervisorConfig, TransferSupervisor

        automdt = self.automdt
        profile = automdt.explore(self.explore_testbed, duration=self.size.explore_seconds)
        training = automdt.train_offline()
        transfers = []
        for dataset, testbed, seeds in zip(
            self.datasets, self.deploy_testbeds, self.deploy_seeds
        ):
            engine = ModularTransferEngine(
                testbed,
                dataset,
                automdt.controller(),
                EngineConfig(max_seconds=36000.0, probe_noise=0.02, seed=seeds["engine"]),
                utility_fn=automdt.utility,
            )
            supervisor = TransferSupervisor(engine, SupervisorConfig(seed=seeds["supervisor"]))
            verified = VerifiedTransfer.for_supervisor(
                supervisor,
                self.work_dir / dataset.name,
                IntegrityConfig(
                    chunk_size=4e6, seed=seeds["integrity"], content_seed=seeds["content"]
                ),
            )
            try:
                transfers.append(verified.run())
            finally:
                verified.journal.close()
        return profile, training, transfers

    def summarize(self, outputs) -> dict:
        profile, training, transfers = outputs
        clean = [bool(t.clean) for t in transfers]
        seconds = sum(t.supervised.completion_time for t in transfers)
        verified_bytes = sum(t.supervised.total_bytes for t in transfers if t.clean)
        records = [
            {
                "dataset": dataset.name,
                "files": dataset.num_files,
                "clean": t.clean,
                "chunks": t.chunks_total,
                "resent": len(t.resent_chunk_ids),
                "repair_rounds": t.repair_rounds,
                "virtual_s": t.supervised.completion_time,
                "bytes": t.supervised.total_bytes,
            }
            for dataset, t in zip(self.datasets, transfers)
        ]
        return {
            "fingerprint": fingerprint({
                "profile": profile.to_dict(),
                "episode_rewards": training.episode_rewards.tolist(),
                "best_episode": training.best_episode,
                "transfers": records,
            }),
            "ops": len(transfers),
            "ops_failed": clean.count(False),
            "checks": {
                "transfers_clean": all(clean),
                "episode_budget_run": training.episodes_run == self.size.episodes,
            },
            "work": {
                "episodes": training.episodes_run,
                "env_steps": training.total_steps,
                "chunks": sum(t.chunks_total for t in transfers),
                "files": sum(d.num_files for d in self.datasets),
                "transfer_virtual_s": seconds,
            },
            "goodput": [verified_bytes * 8 / 1e6, seconds],
            "virtual": {},
        }


def mixed_dataset(rng: np.random.Generator, total_bytes: float):
    """Table I's Mixed set: clipped log-normal file sizes summing exactly."""
    from repro.transfer.files import Dataset, FileSpec

    blocks, drawn = [], 0.0
    while drawn < total_bytes:
        block = np.clip(
            np.exp(rng.normal(np.log(8e6), 2.2, size=4096)), 100 * 1024, 2 * 1024**3
        )
        blocks.append(block)
        drawn += float(block.sum())
    sizes = np.concatenate(blocks)
    cumulative = np.cumsum(sizes)
    count = int(np.searchsorted(cumulative, total_bytes)) + 1
    sizes = sizes[:count]
    sizes[-1] = total_bytes - (cumulative[count - 2] if count > 1 else 0.0)
    if count > 1 and sizes[-1] < 1.0:  # a sub-byte tail joins its neighbour
        sizes[-2] += sizes[-1]
        sizes = sizes[:-1]
    return Dataset(
        (FileSpec(f"mixed-{i:06d}", float(s)) for i, s in enumerate(sizes)), name="mixed"
    )


# --------------------------------------------------------------- population
#: The six rates ``sample_scenario(base=...)`` jitters, in its draw order,
#: and its default jitter: each rate is scaled by a uniform factor in
#: ``[1 - JITTER, 1 + JITTER]``.
JITTERED_RATES = (
    "tpt_read", "tpt_network", "tpt_write",
    "bandwidth_read", "bandwidth_network", "bandwidth_write",
)
JITTER = 0.2


def jittered_variants(rng: np.random.Generator, base, count: int):
    """``count`` variants of ``sample_scenario(base=base)``, stratified.

    Each rate's factor is drawn by Latin hypercube across the variants: one
    draw per equal-width stratum, in shuffled order.  Every variant keeps
    ``sample_scenario``'s distribution, while every input spans the jitter
    range evenly.  ``BatchedSimulator`` steps the members in lockstep, so an
    input costs as many event rounds as its busiest member needs; with
    independent draws that member made one input's rounds 2.4 times
    another's.
    """
    from dataclasses import replace

    factors = np.stack(
        [1.0 - JITTER + 2.0 * JITTER * _stratified(rng, count) for _ in JITTERED_RATES], 1
    )
    label = f"{base.label}+jitter" if base.label else "jittered"
    return [
        replace(
            base,
            label=label,
            **{name: getattr(base, name) * float(f) for name, f in zip(JITTERED_RATES, row)},
        )
        for row in factors
    ]


@dataclass(frozen=True)
class PopulationSize:
    members: int
    hidden: int
    episodes: int
    eval_episodes: int


class Population:
    """``train_population(batched=True)`` over jittered fig5-read variants.

    Every member's deterministic evaluation is replayed afterwards on the
    scalar simulator (untimed): its reward must equal the batched
    evaluation's bit for bit, and the replays' mean write throughput is the
    workload's goodput.
    """

    SIZES = {
        "full": PopulationSize(members=8, hidden=256, episodes=4, eval_episodes=1),
        "tiny": PopulationSize(members=2, hidden=16, episodes=4, eval_episodes=1),
    }

    def __init__(self, seed: int, index: int, size: str, work_dir: Path) -> None:
        from repro.core.ppo import PPOConfig
        from repro.core.training import TrainingConfig
        from repro.emulator.presets import fig5_read_bottleneck
        from repro.simulator.scenarios import simulator_config_from_testbed

        self.size = self.SIZES[size]
        rng = input_rng(seed, index)
        base = simulator_config_from_testbed(fig5_read_bottleneck())
        self.variants = jittered_variants(rng, base, self.size.members)
        self.root_seed = draw_seed(rng)
        episodes = self.size.episodes
        self.training_config = TrainingConfig(
            max_episodes=episodes, stagnation_episodes=episodes + 1
        )
        self.ppo_config = PPOConfig(hidden_dim=self.size.hidden)

    def measure(self):
        from repro.core.population import train_population

        return train_population(
            self.variants,
            root_seed=self.root_seed,
            training_config=self.training_config,
            ppo_config=self.ppo_config,
            eval_episodes=self.size.eval_episodes,
            batched=True,
        )

    def _replay(self, member) -> tuple[float, list[float]]:
        """A member's evaluation on the scalar simulator: (reward, write Mbps)."""
        from repro.core.env import SimulatorEnv
        from repro.core.ppo import PPOAgent
        from repro.parallel import derive_seed

        # train_population evaluates member i on derive_seed(member_seed, 2).
        env = SimulatorEnv(member.config, rng=derive_seed(member.seed, 2))
        agent = PPOAgent(env.state_dim, env.action_dim, self.ppo_config, rng=0)
        agent.load_state_dict(member.training.best_state)
        total, write_mbps = 0.0, []
        for _ in range(self.size.eval_episodes):
            state = env.reset()
            for _ in range(env.episode_steps):
                action, _ = agent.act(state, deterministic=True)
                state, reward, done, info = env.step(action)
                total += reward
                write_mbps.append(float(info["throughputs"][2]))
                if done:
                    break
        return total / self.size.eval_episodes, write_mbps

    def summarize(self, result) -> dict:
        rewards = result.eval_rewards()
        replays = [self._replay(member) for member in result.members]
        write_mbps = [mbps for _, trace in replays for mbps in trace]
        finite = [math.isfinite(r) for r in rewards]
        return {
            "fingerprint": fingerprint({
                "best_index": result.best_index,
                "eval_rewards": rewards,
                "episode_rewards": [m.training.episode_rewards.tolist() for m in result.members],
            }),
            "ops": len(rewards),
            "ops_failed": finite.count(False),
            "checks": {
                "episode_budget_run": all(
                    m.training.episodes_run == self.size.episodes for m in result.members
                ),
                "evaluation_replays_on_scalar_simulator": [r for r, _ in replays] == rewards,
            },
            "work": {
                "members": len(result.members),
                "episodes": sum(m.training.episodes_run for m in result.members),
                "env_steps": sum(m.training.total_steps for m in result.members),
            },
            "goodput": [sum(write_mbps), len(write_mbps)],
            "virtual": {
                "best_index": result.best_index,
                "eval_reward": result.best.eval_reward,
                "eval_rewards": rewards,
            },
        }


# -------------------------------------------------------------------- fleet
@dataclass(frozen=True)
class FleetSize:
    requests: int
    size_scale: float


#: (class, share of requests, median GB, log-normal sigma) before scaling.
FLEET_CLASSES = (
    ("INTERACTIVE", 0.2, 0.25, 0.5),
    ("BATCH", 0.5, 1.0, 0.6),
    ("BEST_EFFORT", 0.3, 2.5, 0.6),
)
TENANT_WEIGHTS = (4.0, 2.0, 1.0, 1.0)
OFFERED_LOAD = 0.9
LINK_BYTES_PER_S = 125e6  # the fig5-read testbed's 1 Gbps bottleneck


def fleet_requests(rng: np.random.Generator, n: int, size_scale: float = 1.0):
    """Open-loop arrivals offering ``OFFERED_LOAD`` of the link.

    Classes, tenants, log-normal sizes and exponential inter-arrival gaps
    are all drawn by stratified sampling (one draw per quantile stratum, in
    shuffled order): each marginal keeps its distribution while every seed
    offers the same class mix, byte volume and arrival span, so seeds differ
    in order and burstiness, not in total load.
    """
    from statistics import NormalDist

    from repro.fleet import Priority, TransferRequest

    shares = np.array([share for _, share, _, _ in FLEET_CLASSES])
    counts = np.floor(shares * n).astype(int)
    counts[np.argmax(shares)] += n - counts.sum()
    classes = np.repeat(np.arange(len(FLEET_CLASSES)), counts)
    rng.shuffle(classes)
    sizes = np.zeros(n)
    normal = NormalDist()
    for c, (_, _, median, sigma) in enumerate(FLEET_CLASSES):
        members = np.flatnonzero(classes == c)
        quantiles = _stratified(rng, len(members))
        sizes[members] = [
            size_scale * median * math.exp(sigma * normal.inv_cdf(q)) for q in quantiles
        ]
    tenants = np.arange(n) % len(TENANT_WEIGHTS)
    rng.shuffle(tenants)
    rate = OFFERED_LOAD * LINK_BYTES_PER_S / (sizes.mean() * 1e9)  # arrivals per s
    gaps = -np.log1p(-_stratified(rng, n)) / rate
    arrivals = np.cumsum(gaps) - gaps[0]
    return [
        TransferRequest(
            tenant=f"t{tenants[i]}",
            gigabytes=float(sizes[i]),
            priority=Priority[FLEET_CLASSES[classes[i]][0]],
            submit_at=float(arrivals[i]),
            name=f"r{i:04d}",
        )
        for i in range(n)
    ]


class FleetChaos:
    """``FleetScheduler`` open loop under the chaos fault profile, adapting.

    Four tenants with weights 4:2:1:1 submit equal request counts;
    admission bounds are sized so that nothing is rejected.
    """

    SIZES = {
        "full": FleetSize(requests=96, size_scale=1.0),
        "tiny": FleetSize(requests=12, size_scale=0.05),
    }

    def __init__(self, seed: int, index: int, size: str, work_dir: Path) -> None:
        from repro.fleet import FleetConfig, FleetScheduler, JobFaultProfile, TenantSpec

        self.size = self.SIZES[size]
        rng = input_rng(seed, index)
        n = self.size.requests
        self.requests = fleet_requests(rng, n, self.size.size_scale)
        config = FleetConfig(
            tenants=tuple(
                TenantSpec(f"t{i}", weight=w, max_concurrency=4)
                for i, w in enumerate(TENANT_WEIGHTS)
            ),
            seed=draw_seed(rng),
            quantum=10.0,
            stall_intervals=4,
            admission_limit=n,
            per_tenant_queue=n,
            horizon=10 * self.requests[-1].submit_at + 3600.0,
            faults=JobFaultProfile(stall_probability=0.6, corruption_probability=0.5),
            adapt=True,
        )
        self.scheduler = FleetScheduler(config, self.requests, work_dir / "fleet")

    def measure(self):
        return self.scheduler.run()

    def summarize(self, report) -> dict:
        jobs = {job["job_id"]: job for job in report["jobs"]}
        decisions = report["admission"]["decisions"]
        sojourn, admit_lag, dispatch_wait = [], [], []
        completed = 0
        # Requests are generated in submit order, which is the admission order.
        for request, decision in zip(self.requests, decisions):
            job = jobs.get(decision.get("job_id"))
            if job is None:
                sojourn.append(math.inf)
                continue
            admit_lag.append(job["admitted_at"] - request.submit_at)
            if job["dispatched_at"] is not None:
                dispatch_wait.append(job["dispatched_at"] - job["admitted_at"])
            if job["state"] == "completed" and not job["unrecovered_chunks"]:
                completed += 1
                sojourn.append(job["completed_at"] - request.submit_at)
            else:
                sojourn.append(math.inf)
        n = len(self.requests)
        verified_bytes = sum(job["bytes_verified"] for job in report["jobs"])
        makespan = max(
            (j["completed_at"] for j in report["jobs"] if j["completed_at"] is not None),
            default=0.0,
        )
        invariants = report["invariants"]
        return {
            "fingerprint": report["fingerprint"],
            "ops": n,
            "ops_failed": n - completed,
            "checks": {
                **{f"invariant_{k}": bool(v) for k, v in invariants.items()},
                "every_request_decided": len(decisions) == n,
                "nothing_rejected": report["admission"]["rejected"] == 0,
            },
            "work": {
                "requests": n,
                "rounds": report["rounds"],
                "slices": sum(j["slices"] for j in report["jobs"]),
            },
            "goodput": [verified_bytes * 8 / 1e6, makespan - self.requests[0].submit_at],
            "virtual": {
                "sojourn_s": [s if math.isfinite(s) else None for s in sojourn],
                "fleet": {
                    "rounds": report["rounds"],
                    "slices": sum(j["slices"] for j in report["jobs"]),
                    "incidents": sum(len(j["incidents"]) for j in report["jobs"]),
                    "retries": sum(j["retries"] for j in report["jobs"]),
                    "breaker_opens": sum(j["breaker"]["times_opened"] for j in report["jobs"]),
                    "preemptions": sum(j["preempted"] for j in report["jobs"]),
                },
                "admit_lag_s": admit_lag,
                "dispatch_wait_s": dispatch_wait,
            },
        }


WORKLOADS = {
    "pipeline_table1": PipelineTable1,
    "population": Population,
    "fleet_chaos": FleetChaos,
}
