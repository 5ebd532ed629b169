"""§V-A — offline training cost, plus the stacked policy-engine gate.

Two independent parts:

* ``test_training_offline_vs_online`` (pytest-benchmark) — paper: ~45 min
  offline in the simulator vs ~7 days online (3 s per online iteration);
  convergence at ~20,150 episodes at paper scale; an online run would burn
  petabytes of bandwidth.  At the scaled-down profile we assert the same
  *structure*: convergence by the paper's criterion, and an offline/online
  cost ratio of several orders of magnitude.
* ``policy_steps`` — the population-vectorized policy engine
  (:class:`repro.nn.stacked.StackedPPOAgent`): K members acting *and*
  updating through stacked ``(K, in, out)`` weights, one ``np.matmul``
  per layer, vs K ``PPOAgent`` loops that act through their inference
  plans and update through the autograd reference step
  (:func:`repro.core.ppo.autograd_ppo_update`) over the identical
  synthetic rollout schedule.  Writes ``BENCH_training.json`` (schema 1,
  like the other ``BENCH_*`` artifacts).  Gated: per-member results
  bit-identical to the autograd oracle, and ≥ 5× act+update throughput
  at the best K ≥ 16 arm, on the median of alternating timing rounds.
  The gated profile is deliberately dispatch-bound
  (hidden 24, small batches — the scaled-down population-training shape
  the repo's tests train, where Python dispatch dominates); as the nets
  widen the per-layer GEMMs grow until BLAS time, not dispatch,
  dominates and the stacked win shrinks — the report carries ungated
  ``hidden64`` and ``hidden256`` arms informationally for exactly that
  honesty (see DESIGN §17).

Run standalone (what the CI ``bench-smoke`` job does)::

    PYTHONPATH=src python benchmarks/bench_training.py --quick
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from conftest import run_once

from repro.harness import experiment_training

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Alternating timing rounds per arm: at least ``REPEATS``, and more until
#: the arm's rounds have taken ``MIN_ARM_SECONDS``, so a millisecond arm
#: (K=1) is not read off a handful of timings the size of host noise.
REPEATS = 7
MIN_ARM_SECONDS = 1.0


def test_training_offline_vs_online(benchmark, fast_flag):
    result = run_once(benchmark, experiment_training, fast=fast_flag, seed=0)
    s = result.summary
    benchmark.extra_info.update({k: str(v) for k, v in s.items()})

    # The agent converged by the 90%-of-R_max criterion.
    assert s["converged"]
    assert s["convergence_episode"] is not None
    assert s["best_reward"] >= 0.9 * s["max_episode_reward"]

    # Offline simulator training is orders of magnitude cheaper than the
    # online equivalent (paper: 45 min vs 7 days ≈ 220x; require >= 50x).
    assert s["offline_speedup_x"] >= 50

    # An online run of the same budget would waste serious bandwidth.
    assert s["online_wasted_bytes_tb"] > 10.0


# ----------------------------------------------------- policy-engine section
def _rollout_schedule(k: int, episodes: int, steps: int):
    """One synthetic (states, rewards) schedule both engines replay."""
    rng = np.random.default_rng(12345)
    states = rng.uniform(0.0, 1.0, (episodes, steps, k, 8))
    rewards = rng.uniform(0.0, 1.0, (episodes, steps, k))
    return states, rewards


def _autograd_update(agent, optimizer) -> dict:
    """One Gaussian agent's update through the autograd reference step."""
    from repro.core.ppo import autograd_ppo_update

    def terms(states, actions):
        dist = agent.policy(states)
        return dist.log_prob(actions), dist.entropy()

    return autograd_ppo_update(terms, agent.value, optimizer, agent.memory, agent.config)


def _drive_members(agents, states, rewards, *, episodes_per_update: int) -> float:
    """K agents acting/storing and updating through the autograd reference
    step — the per-member baseline."""
    from repro.nn.optim import Adam

    episodes, steps, _k, _dim = states.shape
    gamma = agents[0].config.gamma
    optimizers = [Adam(agent.parameters(), lr=agent.lr) for agent in agents]
    t0 = time.perf_counter()
    for e in range(episodes):
        for s in range(steps):
            row = states[e, s]
            for i, agent in enumerate(agents):
                action, log_prob = agent.act(row[i])
                agent.memory.store(row[i], action, log_prob, rewards[e, s, i])
        for agent in agents:
            agent.memory.end_episode(gamma)
        if (e + 1) % episodes_per_update == 0:
            for agent, optimizer in zip(agents, optimizers):
                _autograd_update(agent, optimizer)
                agent.memory.clear()
    return time.perf_counter() - t0


def _drive_stacked(stacked, states, rewards, *, episodes_per_update: int) -> float:
    """The same schedule through act_all/update_all."""
    episodes, steps, k, _dim = states.shape
    gamma = stacked.config.gamma
    t0 = time.perf_counter()
    for e in range(episodes):
        for s in range(steps):
            row = states[e, s]
            acts, lps = stacked.act_all(row)
            for i in range(k):
                stacked.members[i].memory.store(
                    row[i], acts[i].copy(), float(lps[i]), rewards[e, s, i]
                )
        for member in stacked.members:
            member.memory.end_episode(gamma)
        if (e + 1) % episodes_per_update == 0:
            stacked.update_all(np.arange(k))
            for member in stacked.members:
                member.memory.clear()
    return time.perf_counter() - t0


def _run_arm(*, k: int, hidden_dim: int, episodes: int, steps: int,
             episodes_per_update: int, ppo_kwargs: dict | None = None) -> dict:
    """Time per-member autograd vs stacked over identical rollouts; check identity.

    After one untimed warm-up run of each side, every round times each
    side once on fresh agents with the same seeds, per-member first on
    even rounds and stacked first on odd ones (see ``REPEATS`` for how
    many rounds).  The two timings of a round run back to back on the
    same host state, so ``speedup`` is the median of the per-round
    ratios; the reported walls are the medians of each side.
    """
    from repro.core.ppo import PPOAgent, PPOConfig
    from repro.nn.stacked import StackedPPOAgent

    cfg = PPOConfig(
        hidden_dim=hidden_dim, policy_blocks=2, value_blocks=2,
        **(ppo_kwargs or {}),
    )
    seeds = [9000 + 13 * i for i in range(k)]
    states, rewards = _rollout_schedule(k, episodes, steps)

    def run_members() -> tuple[float, list]:
        members = [PPOAgent(8, 3, cfg, rng=s) for s in seeds]
        wall = _drive_members(
            members, states, rewards, episodes_per_update=episodes_per_update
        )
        return wall, members

    def run_stacked() -> tuple[float, list]:
        stacked = StackedPPOAgent(8, 3, cfg, rngs=seeds)
        wall = _drive_stacked(
            stacked, states, rewards, episodes_per_update=episodes_per_update
        )
        return wall, stacked.members

    sides = {"per_member": run_members, "stacked": run_stacked}
    for run in sides.values():  # warm-up: first-call imports and allocations
        run()
    walls: dict[str, list[float]] = {name: [] for name in sides}
    trained = {}
    spent = 0.0
    while len(walls["stacked"]) < REPEATS or spent < MIN_ARM_SECONDS:
        order = list(sides)
        if len(walls["stacked"]) % 2:
            order.reverse()
        for name in order:
            wall, trained[name] = sides[name]()
            walls[name].append(wall)
            spent += wall
    ratios = [m / s for m, s in zip(walls["per_member"], walls["stacked"])]
    member_wall = statistics.median(walls["per_member"])
    stacked_wall = statistics.median(walls["stacked"])

    # Same seeds + same schedule: every parameter must come out bit-equal
    # to the autograd oracle's.
    identical = True
    for want, got in zip(trained["per_member"], trained["stacked"]):
        for net in ("policy", "value"):
            for key, value in getattr(want, net).state_dict().items():
                identical = identical and np.array_equal(
                    getattr(got, net).state_dict()[key], value
                )
    total = episodes * steps * k
    return {
        "k": k,
        "hidden_dim": hidden_dim,
        "transitions": total,
        "rounds": len(ratios),
        "per_member_wall_s": round(member_wall, 4),
        "stacked_wall_s": round(stacked_wall, 4),
        "per_member_steps_per_s": round(total / member_wall, 1),
        "stacked_steps_per_s": round(total / stacked_wall, 1),
        "speedup": round(statistics.median(ratios), 2),
        "bit_identical": bool(identical),
    }


def bench_policy_steps(*, ks: tuple[int, ...] = (1, 16, 64), episodes: int = 4,
                       steps: int = 10, episodes_per_update: int = 2,
                       min_speedup: float = 5.0, hidden_dim: int = 24,
                       with_wide_arms: bool = True) -> dict:
    """Stacked-K acting + updating vs K per-member loops, gated at K ≥ 16.

    ``speedup`` per arm is wall-clock of K agents updating through the
    autograd reference step over the stacked engine on the *identical*
    synthetic rollout schedule (same seeds, same states/rewards, same
    update cadence), so it isolates engine dispatch, not workload
    differences.  Bit-identity of every resulting parameter is asserted
    per arm — the speedup is of the same computation, not an
    approximation of it.

    The gated arms run hidden 24 / 2+2 blocks — the scaled-down profile
    the repo's population tests actually train (see
    ``test_population_batched_winner_fingerprint_second_config``), where
    Python dispatch dominates and stacking pays most.  Wider nets shift
    the balance toward BLAS: the ungated ``hidden64``/``hidden256`` arms
    report that decay honestly (~2–4× and ~1×) instead of hiding it.
    """
    # Keyed by arm (not a list): ``automdt regress`` flattens mappings
    # only, so this is what puts each arm's speedup under the gate.
    arms = {
        f"k{k}": _run_arm(
            k=k, hidden_dim=hidden_dim, episodes=episodes, steps=steps,
            episodes_per_update=episodes_per_update,
        )
        for k in ks
    }
    gated = [a["speedup"] for a in arms.values() if a["k"] >= 16]
    report = {
        "episodes": episodes,
        "steps_per_episode": steps,
        "arms": arms,
        "speedup_floor": min_speedup,
        "bit_identical": bool(all(a["bit_identical"] for a in arms.values())),
        "target_ok": bool(gated and max(gated) >= min_speedup),
    }
    if with_wide_arms:
        # Informational, not gated: as the per-layer GEMMs grow, BLAS time
        # (which stacking cannot reduce) swamps dispatch (which it does),
        # so the win narrows — reported so nobody mistakes the K≥16 gate
        # for a claim about wide networks.  The ``speedup_ungated`` key
        # name keeps these arms out of regress's higher-is-better gate.
        for name, arm in (
            ("hidden64", _run_arm(
                k=16, hidden_dim=64, episodes=episodes, steps=steps,
                episodes_per_update=episodes_per_update,
            )),
            ("hidden256", _run_arm(
                k=8, hidden_dim=256, episodes=2, steps=steps,
                episodes_per_update=episodes_per_update,
            )),
        ):
            arm["speedup_ungated"] = arm.pop("speedup")
            report[name] = arm
    return report


def run_bench(*, quick: bool = False, out: str | Path | None = None) -> dict:
    section = bench_policy_steps(
        ks=(1, 16) if quick else (1, 16, 64),
        episodes=2 if quick else 4,
        with_wide_arms=not quick,
    )
    report = {
        "bench": "training",
        "schema": 1,
        "quick": quick,
        "policy_steps": section,
        "ok": bool(section["bit_identical"] and section["target_ok"]),
    }
    out = Path(out) if out is not None else REPO_ROOT / "BENCH_training.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    report["out"] = str(out)

    from repro.obs.store import record_bench_report

    record_bench_report(report, path=out)
    return report


def test_training_policy_steps_quick(tmp_path):
    """Pytest entry: the identity + speedup gates must hold in quick mode."""
    report = run_bench(quick=True, out=tmp_path / "BENCH_training.json")
    assert report["ok"], report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller budgets (CI smoke)")
    parser.add_argument("--out", default=None, help="report path (default: repo root)")
    parser.add_argument("--store", default=None,
                        help="append the report to this results store (also $AUTOMDT_STORE)")
    args = parser.parse_args(argv)
    if args.store:
        from repro.obs.store import set_default_store

        set_default_store(args.store)
    report = run_bench(quick=args.quick, out=args.out)
    print(json.dumps(report, indent=2))
    if not report["ok"]:
        print("FAIL: stacked engine missed bit-identity or its speedup floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
