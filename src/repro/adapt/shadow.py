"""Shadow evaluation: score a corrected policy before it touches production.

A correction is promoted only after winning a *shadow* comparison against
the frozen policy on recent probes — no live traffic is risked on an
unproven candidate.  The machinery:

* :class:`ThroughputModel` — a tiny calibrated model fitted over the rolling
  probe window ``(threads, throughputs)``: per stage, the effective
  per-thread rate is the median of ``throughput / threads`` over the window
  (median, not mean — a single stalled probe must not poison the fit), and
  the stage ceiling is the best observed stage throughput times a small
  ``headroom``.  ``predict`` then models a candidate triple as
  ``min(n · tpt_eff, cap)`` per stage — the linear-then-cap shape the
  emulator's stage models and the paper's §IV share.
* :class:`ShadowEvaluator` — keeps the window, fits the model on demand and
  scores triples with the paper's :class:`~repro.core.utility.UtilityFunction`
  (k = 1.02): throughput up, concurrency penalised.  Promotion applies the
  §V-C deployment gate (:func:`repro.core.finetune.promote_if_better`) with
  a safety margin — the candidate must *clearly* beat the incumbent.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.core.finetune import promote_if_better
from repro.core.utility import UtilityFunction
from repro.utils.config import require_positive

__all__ = ["ThroughputModel", "ShadowEvaluator", "ShadowVerdict"]

_EPS = 1e-9


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass(frozen=True)
class ThroughputModel:
    """Per-stage linear-then-cap throughput model fitted from probes."""

    tpt: tuple[float, float, float]
    cap: tuple[float, float, float]

    def predict(self, threads: tuple[int, int, int]) -> tuple[float, float, float]:
        """Modelled per-stage rates ``min(n · tpt, cap)`` for a thread triple.

        Stages are modelled *independently*, not min-coupled: steady-state
        probes show every stage moving at the pipeline bottleneck, so the
        fitted ratios already embed the coupling — min-ing them again would
        make raising the bottleneck stage look pointless.  The stage-wise
        form matches the paper's utility, which also scores stages
        independently.
        """
        return (
            min(max(threads[0], 0) * self.tpt[0], self.cap[0]),
            min(max(threads[1], 0) * self.tpt[1], self.cap[1]),
            min(max(threads[2], 0) * self.tpt[2], self.cap[2]),
        )


class ShadowEvaluator:
    """Rolling probe window + model-based candidate-vs-incumbent scoring."""

    def __init__(
        self,
        *,
        window: int = 16,
        min_probes: int = 6,
        headroom: float = 1.15,
        margin: float = 0.05,
        utility: UtilityFunction | None = None,
    ) -> None:
        require_positive(window, "window")
        require_positive(min_probes, "min_probes")
        require_positive(headroom, "headroom")
        if margin < 0.0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        self.window = int(window)
        self.min_probes = int(min_probes)
        self.headroom = float(headroom)
        self.margin = float(margin)
        self.utility = utility or UtilityFunction()
        self._probes: deque[tuple[tuple[int, int, int], tuple[float, float, float]]] = deque(
            maxlen=self.window
        )
        self.evaluations = 0

    def record(
        self, threads: tuple[int, int, int], throughputs: tuple[float, float, float]
    ) -> None:
        """Add one probe (the supervisor observation of an interval)."""
        self._probes.append((tuple(threads), tuple(throughputs)))

    @property
    def ready(self) -> bool:
        """Whether enough probes exist to fit a trustworthy model."""
        return len(self._probes) >= self.min_probes

    def fit(self) -> ThroughputModel | None:
        """Fit the per-stage model over the current window (None if not ready)."""
        if not self.ready:
            return None
        tpt: list[float] = []
        cap: list[float] = []
        for stage in range(3):
            # A non-finite reading (a probe dropout's NaN) is no sample: a
            # NaN in ``max`` would make the cap NaN, and ``min(x, nan)`` is x.
            readings = [
                (n[stage], tp[stage]) for n, tp in self._probes if math.isfinite(tp[stage])
            ]
            ratios = [tp / max(n, 1) for n, tp in readings if tp > _EPS]
            best = max((tp for _, tp in readings), default=0.0)
            if not ratios or best <= _EPS:
                return None  # a silent stage: the model would divide by faith
            tpt.append(_median(ratios))
            cap.append(best * self.headroom)
        return ThroughputModel(tpt=(tpt[0], tpt[1], tpt[2]), cap=(cap[0], cap[1], cap[2]))

    def score(self, model: ThroughputModel, threads: tuple[int, int, int]) -> float:
        """Modelled utility of a thread triple (paper's U, k = 1.02)."""
        return self.utility(model.predict(threads), threads)

    def evaluate(
        self,
        incumbent: tuple[int, int, int],
        candidate: tuple[int, int, int],
    ) -> ShadowVerdict:
        """Shadow-compare a candidate triple against the incumbent."""
        self.evaluations += 1
        model = self.fit()
        if model is None:
            return ShadowVerdict(False, 0.0, 0.0, "model_not_ready")
        incumbent_score = self.score(model, incumbent)
        candidate_score = self.score(model, candidate)
        promoted = promote_if_better(incumbent_score, candidate_score, margin=self.margin)
        reason = "promoted" if promoted else "rejected"
        return ShadowVerdict(promoted, incumbent_score, candidate_score, reason)

    def reset(self) -> None:
        """Drop the probe window (regime change: old probes describe old physics)."""
        self._probes.clear()


@dataclass(frozen=True)
class ShadowVerdict:
    """Outcome of one shadow evaluation."""

    promoted: bool
    incumbent_score: float
    candidate_score: float
    reason: str
