"""Safety envelope clamping every adaptive concurrency move.

The corrector (:class:`repro.adapt.corrector.ResidualCorrector`) proposes
residual thread deltas on top of the frozen policy; the envelope is the
hard boundary those proposals can never cross:

* **per-interval delta cap** — no stage's thread count may move by more
  than ``max_delta_per_interval`` between consecutive proposals (WAN
  transfers punish thrash: see the over-concurrency degradation knee);
* **hard floors and ceilings** — every stage stays in
  ``[min_threads, max_threads]``, with the ceiling taken from the testbed's
  configured limits via :meth:`SafetyEnvelope.from_testbed_config`.

Every clamp is counted per stage so incident reports can show how often the
corrector leaned on the rails.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.config import require_positive

__all__ = ["SafetyEnvelope"]

_STAGES = ("read", "network", "write")


@dataclass(frozen=True)
class SafetyEnvelope:
    """Hard limits on adaptive concurrency moves."""

    max_threads: tuple[int, int, int] = (30, 30, 30)
    min_threads: tuple[int, int, int] = (1, 1, 1)
    max_delta_per_interval: int = 2

    def __post_init__(self) -> None:
        require_positive(self.max_delta_per_interval, "max_delta_per_interval")
        for lo, hi in zip(self.min_threads, self.max_threads):
            if lo < 1:
                raise ValueError(f"min_threads must be >= 1, got {self.min_threads}")
            if hi < lo:
                raise ValueError(
                    f"max_threads {self.max_threads} below min_threads {self.min_threads}"
                )

    @classmethod
    def from_testbed_config(
        cls, testbed_config, *, max_delta_per_interval: int = 2
    ) -> SafetyEnvelope:
        """Derive ceilings from a :class:`~repro.emulator.testbed.TestbedConfig`."""
        limit = int(getattr(testbed_config, "max_threads", 30))
        return cls(
            max_threads=(limit, limit, limit),
            max_delta_per_interval=max_delta_per_interval,
        )

    def clamp(
        self,
        proposal: tuple[int, int, int],
        previous: tuple[int, int, int] | None,
        counts: dict[str, int] | None = None,
    ) -> tuple[int, int, int]:
        """Clamp ``proposal`` against the rails and the last applied triple.

        ``counts`` (stage name → clamp count) is incremented in place for
        each stage whose proposal had to be altered.

        ``min``/``max`` become their exact ``b if b < a else a`` expansions,
        which return what they would for any comparable values.
        """
        step = self.max_delta_per_interval
        floors, ceilings = self.min_threads, self.max_threads
        clamped = []
        for i in 0, 1, 2:
            wanted = int(proposal[i])
            value = wanted
            if previous is not None:
                lo, hi = previous[i] - step, previous[i] + step
                value = lo if lo > value else value
                value = hi if hi < value else value
            lo, hi = floors[i], ceilings[i]
            value = lo if lo > value else value
            value = hi if hi < value else value
            if counts is not None and value != wanted:
                stage = _STAGES[i]
                counts[stage] = counts.get(stage, 0) + 1
            clamped.append(value)
        return (clamped[0], clamped[1], clamped[2])
