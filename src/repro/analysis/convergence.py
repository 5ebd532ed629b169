"""Convergence analysis for training curves and throughput series."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def rolling_mean(values: Sequence[float], window: int) -> np.ndarray:
    """Simple moving average; output length ``len(values) - window + 1``."""
    data = np.asarray(values, dtype=float)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if data.size < window:
        return np.empty(0)
    return np.convolve(data, np.ones(window) / window, mode="valid")


def rolling_convergence_episode(
    rewards: Sequence[float],
    target: float,
    *,
    window: int = 100,
) -> int | None:
    """First episode index where the rolling-mean reward reaches ``target``.

    The sustained-level notion of convergence used for Fig. 4: single
    episode maxima are a noisy max statistic, the rolling mean is not.
    Returns the index of the *last* episode in the qualifying window.
    """
    roll = rolling_mean(rewards, window)
    hits = np.nonzero(roll >= target)[0]
    if len(hits) == 0:
        return None
    return int(hits[0]) + window - 1

