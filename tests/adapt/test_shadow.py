"""Shadow model fitting and the §V-C promotion gate."""

import pytest

from repro.adapt import ShadowEvaluator, ThroughputModel
from repro.core.finetune import promote_if_better


def test_model_predict_linear_then_cap_per_stage():
    model = ThroughputModel(tpt=(100.0, 50.0, 80.0), cap=(450.0, 600.0, 1000.0))
    assert model.predict((4, 4, 4)) == (400.0, 200.0, 320.0)
    # The cap binds independently per stage.
    assert model.predict((10, 10, 10)) == (450.0, 500.0, 800.0)


def test_fit_requires_min_probes_and_live_stages():
    evaluator = ShadowEvaluator(min_probes=4)
    assert evaluator.fit() is None
    for _ in range(4):
        evaluator.record((5, 5, 5), (500.0, 0.0, 500.0))  # silent network stage
    assert evaluator.fit() is None
    evaluator.reset()
    for _ in range(4):
        evaluator.record((5, 5, 5), (500.0, 500.0, 500.0))
    model = evaluator.fit()
    assert model is not None
    assert model.tpt == (100.0, 100.0, 100.0)
    assert model.cap == pytest.approx((575.0, 575.0, 575.0))


def test_fit_median_survives_one_stalled_probe():
    evaluator = ShadowEvaluator(min_probes=4)
    for _ in range(6):
        evaluator.record((5, 5, 5), (500.0, 500.0, 500.0))
    evaluator.record((5, 5, 5), (10.0, 10.0, 10.0))  # one stalled outlier
    model = evaluator.fit()
    assert model.tpt == (100.0, 100.0, 100.0)


def test_evaluate_applies_promotion_margin():
    evaluator = ShadowEvaluator(min_probes=4, margin=0.05)
    for _ in range(8):
        evaluator.record((5, 5, 5), (500.0, 500.0, 500.0))
    # More threads push every stage to its cap: a clear modelled win.
    verdict = evaluator.evaluate((5, 5, 5), (7, 7, 7))
    assert verdict.promoted and verdict.candidate_score > verdict.incumbent_score
    # The incumbent never loses to itself (margin > 0).
    assert not evaluator.evaluate((5, 5, 5), (5, 5, 5)).promoted
    assert evaluator.evaluations == 2


def test_evaluate_not_ready_rejects():
    evaluator = ShadowEvaluator(min_probes=4)
    verdict = evaluator.evaluate((5, 5, 5), (6, 6, 6))
    assert not verdict.promoted and verdict.reason == "model_not_ready"


def test_promote_if_better_margins():
    # margin=0 reproduces the paper's plain §V-C comparison.
    assert promote_if_better(10.0, 10.0)
    assert not promote_if_better(10.0, 9.99)
    # A positive margin demands a clear win.
    assert not promote_if_better(10.0, 10.4, margin=0.05)
    assert promote_if_better(10.0, 10.5, margin=0.05)
    with pytest.raises(ValueError):
        promote_if_better(1.0, 2.0, margin=-0.1)


@pytest.mark.parametrize("position", ["oldest", "newest"])
def test_fit_skips_a_probe_dropout_wherever_it_sits(position):
    """A NaN probe is no sample: in ``max`` it would make every cap NaN
    (``max`` keeps a NaN that comes first), and ``min(x, nan)`` is x."""
    probes = [((4, 4, 4), (400.0, 400.0, 400.0))] * 5
    dropout = ((4, 4, 4), (float("nan"),) * 3)
    evaluator = ShadowEvaluator()
    for threads, throughputs in [dropout] + probes if position == "oldest" else probes + [
        dropout
    ]:
        evaluator.record(threads, throughputs)
    model = evaluator.fit()
    assert model.tpt == (100.0, 100.0, 100.0)
    assert model.cap == pytest.approx((460.0, 460.0, 460.0))
    assert evaluator.score(model, (8, 8, 8)) == pytest.approx(1177.8167, abs=1e-3)


def test_fit_skips_infinite_readings():
    evaluator = ShadowEvaluator(min_probes=4)
    for _ in range(4):
        evaluator.record((5, 5, 5), (500.0, 500.0, 500.0))
    evaluator.record((5, 5, 5), (float("inf"), 500.0, 500.0))
    model = evaluator.fit()
    assert model.tpt == (100.0, 100.0, 100.0)
    assert model.cap == pytest.approx((575.0, 575.0, 575.0))
