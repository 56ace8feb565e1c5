"""Estimation substrate: motion, coverage, throughput, and delay.

The scheduler of the paper never sees ground truth — it works from
estimates:

* 6-DoF motion is predicted with per-axis **linear regression**
  (Section V, following Firefly's methodology),
* the coverage indicator ``1_n(t)`` and its running mean
  ``delta_bar_n(t)`` capture how often the delivered FoV-with-margin
  actually covered the user's true view (Section II/III),
* available bandwidth is estimated with an **exponential moving
  average** (Section V),
* delivery delay is predicted with **polynomial regression** over
  (rate, delay) samples because the delay-rate curve is nonlinear
  (Section V).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.prediction.pose": ("Pose",),
        "repro.prediction.motion": ("LinearMotionPredictor",),
        "repro.prediction.predictors": (
            "PREDICTOR_REGISTRY", "ConstantVelocityPredictor",
            "ExponentialSmoothingPredictor", "LastPosePredictor",
            "make_predictor",
        ),
        "repro.prediction.fov": ("CoverageEvaluator", "CoverageOutcome"),
        "repro.prediction.accuracy": (
            "RunningMean", "PredictionAccuracyTracker",
        ),
        "repro.prediction.throughput": ("EmaThroughputEstimator",),
        "repro.prediction.delay": ("PolynomialDelayPredictor",),
    },
)

__all__ = [
    "Pose",
    "LinearMotionPredictor",
    "LastPosePredictor",
    "ConstantVelocityPredictor",
    "ExponentialSmoothingPredictor",
    "PREDICTOR_REGISTRY",
    "make_predictor",
    "CoverageEvaluator",
    "CoverageOutcome",
    "RunningMean",
    "PredictionAccuracyTracker",
    "EmaThroughputEstimator",
    "PolynomialDelayPredictor",
]
