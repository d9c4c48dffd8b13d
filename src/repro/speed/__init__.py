"""Step-2 speed inference: deviation hierarchy, HLM, two-step estimator."""

from repro.speed.degradation import (
    PRIOR,
    STALE,
    DegradationParams,
    DegradationPolicy,
)
from repro.speed.estimator import TwoStepEstimator
from repro.speed.uncertainty import (
    SpeedBand,
    UncertaintyModel,
    margin_kmh,
    normal_confidences,
    sharpness_kmh,
    z_for_confidence,
)
from repro.speed.hierarchy import DeviationHierarchy
from repro.speed.plan import (
    IntervalPlan,
    IntervalPlanCache,
    IntervalPlanner,
    PlanCacheStats,
    PlanCompilePool,
    PlanShard,
)
from repro.speed.hlm import (
    HierarchicalLinearModel,
    HlmParams,
    JointSeedRegression,
    RoadRegression,
    SeedRegression,
)

__all__ = [
    "DegradationParams",
    "DegradationPolicy",
    "DeviationHierarchy",
    "PRIOR",
    "STALE",
    "HierarchicalLinearModel",
    "HlmParams",
    "IntervalPlan",
    "IntervalPlanCache",
    "IntervalPlanner",
    "PlanCacheStats",
    "JointSeedRegression",
    "PlanCompilePool",
    "PlanShard",
    "RoadRegression",
    "SeedRegression",
    "SpeedBand",
    "TwoStepEstimator",
    "UncertaintyModel",
    "margin_kmh",
    "normal_confidences",
    "sharpness_kmh",
    "z_for_confidence",
]
