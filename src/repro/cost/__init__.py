"""Unified batch-aware cost model (the single batch-pricing oracle).

All batch pricing in the repo flows through :class:`CostModel`: the
engine's cost-aware bucket planner, ``InferenceSession`` batch
estimates, the scheduler's budget/deadline flushes, and both request
routers.  Calibrated instances come from
:func:`repro.hardware.latency_table.build_cost_model`;
:func:`paper_cost_model` is the degenerate zero-overhead instance built
from the paper's measured Table IV.  :class:`OnlineCostModel` wraps any
of them and refits per-batch overhead + per-image marginal online from
measured host wall time (see :mod:`repro.cost.online`).
"""

from repro._lazy import lazy_exports

__all__ = ["BatchPlan", "BatchCost", "CostModel", "paper_cost_model",
           "OnlineCostModel", "OnlineEstimator", "keep_ratio_bucket"]

__getattr__, __dir__ = lazy_exports(globals(), {
    "model": ("BatchCost", "BatchPlan", "CostModel", "paper_cost_model"),
    "online": ("OnlineCostModel", "OnlineEstimator", "keep_ratio_bucket"),
})
