"""User-facing analyses: throughput, latency and buffer sizing.

Throughput is available through three independent back-ends (symbolic
max-plus, explicit state-space simulation, MCR on the traditional HSDF
expansion); agreement between them is itself part of the reproduction
(experiment E8 in DESIGN.md).
"""

from repro.analysis.throughput import (
    ThroughputResult,
    throughput,
    hsdf_cycle_ratio_graph,
)
from repro.analysis.latency import latency, LatencyResult
from repro.analysis.bottleneck import bottleneck, BottleneckReport
from repro.analysis.transient import transient_analysis, TransientAnalysis
from repro.analysis.buffer import (
    buffer_aware_graph,
    buffer_aware_throughput,
    channel_occupancy_bounds,
    minimal_buffer_sizes,
)
from repro.analysis.pareto import (
    ParetoPoint,
    explore_buffer_throughput,
    pareto_frontier,
)
from repro.analysis.sensitivity import SensitivityReport, sensitivity, slack
from repro.analysis.periodic_schedule import (
    PeriodicSchedule,
    rate_optimal_schedule,
    verify_periodic_schedule,
)
from repro.analysis.cache import (
    AnalysisCache,
    CacheStats,
    default_cache,
    set_default_cache,
)
from repro.analysis.batch import BatchReport, GraphResult, analyse_graph, run_batch
from repro.analysis.deadline import CancelToken, Deadline
from repro.analysis.faults import FaultPlan, FaultRule, parse_fault
from repro.analysis.resilience import (
    AnalysisOutcome,
    AnalysisPolicy,
    StageAttempt,
    analyse_with_policy,
)

__all__ = [
    "AnalysisCache",
    "CacheStats",
    "default_cache",
    "set_default_cache",
    "BatchReport",
    "GraphResult",
    "analyse_graph",
    "run_batch",
    "CancelToken",
    "Deadline",
    "FaultPlan",
    "FaultRule",
    "parse_fault",
    "AnalysisOutcome",
    "AnalysisPolicy",
    "StageAttempt",
    "analyse_with_policy",
    "ThroughputResult",
    "throughput",
    "hsdf_cycle_ratio_graph",
    "latency",
    "LatencyResult",
    "bottleneck",
    "BottleneckReport",
    "transient_analysis",
    "TransientAnalysis",
    "buffer_aware_graph",
    "buffer_aware_throughput",
    "channel_occupancy_bounds",
    "minimal_buffer_sizes",
    "ParetoPoint",
    "explore_buffer_throughput",
    "pareto_frontier",
    "PeriodicSchedule",
    "rate_optimal_schedule",
    "verify_periodic_schedule",
    "SensitivityReport",
    "sensitivity",
    "slack",
]
