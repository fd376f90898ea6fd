"""Simulated distributed pipeline (``pipeline``) and threshold estimators (``estimate``)."""

from . import estimate, pipeline
from .pipeline import (
    CommLog,
    Decomposition,
    DistributedResult,
    Extent,
    Records,
    RegionState,
    decompose,
    fan_in,
    list_attachment_points,
    local_phase,
    run_distributed,
    run_lambda_sweep,
)

__all__ = [
    "CommLog",
    "Decomposition",
    "DistributedResult",
    "Extent",
    "Records",
    "RegionState",
    "decompose",
    "estimate",
    "fan_in",
    "list_attachment_points",
    "local_phase",
    "pipeline",
    "run_distributed",
    "run_lambda_sweep",
]
