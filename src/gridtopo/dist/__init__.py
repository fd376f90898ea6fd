"""Simulated distributed pipeline (``pipeline``) and threshold estimators (``estimate``)."""

from . import estimate, pipeline
from .pipeline import (
    CommLog,
    Decomposition,
    DistributedResult,
    Extent,
    Records,
    RegionState,
    Transport,
    decompose,
    fan_in,
    fan_out,
    list_attachment_points,
    local_phase,
    run_distributed,
    select_top_branches_distributed,
)

__all__ = [
    "CommLog",
    "Decomposition",
    "DistributedResult",
    "Extent",
    "Records",
    "RegionState",
    "Transport",
    "decompose",
    "estimate",
    "fan_in",
    "fan_out",
    "list_attachment_points",
    "local_phase",
    "pipeline",
    "run_distributed",
    "select_top_branches_distributed",
]
