"""edgeprep: quality-aware preprocessing for shared sensor streams.

Redundant, heterogeneous sensor streams feed multiple collocated services.
This package scores sensors dynamically (fuzzy-voted accuracy, Poisson
consistency-based reliability), ranks and selects them against per-service
QoS targets, fuses and interpolates the surviving streams, and emits
per-service feature vectors through a unified pipeline that computes shared
intermediate inferences exactly once.

The top level holds the README's entry points; everything else is imported
from its module (``edgeprep.model``, ``edgeprep.harness``, ...).
"""

from .model import ConfigError
from .voting import (
    VotingConfig,
    assign_accuracy,
    cumulative_scores,
    membership_matrix,
    normalize,
    select_optimal,
)
from .pipeline import Mode, Pipeline
from .harness import compare_modes, load_scenario, run_scenario

__version__ = "0.1.0"
