"""Noise thresholds for local realism of entangled qudit pairs measured
through phased unbiased multiport beamsplitters.

Computes the critical chaotic-noise fraction F_thr = 1 - V_thr below which
no local hidden variable model reproduces the quantum statistics, using a
self-contained two-phase simplex over deterministic strategies, and replays
the symmetry derivation that pins the two-setting qutrit threshold at
F_thr = (11 - 6*sqrt(3))/2.
"""

from .proof import ProofCheck, ProofReport, run_proof
from .quantum import ExperimentConfig
from .simplex import SolverFailure
from .threshold import (
    ScanResult,
    ThresholdResult,
    builtin_config,
    correlation_threshold,
    probability_threshold,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "ProofCheck",
    "ProofReport",
    "ScanResult",
    "SolverFailure",
    "ThresholdResult",
    "builtin_config",
    "correlation_threshold",
    "probability_threshold",
    "run_proof",
    "scan",
]
