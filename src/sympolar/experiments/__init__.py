"""Reproduction experiments: random generation, sign-vector enumeration,
and the exact sequence comparisons."""

from sympolar.experiments.generate import (
    BatchResult,
    ExperimentRecord,
    IterationStep,
    batch_generate,
    random_selfpolar,
    sample_start_points,
)
from sympolar.experiments.pm1 import (
    CliqueClass,
    Pm1Result,
    compatibility_adjacency,
    enumerate_pm1,
    maximal_cliques,
    sign_vector_pairs,
)
from sympolar.experiments.sequences import (
    SEQUENCES,
    MonotonicityReport,
    SequenceValue,
    l2_sum_volume,
    monotonicity_check,
    sequence_compare,
    sequence_viterbo_ratio,
)

__all__ = [
    "SEQUENCES",
    "BatchResult",
    "CliqueClass",
    "ExperimentRecord",
    "IterationStep",
    "MonotonicityReport",
    "Pm1Result",
    "SequenceValue",
    "batch_generate",
    "compatibility_adjacency",
    "enumerate_pm1",
    "l2_sum_volume",
    "maximal_cliques",
    "monotonicity_check",
    "random_selfpolar",
    "sample_start_points",
    "sequence_compare",
    "sequence_viterbo_ratio",
    "sign_vector_pairs",
]
