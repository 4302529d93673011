"""Deterministic simulator of robust, fairness-aware federated averaging.

A server repeatedly merges client model uploads. Suspicious uploads are
filtered by pairwise parameter distances, and the merge weights over
the survivors come from a deterministic-policy actor-critic trained on
held-out validation accuracy. Everything runs single-process on plain
numpy with reproducible, seeded randomness.
"""

from .errors import (
    ConfigError,
    FedaaError,
    IngestionError,
    InternalError,
    NumericError,
    ParseError,
    SimulationError,
)
from .data import lognormal_sizes
from .seeding import stream

__version__ = "0.1.0"
