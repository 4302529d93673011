"""Deterministic simulator of robust, fairness-aware federated averaging.

A server repeatedly merges client model uploads. Suspicious uploads are
filtered by pairwise parameter distances, and the merge weights over
the survivors come from a deterministic-policy actor-critic trained on
held-out validation accuracy. Everything runs on plain numpy with
reproducible, seeded randomness; large rounds train their clients on
every usable CPU with byte-identical results.
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
