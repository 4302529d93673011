"""Deterministic simulator of robust, fairness-aware federated averaging.

A server repeatedly merges client model uploads. Suspicious uploads are
filtered by pairwise parameter distances, and the merge weights over
the survivors come from a deterministic-policy actor-critic trained on
held-out validation accuracy. Everything runs on plain numpy with
reproducible, seeded randomness; large rounds train their clients on
every usable CPU with byte-identical results.
"""

import os

# One BLAS thread per process unless the caller has set the count, before
# numpy is first imported: a run's many small matmuls on OpenBLAS's own
# thread pool took 2-9x as long on a 2-vCPU Xeon (a 100-client MLP run),
# and a training pool already runs a process on each usable CPU.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

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
