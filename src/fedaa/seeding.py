"""Deterministic fan-out from one master seed to named substreams.

Every source of randomness in an experiment draws from its own
``numpy.random.Generator`` seeded by ``derive_seed(master, *labels)``.
Labels may be strings ("data", "roles") or integers (round, client id);
mixing goes through splitmix64 so related labels produce unrelated
streams. Reordering or skipping consumers therefore never perturbs the
draws of another subsystem.
"""

from __future__ import annotations

import numpy as np

# master seeds lie below SEED_LIMIT, as derive_seed keeps their low 64 bits
SEED_LIMIT = 1 << 64
_MASK64 = SEED_LIMIT - 1


def splitmix64(x: int) -> int:
    """One splitmix64 output step for the 64-bit state ``x``."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _label_code(part: int | str) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    # FNV-1a over the UTF-8 bytes of string labels
    code = 0xCBF29CE484222325
    for byte in str(part).encode("utf-8"):
        code = ((code ^ byte) * 0x100000001B3) & _MASK64
    return code


def derive_seed(master: int, *parts: int | str) -> int:
    """Fold ``parts`` into ``master`` and return a 64-bit stream seed."""
    state = int(master) & _MASK64
    for part in parts:
        state = splitmix64(state ^ _label_code(part))
    return splitmix64(state)


def stream(master: int, *parts: int | str) -> np.random.Generator:
    """Generator for the substream named by ``parts``."""
    return np.random.default_rng(derive_seed(master, *parts))
