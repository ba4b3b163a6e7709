"""Seeded random number generation.

Every source of randomness in the system (workload generation, submission
site choice, latency jitter) draws from a :class:`DeterministicRng` derived
from the single configured seed, so experiments replay exactly.  Named
streams keep one consumer's draws from perturbing another's.
"""

from __future__ import annotations

import random

from repro.errors import SimulationError

# The type every randomness consumer is handed: a seeded stream derived
# from :class:`DeterministicRng`.  Modules outside ``repro.sim`` must not
# ``import random`` themselves (enforced by a test); they annotate with
# this alias and receive an injected, seeded instance.
RandomStream = random.Random


class DeterministicRng:
    """A set of independent, named ``random.Random`` streams."""

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise SimulationError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the independent stream ``name``.

        The stream seed mixes the root seed with a stable hash of the name,
        so adding a new stream never changes existing streams' sequences.
        """
        if name not in self._streams:
            # Stable string hash (hash() is salted per process).
            mixed = self.seed
            for char in name:
                mixed = (mixed * 1_000_003 + ord(char)) % (2**63)
            self._streams[name] = random.Random(mixed)
        return self._streams[name]

    def __repr__(self) -> str:
        return f"DeterministicRng(seed={self.seed}, streams={sorted(self._streams)})"
