"""Reproducible random streams.

Every stochastic function takes a :class:`RandomStream`, a value object
identified by a 64-bit seed and a string label. Identical (seed, label) pairs
reproduce identical draws, and child streams derive from labels, not from draw
order, so results do not depend on the order units run in. A numpy ``Generator``
is only a sequence that one function draws from, such as the annealing chain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RandomStream:
    """A named, seedable source of randomness with value semantics."""

    seed: int
    label: str = ""

    def child(self, *parts) -> "RandomStream":
        """Derive a sub-stream whose draws are independent of sibling streams."""
        suffix = "/".join(str(p) for p in parts)
        label = f"{self.label}/{suffix}" if self.label else suffix
        return RandomStream(self.seed, label)

    def generator(self) -> np.random.Generator:
        """A fresh generator; repeated calls restart the same sequence."""
        digest = hashlib.sha256(f"{self.seed}\x1f{self.label}".encode()).digest()
        words = np.frombuffer(digest, dtype=np.uint32).tolist()
        return np.random.default_rng(np.random.SeedSequence(words))
