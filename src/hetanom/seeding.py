"""Deterministic seed derivation.

Every randomized component draws from its own generator whose seed is
derived from (root seed, tag path) by hashing. Sibling streams therefore
never depend on construction order: a seed's results are bitwise the same
whichever seeds run with it and in whatever order they run.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root: int, *tags) -> int:
    """Derive an independent 64-bit seed from ``root`` and a tag path."""
    h = hashlib.sha256()
    h.update(str(int(root)).encode())
    for tag in tags:
        h.update(b"/")
        h.update(str(tag).encode())
    return int.from_bytes(h.digest()[:8], "little")


def rng_for(root: int, *tags) -> np.random.Generator:
    """A fresh PCG64 generator for the stream named by ``tags``."""
    return np.random.default_rng(derive_seed(root, *tags))
