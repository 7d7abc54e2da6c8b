"""Deterministic random-number helpers.

Every stochastic component in the library (turbulence synthesis, workload
generators, scheduler jitter models) takes an explicit seed so runs are
reproducible; this module centralises the Generator construction.
"""

from __future__ import annotations

import numpy as np


def seeded_rng(seed: int, *streams: int) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``(seed, *streams)``.

    ``streams`` identifies independent substreams (e.g. one per virtual
    rank) derived from the same root seed, so that per-rank randomness is
    both reproducible and uncorrelated with rank count.
    """
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0] if not streams
                                 else np.random.SeedSequence((seed, *streams)))
