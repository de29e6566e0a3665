"""Shared instance generators for the test suite.

Random instances keep probabilities dyadic (n/16) so that per-round masses
sum to exactly 1.0 in float arithmetic; exact-arithmetic oracles then see
genuinely normalized distributions.
"""

from __future__ import annotations

import numpy as np
import pytest

from regretaudit.core import PriceDistribution, PriceGrid, Transcript
from regretaudit.oracles import GroundTruth


def dyadic_distribution(rng: np.random.Generator, k: int) -> PriceDistribution:
    support_size = int(rng.integers(1, k + 1))
    support = sorted(rng.choice(k, size=support_size, replace=False).tolist())
    if support_size == 1:
        return PriceDistribution(support, [1.0])
    cuts = sorted(rng.choice(np.arange(1, 16), size=support_size - 1, replace=False).tolist())
    edges = [0, *cuts, 16]
    probs = [(b - a) / 16.0 for a, b in zip(edges, edges[1:])]
    return PriceDistribution(support, probs)


def random_instance(rng: np.random.Generator, k: int, rounds: int):
    """(grid, distributions, ground truth) with monotone allocations."""
    levels = np.sort(rng.uniform(0.1, 3.0, size=k))
    grid = PriceGrid(levels.tolist())
    dists = [dyadic_distribution(rng, k) for _ in range(rounds)]
    values = np.sort(rng.random((rounds, k)), axis=1)[:, ::-1].copy()
    truth = GroundTruth(grid.levels, values)
    return grid, dists, truth


def transcript_from(grid, dists, posted, allocs) -> Transcript:
    return Transcript.from_rounds(grid, posted, allocs, dists)


def sample_posted(rng: np.random.Generator, dists) -> list[int]:
    out = []
    for dist in dists:
        out.append(int(rng.choice(dist.support, p=np.asarray(dist.probs) / sum(dist.probs))))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
