"""Shared instance generators for the test suite.

Distributions are dense rows over the grid. Random instances keep
probabilities dyadic (n/16) so that per-round masses sum to exactly 1.0 in
float arithmetic; exact-arithmetic oracles then see genuinely normalized
distributions.
"""

from __future__ import annotations

import numpy as np
import pytest

from regretaudit.core import PriceGrid, Transcript
from regretaudit.oracles import GroundTruth

from witnesses import transcript_from_rounds


def dense_row(k: int, support, probs) -> np.ndarray:
    """A distribution over k grid prices: `probs` on `support`, 0 elsewhere."""
    row = np.zeros(k)
    row[list(support)] = probs
    return row


def dyadic_distribution(rng: np.random.Generator, k: int) -> np.ndarray:
    support_size = int(rng.integers(1, k + 1))
    support = sorted(rng.choice(k, size=support_size, replace=False).tolist())
    if support_size == 1:
        return dense_row(k, support, [1.0])
    cuts = sorted(rng.choice(np.arange(1, 16), size=support_size - 1, replace=False).tolist())
    edges = [0, *cuts, 16]
    probs = [(b - a) / 16.0 for a, b in zip(edges, edges[1:])]
    return dense_row(k, support, probs)


def random_instance(rng: np.random.Generator, k: int, rounds: int):
    """(grid, distributions, ground truth) with monotone allocations."""
    levels = np.sort(rng.uniform(0.1, 3.0, size=k))
    grid = PriceGrid(levels.tolist())
    dists = [dyadic_distribution(rng, k) for _ in range(rounds)]
    values = np.sort(rng.random((rounds, k)), axis=1)[:, ::-1].copy()
    truth = GroundTruth(grid.levels, values, np.arange(rounds))
    return grid, dists, truth


def transcript_from(grid, dists, posted, allocs) -> Transcript:
    return transcript_from_rounds(grid, posted, allocs, dists)


def sample_posted(rng: np.random.Generator, dists) -> list[int]:
    # Zeros leave the running sums of p at the support unchanged, so this
    # draws what choosing among the support alone would.
    return [int(rng.choice(len(row), p=np.divide(row, sum(map(float, row))))) for row in dists]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
