"""Pricing strategies and the two-seller market simulator.

Strategies: stateless Q-learning with an epsilon-greedy policy, a
multiplicative-weights learner (full feedback, the canonical mean-based
no-regret algorithm), fixed prices, and the two-phase manipulator schedule.

A strategy owns its state and the rows it plays. Its `rows` table keeps
each distinct distribution once, in order of first play, and
`distribution()` returns the round's row as its id in that table with the
running sums that draw reads. A row that recurs gets its id once: a
Q-learner memoizes its rows by greedy price, a fixed price or a
manipulator by price, and only a multiplicative-weights learner encodes a
new row each round. A Q-learner updates its table in place, writing only
the posted entry, from the maximum that the round's distribution() took;
`mwu_step` is the multiplicative-weights update as a pure function. Each
round the simulator records, per seller, the posted price, the observed
allocation and the row id, which with the strategy's table is exactly what
the audit consumes.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from .core import DistinctRows, PriceGrid, Transcript, block_rows, draw, running_sums
from .market import Market

# Probabilities at most this small are dropped from the emitted row; core
# rejects probabilities under 1e-15, so the support must stay explicit.
_MWU_SUPPORT_PRUNE = 1e-12

# What a strategy's distribution() returns: the round's row as its id in
# the strategy's `rows` table, and the row's running_sums, which draw reads.
Distribution = tuple[int, list[float]]


# ---------------------------------------------------------------------------
# Q-learning
# ---------------------------------------------------------------------------


def optimistic_q_init(grid: PriceGrid, cost: float, discount: float) -> list[float]:
    """Initialize every entry at the highest attainable continuation payoff."""
    top = (grid.max_level - cost) / (1.0 - discount)
    return [top] * len(grid)


def greedy_distribution(k: int, explore_eps: float, argmax_index: int) -> tuple[list[float], list[float]]:
    """Epsilon-greedy row, a new list of k floats, and its running_sums:
    explore uniformly with probability eps; eps 0 gives the point mass."""
    row = [explore_eps / k] * k
    row[argmax_index] += 1.0 - explore_eps
    return row, running_sums(row)


class QLearnerStrategy:
    """Stateless Q-learning: one continuation-payoff estimate per grid price.

    Bandit feedback: consumes only the posted price's utility. Plays the
    epsilon-greedy distribution of its current table, lowest index winning
    argmax ties. observe() follows the round's distribution(), whose
    maximum of the table it bootstraps from.
    """

    def __init__(
        self, q_values, learning_rate: float = 0.05, discount: float = 0.99, explore_eps: float = 0.01
    ):
        if not (0 < learning_rate <= 1):
            raise ValueError("learning_rate must be in (0, 1]")
        if not (0 <= discount < 1):
            raise ValueError("discount must be in [0, 1)")
        if not (0 <= explore_eps <= 1):
            raise ValueError("explore_eps must be in [0, 1]")
        self.q_values = np.asarray(q_values, dtype=float).tolist()
        self.learning_rate = learning_rate
        self.discount = discount
        self.explore_eps = explore_eps
        self.rows = DistinctRows(len(self.q_values))
        self._played: list[Distribution | None] = [None] * len(self.q_values)  # greedy index -> its play
        self._top = max(self.q_values)  # the table's maximum, as of the last distribution()

    @staticmethod
    def standard(grid: PriceGrid, cost: float, *, init=None, **params) -> "QLearnerStrategy":
        """Every entry starts at `init`, by default optimistically at the
        highest attainable continuation payoff; `params` as in the constructor."""
        if init is None:
            init = optimistic_q_init(grid, cost, QLearnerStrategy(np.zeros(len(grid)), **params).discount)
        return QLearnerStrategy(init, **params)

    def distribution(self) -> Distribution:
        q = self.q_values
        self._top = top = max(q)
        greedy = q.index(top)
        played = self._played[greedy]
        if played is None:
            row, sums = greedy_distribution(len(q), self.explore_eps, greedy)
            played = self._played[greedy] = (self.rows.add(row), sums)
        return played

    def observe(self, posted: int, utility: float, rewards) -> None:
        q, rate = self.q_values, self.learning_rate
        q[posted] = (1.0 - rate) * q[posted] + rate * (utility + self.discount * self._top)


# ---------------------------------------------------------------------------
# Multiplicative weights
# ---------------------------------------------------------------------------


def pairwise_sum(values: list[float]) -> float:
    """The floats' sum, added in the order numpy's np.add.reduce (and so
    ndarray.sum) adds a float64 vector: in order below 8 entries; up to 128,
    eight accumulators, each taking every eighth entry, added in a fixed
    tree, then the entries past the last multiple of 8 in order; above 128,
    the sums of two halves, the first a multiple of 8 long."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    end = n - n % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    for i in range(8, end, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = values[i : i + 8]
        r0, r1, r2, r3, r4, r5, r6, r7 = r0 + a0, r1 + a1, r2 + a2, r3 + a3, r4 + a4, r5 + a5, r6 + a6, r7 + a7
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for v in values[end:]:
        total += v
    return total


def mwu_distribution(cumulative_rewards: Sequence[float], step_size: float) -> list[float]:
    """Weights (1 + step_size) ** cumulative reward, normalized, as a dense
    row; probabilities at most 1e-12 are pruned and the rest renormalized.

    The weights take one np.exp over the grid (math.exp differs from it in
    the last bit on some inputs) and are summed by pairwise_sum, in numpy's
    order. The rest is float arithmetic."""
    top = max(cumulative_rewards)
    scale = math.log1p(step_size)
    w = np.exp([(s - top) * scale for s in cumulative_rewards]).tolist()
    total = pairwise_sum(w)
    probs = [x / total for x in w]
    # A running sum of the kept entries; sum() of floats compensates from
    # Python 3.12 on.
    kept = 0.0
    for p in probs:
        if p > _MWU_SUPPORT_PRUNE:
            kept += p
    return [p / kept if p > _MWU_SUPPORT_PRUNE else 0.0 for p in probs]


def mwu_step(cumulative_rewards: Sequence[float], full_feedback_rewards: Sequence[float]) -> list[float]:
    """Add one reward per price (each in [0, 1]), returned as a new list."""
    if min(full_feedback_rewards) < -1e-12 or max(full_feedback_rewards) > 1.0 + 1e-12:
        raise ValueError("rewards must lie in [0, 1] after normalization")
    return [c + r for c, r in zip(cumulative_rewards, full_feedback_rewards)]


class MWUStrategy:
    """Multiplicative weights: one cumulative reward per price.

    Full feedback: observes a reward for every price, the utility vector
    mapped onto [0, 1] by `rewards`. A new row nearly every round, so each
    is encoded in `rows` as it is played.
    """

    def __init__(self, cumulative_rewards, step_size: float, reward_lo: float, reward_hi: float):
        if not 0 < step_size < math.inf:
            raise ValueError(f"step_size must be positive and finite, got {step_size}")
        if not -math.inf < reward_lo < reward_hi < math.inf:
            raise ValueError(f"reward bounds must be finite and satisfy lo < hi, got [{reward_lo}, {reward_hi}]")
        self.cumulative_rewards = np.asarray(cumulative_rewards, dtype=float).tolist()
        self.step_size = step_size
        self.reward_lo = reward_lo
        self.reward_hi = reward_hi
        self.rows = DistinctRows(len(self.cumulative_rewards))

    @staticmethod
    def fresh(k: int, step_size: float, reward_lo: float, reward_hi: float) -> "MWUStrategy":
        return MWUStrategy(np.zeros(k), step_size, reward_lo, reward_hi)

    def rewards(self, utility_vectors) -> np.ndarray:
        """Utilities mapped onto [0, 1], elementwise, for any number of rounds."""
        return (np.asarray(utility_vectors, float) - self.reward_lo) / (self.reward_hi - self.reward_lo)

    def distribution(self) -> Distribution:
        row = mwu_distribution(self.cumulative_rewards, self.step_size)
        return self.rows.add(row), running_sums(row)

    def observe(self, posted: int, utility: float, rewards: Sequence[float]) -> None:
        self.cumulative_rewards = mwu_step(self.cumulative_rewards, rewards)


def mean_based_gamma(step_size: float, horizon: int) -> float:
    """Smallest gamma for which this step size keeps the learner gamma-mean-based.

    A price trailing the cumulative-reward leader by more than gamma * horizon
    has weight ratio at most (1 + step_size) ** -(gamma * horizon); the
    returned gamma is where that ratio equals gamma.
    """
    log1p = math.log1p(step_size)

    def f(g: float) -> float:
        return g * horizon * log1p + math.log(g)

    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi


def is_mean_based_violation(cumulative_rewards, posted_probs, posted, gamma: float, horizon: int) -> np.ndarray:
    """Per round, rounds on the leading axis: True when the posted price
    trails the cumulative-reward leader by more than gamma * horizon yet was
    posted with probability above gamma. `cumulative_rewards` (over the
    grid) are the learner's before the round, and `posted_probs` the
    probability it gave the posted price."""
    sigma = np.asarray(cumulative_rewards, dtype=float)
    index = np.asarray(posted)[..., None]
    gap = sigma.max(axis=-1) - np.take_along_axis(sigma, index, axis=-1)[..., 0]
    return (gap > gamma * horizon) & (np.asarray(posted_probs, dtype=float) > gamma)


def mean_based_violations(
    learner: MWUStrategy, utilities, opponent_posted, transcript: Transcript, gamma: float, horizon: int
) -> int:
    """How many rounds of a multiplicative-weights learner's transcript are
    mean-based violations (see is_mean_based_violation). `utilities` holds
    its payoffs indexed [opponent's price][own price] and `opponent_posted`
    the opponent's price each round. Its cumulative rewards before each
    round are a running sum of its normalized rewards, added in the order
    the simulator added them: np.cumsum adds rows in order, so a block of
    rounds that starts from the sum carried from the last one gives the
    same floats as one sum over every round."""
    posted = transcript.posted
    carry = np.zeros((1, len(transcript.grid)))
    step = block_rows(len(transcript.grid))
    count = 0
    for lo in range(0, len(posted), step):
        hi = lo + step
        rewards = learner.rewards(utilities[opponent_posted[lo:hi]])
        sums = np.cumsum(np.vstack([carry, rewards]), axis=0)
        carry = sums[-1:]
        probs = transcript.dist_table[transcript.dist_index[lo:hi], posted[lo:hi]]
        count += int(is_mean_based_violation(sums[:-1], probs, posted[lo:hi], gamma, horizon).sum())
    return count


# ---------------------------------------------------------------------------
# Manipulator schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManipulatorSchedule:
    """Post one price for a burn-in block, then switch and hold."""

    phase1_rounds: int
    phase1_price: float
    phase2_rounds: int
    phase2_price: float

    def __post_init__(self):
        if self.phase1_rounds <= 0 or self.phase2_rounds <= 0:
            raise ValueError("phase lengths must be positive")

    @property
    def total_rounds(self) -> int:
        return self.phase1_rounds + self.phase2_rounds

    @staticmethod
    def standard(phase1_rounds: int) -> "ManipulatorSchedule":
        return ManipulatorSchedule(phase1_rounds, 1.0, math.ceil(1.1 * phase1_rounds), 3.0)

    @staticmethod
    def for_horizon(rounds: int) -> "ManipulatorSchedule":
        """The standard schedule whose phase 1 is ceil(rounds / 2.1), with
        2.1 = 1 + standard's 1.1, so that it covers about `rounds` rounds."""
        return ManipulatorSchedule.standard(math.ceil(rounds / 2.1))


def manipulator_next(schedule: ManipulatorSchedule, round_no: int) -> float:
    """Price level for the given 1-based round."""
    if not (1 <= round_no <= schedule.total_rounds):
        raise ValueError(f"round {round_no} outside horizon 1..{schedule.total_rounds}")
    return schedule.phase1_price if round_no <= schedule.phase1_rounds else schedule.phase2_price


# ---------------------------------------------------------------------------
# Fixed-price and manipulator strategies
# ---------------------------------------------------------------------------


def _price_index(grid: PriceGrid, price: float, who: str) -> int:
    if float(price) not in grid.levels:
        raise ValueError(f"{who} price {float(price):g} is not on the grid")
    return grid.levels.index(float(price))


def _point_mass(rows: DistinctRows, index: int) -> Distribution:
    """Grid index `index` played for sure, its row added to `rows`."""
    row, sums = greedy_distribution(rows.k, 0.0, index)
    return rows.add(row), sums


class FixedPriceStrategy:
    def __init__(self, index: int, k: int):
        if not (0 <= index < k):
            raise ValueError(f"fixed price index {index} outside grid of size {k}")
        self.index = index
        self.rows = DistinctRows(k)
        self._played: Distribution | None = None

    def distribution(self) -> Distribution:
        if self._played is None:
            self._played = _point_mass(self.rows, self.index)
        return self._played

    def observe(self, posted: int, utility: float, rewards) -> None:
        pass


class ManipulatorStrategy:
    """Plays the schedule's price for the current round, deterministically."""

    def __init__(self, schedule: ManipulatorSchedule, grid: PriceGrid):
        self.schedule = schedule
        self._round = 1
        self.rows = DistinctRows(len(grid))
        self._index = {
            level: _price_index(grid, level, "manipulator") for level in (schedule.phase1_price, schedule.phase2_price)
        }
        self._played: dict[float, Distribution] = {}  # a phase's price -> its play

    def distribution(self) -> Distribution:
        level = manipulator_next(self.schedule, self._round)
        played = self._played.get(level)
        if played is None:
            played = self._played[level] = _point_mass(self.rows, self._index[level])
        return played

    def observe(self, posted: int, utility: float, rewards) -> None:
        self._round += 1


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationResult:
    transcripts: tuple[Transcript, Transcript]
    payoffs: tuple[np.ndarray, np.ndarray]


def _stream(seed: int, tag: int) -> np.random.Generator:
    # Counter-based generator keyed by (seed, role); round t reads the t-th
    # entry of the pre-generated array, so draws depend only on
    # (seed, round, role), never on evaluation order.
    return np.random.Generator(np.random.Philox(key=[int(seed) % 2**64, tag]))


def reward_bounds(market: Market, feedback_mode: str = "expected") -> tuple[float, float]:
    """Affine normalization range for learners needing rewards in [0, 1].

    Expected feedback spans the payoff matrix: [min(0, lowest payoff),
    highest payoff]. Realized feedback pays (price - cost) * {0, 1}, so the
    range must cover the raw margins instead.
    """
    if feedback_mode == "realized":
        margins = [lv - c for lv in market.grid.levels for c in market.costs]
        return min(0.0, min(margins)), max(margins)
    (_, u1), (_, u2) = market.tables
    return min(0.0, float(u1.min()), float(u2.min())), max(float(u1.max()), float(u2.max()))


def _expected_feedback(market: Market, strategies):
    """A round's feedback read from the market's tables, as nested lists
    indexed [opponent's price][own price]: each seller's allocation and
    utility at the posted prices, and its full-feedback reward row (the
    utility row through `rewards`) if it is a multiplicative-weights
    learner, else None."""
    (a1, u1), (a2, u2) = market.tables
    A1, U1, A2, U2 = a1.tolist(), u1.tolist(), a2.tolist(), u2.tolist()
    R1, R2 = (
        strat.rewards(util).tolist() if isinstance(strat, MWUStrategy) else [None] * len(util)
        for strat, (_, util) in zip(strategies, market.tables)
    )

    def feedback(a: int, b: int, buyer) -> tuple:
        return A1[b][a], U1[b][a], R1[b], A2[a][b], U2[a][b], R2[a]

    return feedback


def _realized_feedback(market: Market, strategies):
    """A round's feedback from one buyer's choice, the oracle's
    realized_choice: each seller's indicator allocation at the posted
    prices, its utility (price - cost) * allocation, and its full-feedback
    reward row (the utility row through `rewards`) if it is a
    multiplicative-weights learner, else None."""
    levels = list(market.grid.levels)
    choose = market.oracle.realized_choice
    m1, m2 = ([lv - cost for lv in levels] for cost in market.costs)

    def reward_row(strat, margins):
        if isinstance(strat, MWUStrategy):
            return lambda alloc: strat.rewards([m * x for m, x in zip(margins, alloc)]).tolist()
        return lambda alloc: None

    r1, r2 = (reward_row(strat, margins) for strat, margins in zip(strategies, (m1, m2)))

    def feedback(a: int, b: int, buyer) -> tuple:
        x1, x2 = choose(levels, (a, b), buyer)
        return x1[a], m1[a] * x1[a], r1(x1), x2[b], m2[b] * x2[b], r2(x2)

    return feedback


def simulate(market: Market, strategies, rounds: int, feedback_mode: str = "expected", seed: int = 0) -> SimulationResult:
    """Run two strategies against each other on the market for `rounds` rounds.

    feedback_mode "expected" gives each seller the expected payoff
    (price - cost) * x of every price; "realized" draws the buyer's actual
    decision, the oracle's realized_choice, and gives indicator allocations.
    Deterministic given the seed.

    Each strategy plays one simulation, from a fresh `rows` table, which
    becomes its transcript's table. Its `distribution()` gives a
    Distribution; `observe(posted, utility, rewards)` gets the full-feedback
    reward row if the strategy is a multiplicative-weights learner, else
    None. Both modes run the one loop below, through a feedback function
    chosen here.
    """
    if feedback_mode not in ("expected", "realized"):
        raise ValueError("feedback_mode must be 'expected' or 'realized'")
    first, second = strategies
    if len(first.rows) or len(second.rows):
        raise ValueError("a strategy plays one simulation; build a new one for each run")
    # One draw per stream, before the loop: a horizon too large to allocate
    # fails here. Iterating a memoryview gives each uniform as a Python float.
    uniforms = zip(memoryview(_stream(seed, 0).random(rounds)), memoryview(_stream(seed, 1).random(rounds)))
    if feedback_mode == "realized":
        # Round t's buyer reads the stream's entries 3t, 3t + 1 and 3t + 2.
        buyers = zip(*[iter(memoryview(_stream(seed, 2).random(3 * rounds)))] * 3)
        feedback = _realized_feedback(market, strategies)
    else:
        buyers = repeat(None)
        feedback = _expected_feedback(market, strategies)

    # Typed columns of each seller's posted prices, allocations and row
    # ids, filled as the rounds are drawn; no per-round object outlives
    # its round.
    posted1, allocs1, ids1 = array("q"), array("d"), array("q")
    posted2, allocs2, ids2 = array("q"), array("d"), array("q")
    dist1, observe1 = first.distribution, first.observe
    dist2, observe2 = second.distribution, second.observe
    for (u1, u2), buyer in zip(uniforms, buyers):
        d1, sums1 = dist1()
        d2, sums2 = dist2()
        a = draw(sums1, u1)
        b = draw(sums2, u2)
        x1, v1, r1, x2, v2, r2 = feedback(a, b, buyer)
        posted1.append(a)
        allocs1.append(x1)
        ids1.append(d1)
        observe1(a, v1, r1)
        posted2.append(b)
        allocs2.append(x2)
        ids2.append(d2)
        observe2(b, v2, r2)

    grid, costs = market.grid, market.costs
    transcripts = (
        Transcript(grid, _column(posted1), _column(allocs1), _column(ids1), first.rows.table()),
        Transcript(grid, _column(posted2), _column(allocs2), _column(ids2), second.rows.table()),
    )
    # Each round's payoff, the utility the seller observed: (price - cost) *
    # allocation, the product that the payoff tables and the realized
    # utilities hold.
    lv = np.asarray(grid.levels)
    payoffs = tuple((lv - costs[i])[tr.posted] * tr.alloc for i, tr in enumerate(transcripts))
    return SimulationResult(transcripts, payoffs)


def _column(values: array) -> np.ndarray:
    return np.frombuffer(values, dtype=values.typecode)


# ---------------------------------------------------------------------------
# Strategy configuration (JSON wire format)
# ---------------------------------------------------------------------------


def strategy_from_config(config: dict, market: Market, seller_index: int, rounds: int, feedback_mode: str = "expected"):
    """Build a strategy on the market from {"kind": "q"|"mwu"|"fixed"|"manipulator", ...}."""
    kind = config.get("kind")
    grid, cost = market.grid, market.costs[seller_index]
    if kind == "q":
        init = config.get("init")
        keys = ("learning_rate", "discount", "explore_eps")
        return QLearnerStrategy.standard(
            grid,
            cost,
            init=None if init is None else [float(init)] * len(grid),
            **{key: config[key] for key in keys if key in config},
        )
    if kind == "mwu":
        lo, hi = reward_bounds(market, feedback_mode)
        return MWUStrategy.fresh(len(grid), config["step_size"], lo, hi)
    if kind == "fixed":
        if "index" in config and "price" in config:
            raise ValueError("fixed strategy: give key 'price' or 'index', not both")
        if "index" in config:
            return FixedPriceStrategy(config["index"], len(grid))
        if "price" not in config:
            raise ValueError("fixed strategy: missing key 'price' or 'index'")
        return FixedPriceStrategy(_price_index(grid, config["price"], "fixed"), len(grid))
    if kind == "manipulator":
        standard = (
            ManipulatorSchedule.standard(config["phase1_rounds"])
            if "phase1_rounds" in config
            else ManipulatorSchedule.for_horizon(rounds)
        )
        given = {key: float(v) if key.endswith("_price") else v for key, v in config.items() if key != "kind"}
        schedule = replace(standard, **given)
        if schedule.total_rounds < rounds:
            raise ValueError(
                f"manipulator strategy: phase1_rounds + phase2_rounds = {schedule.total_rounds}"
                f" is less than the {rounds} rounds to simulate"
            )
        return ManipulatorStrategy(schedule, grid)
    raise ValueError(f"unknown strategy kind {kind!r}")
