"""Pricing strategies and the two-seller market simulator.

Strategies: stateless Q-learning with an epsilon-greedy policy, a
multiplicative-weights learner (full feedback, the canonical mean-based
no-regret algorithm), fixed prices, and the two-phase manipulator schedule.
A learner owns its state, a list of floats, and updates it with a pure
function that returns a new list (`q_step`, `mwu_step`). Each round the
simulator records, per seller, the posted price, the observed allocation,
and the price distribution it was drawn from, which is exactly what the
audit consumes.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import DistinctRows, PriceGrid, Transcript, block_rows, draw, running_sums
from .market import demand_table

# Probabilities at most this small are dropped from the emitted row; core
# rejects probabilities under 1e-15, so the support must stay explicit.
_MWU_SUPPORT_PRUNE = 1e-12

# What a strategy's distribution() returns: a dense row over the grid and
# the row's running_sums, which draw reads.
Distribution = tuple[Sequence[float], tuple[list[float], int]]


# ---------------------------------------------------------------------------
# Q-learning
# ---------------------------------------------------------------------------


def optimistic_q_init(grid: PriceGrid, cost: float, discount: float) -> list[float]:
    """Initialize every entry at the highest attainable continuation payoff."""
    top = (grid.max_level - cost) / (1.0 - discount)
    return [top] * len(grid)


@lru_cache(maxsize=None)
def greedy_distribution(k: int, explore_eps: float, argmax_index: int) -> Distribution:
    """Epsilon-greedy row and its running_sums: explore uniformly with
    probability eps; eps 0 gives the point mass. Cached and shared, so the
    row is read-only and its running sums are added once."""
    row = np.full(k, explore_eps / k)
    row[argmax_index] += 1.0 - explore_eps
    row.flags.writeable = False
    return row, running_sums(row.tolist())


def q_step(
    q_values: Sequence[float], observed_utility: float, posted: int, learning_rate: float, discount: float
) -> list[float]:
    """One bandit update, returned as a new table: only the posted price's
    entry moves, bootstrapping from the prior-step table."""
    q = list(q_values)
    target = observed_utility + discount * max(q)
    q[posted] = (1.0 - learning_rate) * q[posted] + learning_rate * target
    return q


class QLearnerStrategy:
    """Stateless Q-learning: one continuation-payoff estimate per grid price.

    Bandit feedback: consumes only the posted price's utility. Plays the
    epsilon-greedy distribution of its current table, lowest index winning
    argmax ties.
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

    @staticmethod
    def standard(grid: PriceGrid, cost: float, *, init=None, **params) -> "QLearnerStrategy":
        """Every entry starts at `init`, by default optimistically at the
        highest attainable continuation payoff; `params` as in the constructor."""
        learner = QLearnerStrategy(np.zeros(len(grid)), **params)
        if init is None:
            init = optimistic_q_init(grid, cost, learner.discount)
        learner.q_values = np.asarray(init, dtype=float).tolist()
        return learner

    def distribution(self) -> Distribution:
        q = self.q_values
        return greedy_distribution(len(q), self.explore_eps, q.index(max(q)))

    def observe(self, posted: int, utility: float, rewards) -> None:
        self.q_values = q_step(self.q_values, utility, posted, self.learning_rate, self.discount)


# ---------------------------------------------------------------------------
# Multiplicative weights
# ---------------------------------------------------------------------------


def mwu_distribution(cumulative_rewards: Sequence[float], step_size: float) -> list[float]:
    """Weights (1 + step_size) ** cumulative reward, normalized, as a dense
    row; probabilities at most 1e-12 are pruned and the rest renormalized.

    The weights take one np.exp over the grid, and numpy sums them: it adds
    in order below 8 entries and in pairs from 8 up. The rest is float
    arithmetic."""
    top = max(cumulative_rewards)
    scale = math.log1p(step_size)
    w = np.exp([(s - top) * scale for s in cumulative_rewards])
    total = float(w.sum())
    probs = [x / total for x in w.tolist()]
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
    mapped onto [0, 1] by `rewards`.
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

    @staticmethod
    def fresh(k: int, step_size: float, reward_lo: float, reward_hi: float) -> "MWUStrategy":
        return MWUStrategy(np.zeros(k), step_size, reward_lo, reward_hi)

    def rewards(self, utility_vectors) -> np.ndarray:
        """Utilities mapped onto [0, 1], elementwise, for any number of rounds."""
        return (np.asarray(utility_vectors, float) - self.reward_lo) / (self.reward_hi - self.reward_lo)

    def distribution(self) -> Distribution:
        row = mwu_distribution(self.cumulative_rewards, self.step_size)
        return row, running_sums(row)

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


class FixedPriceStrategy:
    def __init__(self, index: int, k: int):
        if not (0 <= index < k):
            raise ValueError(f"fixed price index {index} outside grid of size {k}")
        self.index = index
        self._row = greedy_distribution(k, 0.0, index)

    def distribution(self) -> Distribution:
        return self._row

    def observe(self, posted: int, utility: float, rewards) -> None:
        pass


class ManipulatorStrategy:
    """Plays the schedule's price for the current round, deterministically."""

    def __init__(self, schedule: ManipulatorSchedule, grid: PriceGrid):
        self.schedule = schedule
        self._round = 1
        self._rows = {
            level: greedy_distribution(len(grid), 0.0, _price_index(grid, level, "manipulator"))
            for level in (schedule.phase1_price, schedule.phase2_price)
        }

    def _level(self) -> float:
        return manipulator_next(self.schedule, self._round)

    def distribution(self) -> Distribution:
        return self._rows[self._level()]

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


def payoff_tables(oracle, grid: PriceGrid, costs: Sequence[float]):
    """Each seller's float (allocation, utility) tables, indexed
    [opponent's price][own price] as demand_table lays them out."""
    lv = np.asarray(grid.levels)
    allocs = [np.array(demand, dtype=float) for demand in demand_table(oracle, grid.levels)]
    return tuple((alloc, (lv - cost) * alloc) for alloc, cost in zip(allocs, costs))


def reward_bounds(
    oracle, grid: PriceGrid, costs: Sequence[float], feedback_mode: str = "expected"
) -> tuple[float, float]:
    """Affine normalization range for learners needing rewards in [0, 1].

    Expected feedback spans the payoff matrix: [min(0, lowest payoff),
    highest payoff]. Realized feedback pays (price - cost) * {0, 1}, so the
    range must cover the raw margins instead.
    """
    if feedback_mode == "realized":
        margins = [lv - c for lv in grid.levels for c in costs]
        return min(0.0, min(margins)), max(margins)
    (_, u1), (_, u2) = payoff_tables(oracle, grid, costs)
    lo = min(0.0, float(u1.min()), float(u2.min()))
    hi = max(float(u1.max()), float(u2.max()))
    return lo, hi


def simulate(
    grid: PriceGrid,
    strategies,
    oracle,
    costs: Sequence[float],
    rounds: int,
    feedback_mode: str = "expected",
    seed: int = 0,
) -> SimulationResult:
    """Run two strategies against each other for `rounds` rounds.

    feedback_mode "expected" gives each seller the expected payoff
    (price - cost) * x of every price; "realized" draws the buyer's actual
    decision and gives indicator allocations. Deterministic given the seed.

    A strategy's `distribution()` gives a Distribution;
    `observe(posted, utility, rewards)` gets the full-feedback reward row
    (the utility vector through `rewards`) if the strategy is a
    multiplicative-weights learner, else None. Expected feedback reads every
    round's payoffs and rewards from tables built once, as nested lists
    indexed [opponent's price][own price].
    """
    if feedback_mode not in ("expected", "realized"):
        raise ValueError("feedback_mode must be 'expected' or 'realized'")
    lv = np.asarray(grid.levels)
    tables = payoff_tables(oracle, grid, costs)
    alloc_rows = [alloc.tolist() for alloc, _ in tables]
    util_rows = [util.tolist() for _, util in tables]
    full_feedback = [isinstance(strat, MWUStrategy) for strat in strategies]
    reward_rows = [
        strat.rewards(util).tolist() if full else None
        for strat, (_, util), full in zip(strategies, tables, full_feedback)
    ]
    # One draw per stream, before the loop: a horizon too large to allocate
    # fails here. Iterating a memoryview gives each uniform as a Python float.
    action_u = zip(memoryview(_stream(seed, 0).random(rounds)), memoryview(_stream(seed, 1).random(rounds)))
    realized = feedback_mode == "realized"
    if realized:
        buyer_u = _stream(seed, 2).random((rounds, 3))
        diff_cells = None
        if hasattr(oracle, "diff_distribution"):
            items = sorted(oracle.diff_distribution().items())
            diffs = np.array([float(d) for d, _ in items])
            cum = np.cumsum([float(p) for _, p in items])
            diff_cells = (diffs, cum)

    # Per seller: the strategy, typed columns of its posted prices,
    # allocations and row ids, filled as the rounds are drawn, and its
    # distinct rows. Each round's row is encoded at once, so no per-round
    # object outlives its round.
    sellers = [(strat, array("q"), array("d"), array("q"), DistinctRows(len(grid))) for strat in strategies]

    for t, uniforms in enumerate(action_u):
        current = [strat.distribution() for strat in strategies]
        actions = [draw(sums, u) for (_, sums), u in zip(current, uniforms)]
        if realized:
            vecs = _realized_vectors(oracle, lv, actions, buyer_u[t], diff_cells)
            util_vecs = [(lv - costs[i]) * vecs[i] for i in range(2)]
        for i, (strat, posted, allocs, dist_ids, table) in enumerate(sellers):
            a, opp = actions[i], actions[1 - i]
            if realized:
                alloc, util = float(vecs[i][a]), float(util_vecs[i][a])
                rewards = strat.rewards(util_vecs[i]).tolist() if full_feedback[i] else None
            else:
                alloc, util = alloc_rows[i][opp][a], util_rows[i][opp][a]
                rewards = reward_rows[i][opp] if full_feedback[i] else None
            posted.append(a)
            allocs.append(alloc)
            dist_ids.append(table.add(current[i][0]))
            strat.observe(a, util, rewards)

    transcripts = tuple(
        Transcript(grid, *map(_column, (posted, allocs, dist_ids)), table.table())
        for _, posted, allocs, dist_ids, table in sellers
    )
    # Each round's payoff, the utility the seller observed: (price - cost) *
    # allocation, the product that the payoff tables and the realized
    # utility vectors hold.
    payoffs = tuple((lv - costs[i])[tr.posted] * tr.alloc for i, tr in enumerate(transcripts))
    return SimulationResult(transcripts, payoffs)


def _column(values: array) -> np.ndarray:
    return np.frombuffer(values, dtype=values.typecode)


def _realized_vectors(oracle, lv: np.ndarray, actions, draws, diff_cells):
    """Indicator allocation vectors over each seller's own grid for one round."""
    if diff_cells is not None:
        diffs, cum = diff_cells
        cell = int(np.searchsorted(cum, draws[0], side="right"))
        d = diffs[min(cell, len(diffs) - 1)]
        coin = draws[2] < 0.5
        # Buyer takes good 1 when v1 - v2 beats the price gap, coin on ties.
        gaps1 = lv - lv[actions[1]]
        gaps2 = lv[actions[0]] - lv
        vec1 = np.where(d > gaps1, 1.0, np.where(d == gaps1, 1.0 if coin else 0.0, 0.0))
        vec2 = np.where(d < gaps2, 1.0, np.where(d == gaps2, 0.0 if coin else 1.0, 0.0))
        return vec1, vec2
    v1, v2 = draws[0], draws[1]
    m2 = v2 - lv[actions[1]]
    m1 = v1 - lv[actions[0]]
    own1 = v1 - lv
    own2 = v2 - lv
    vec1 = ((own1 >= 0) & (own1 >= m2)).astype(float)
    vec2 = ((own2 >= 0) & (own2 > m1)).astype(float)
    return vec1, vec2


# ---------------------------------------------------------------------------
# Strategy configuration (JSON wire format)
# ---------------------------------------------------------------------------


def strategy_from_config(
    config: dict,
    grid: PriceGrid,
    oracle,
    costs: Sequence[float],
    seller_index: int,
    rounds: int,
    feedback_mode: str = "expected",
):
    """Build a strategy from {"kind": "q"|"mwu"|"fixed"|"manipulator", ...}."""
    kind = config.get("kind")
    cost = costs[seller_index]
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
        lo, hi = reward_bounds(oracle, grid, costs, feedback_mode)
        return MWUStrategy.fresh(len(grid), config["step_size"], lo, hi)
    if kind == "fixed":
        if "index" in config:
            return FixedPriceStrategy(config["index"], len(grid))
        if "price" not in config:
            raise ValueError("fixed strategy: missing key 'price' or 'index'")
        return FixedPriceStrategy(_price_index(grid, config["price"], "fixed"), len(grid))
    if kind == "manipulator":
        standard = ManipulatorSchedule.standard(config.get("phase1_rounds", math.ceil(rounds / 2.1)))
        given = {key: float(v) if key.endswith("_price") else v for key, v in config.items() if key != "kind"}
        schedule = replace(standard, **given)
        if schedule.total_rounds < rounds:
            raise ValueError(
                f"manipulator strategy: phase1_rounds + phase2_rounds = {schedule.total_rounds}"
                f" is less than the {rounds} rounds to simulate"
            )
        return ManipulatorStrategy(schedule, grid)
    raise ValueError(f"unknown strategy kind {kind!r}")
