import hashlib
import math
from collections import Counter
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from regretaudit.core import DistinctRows, PriceGrid, block_rows, running_sums
from regretaudit.market import Market, UniformDuopoly, demand_table, manipulation_valuation_table
from regretaudit.oracles import materialize_truth
from regretaudit.sellers import (
    FixedPriceStrategy,
    ManipulatorSchedule,
    ManipulatorStrategy,
    MWUStrategy,
    QLearnerStrategy,
    greedy_distribution,
    is_mean_based_violation,
    manipulator_next,
    mean_based_gamma,
    mean_based_violations,
    mwu_distribution,
    mwu_step,
    optimistic_q_init,
    pairwise_sum,
    reward_bounds,
    simulate,
    strategy_from_config,
)

from conftest import sample_posted
from witnesses import dumps_transcript, per_round_dists, q_step, transcript_from_rounds


class TestQLearner:
    def test_full_overwrite(self):
        new = q_step(np.array([5.0, 5.0]), observed_utility=2.0, posted=0, learning_rate=1.0, discount=0.0)
        assert new == [2.0, 5.0]

    def test_single_step_arithmetic(self):
        new = q_step(np.array([1.0, 3.0]), observed_utility=1.0, posted=0, learning_rate=0.5, discount=0.5)
        # (1 - a) * 1 + a * (1 + 0.5 * 3), recomputed by hand
        assert new[0] == pytest.approx(0.5 * 1 + 0.5 * (1 + 0.5 * 3))
        assert new[1] == 3.0

    def test_only_posted_entry_moves_and_uses_prior_max(self):
        new = q_step(np.array([2.0, 9.0, 4.0]), 0.5, 2, 0.25, 0.8)
        assert new[0] == 2.0 and new[1] == 9.0
        assert new[2] == pytest.approx(0.75 * 4.0 + 0.25 * (0.5 + 0.8 * 9.0))

    def test_epsilon_greedy_distribution(self):
        dist, sums = greedy_distribution(19, 0.01, 3)
        assert dist[3] == pytest.approx(0.99 + 0.01 / 19)
        assert np.count_nonzero(dist) == 19
        assert min(dist) == pytest.approx(0.01 / 19)
        assert sum(dist) == pytest.approx(1.0, abs=1e-12)
        assert sums == running_sums(dist)
        assert greedy_distribution(4, 0.0, 2)[0] == [0.0, 0.0, 1.0, 0.0]

    def test_argmax_tie_breaks_low(self):
        learner = QLearnerStrategy(np.array([3.0, 3.0]), 0.5, 0.0, 0.2)
        learner.observe(posted=1, utility=3.0, rewards=None)
        played, _ = learner.distribution()
        dist = learner.rows.table()[played]
        assert dist[0] > dist[1]

    def test_state_validation(self):
        with pytest.raises(ValueError):
            QLearnerStrategy(np.zeros(2), learning_rate=0.0, discount=0.5, explore_eps=0.1)
        with pytest.raises(ValueError):
            QLearnerStrategy(np.zeros(2), learning_rate=0.5, discount=1.0, explore_eps=0.1)

    def test_optimistic_init(self):
        grid = PriceGrid([0.5, 0.95])
        q0 = optimistic_q_init(grid, cost=0.1, discount=0.99)
        assert q0 == pytest.approx([85.0, 85.0])

    def test_standard_starts_optimistic_with_constructor_defaults(self):
        grid = PriceGrid([0.5, 0.95])
        learner = QLearnerStrategy.standard(grid, 0.1)
        assert learner.q_values == optimistic_q_init(grid, 0.1, 0.99)
        assert (learner.learning_rate, learner.discount, learner.explore_eps) == (0.05, 0.99, 0.01)
        learner = QLearnerStrategy.standard(grid, 0.1, discount=0.5, init=np.array([1.0, 2.0]))
        assert learner.q_values == [1.0, 2.0] and learner.discount == 0.5


class TestMWU:
    def test_uniform_rewards_keep_uniform_distribution(self):
        dist = mwu_distribution(mwu_step(np.zeros(3), [0.5, 0.5, 0.5]), 0.1)
        assert dist == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_weight_ratio_follows_cumulative_gap(self):
        dist = mwu_distribution(np.array([2.0, 5.0]), 0.1)
        assert dist[1] / dist[0] == pytest.approx(1.1**3)

    def test_pairwise_sum_is_numpys_sum(self, rng):
        # np.add.reduce's order changes at 8 and 128 entries and splits at
        # multiples of 8 above that: every length through 300, on weights of
        # several magnitudes and on mixed signs.
        for n in range(1, 301):
            for _ in range(20):
                values = np.exp(rng.normal(0.0, rng.choice([0.1, 5.0, 30.0]), n))
                values *= rng.choice([1.0, -1.0], n) if rng.random() < 0.25 else 1.0
                assert pairwise_sum(values.tolist()) == float(np.add.reduce(values))

    def test_reward_range_enforced(self):
        cumulative = np.zeros(2)
        with pytest.raises(ValueError):
            mwu_step(cumulative, [0.5, 1.5])
        with pytest.raises(ValueError):
            mwu_step(cumulative, [-0.2, 0.5])

    def test_consecutive_distribution_drift_bounded_by_step(self, rng):
        cumulative = np.zeros(4)
        prev = mwu_distribution(cumulative, 0.05)
        for _ in range(500):
            cumulative = mwu_step(cumulative, rng.random(4))
            cur = mwu_distribution(cumulative, 0.05)
            assert np.abs(np.subtract(cur, prev)).max() <= 0.05 + 1e-12
            prev = cur

    def test_mean_based_violation_definition(self):
        horizon = 100
        gamma = 0.1
        # Trailing by 2 * gamma * horizon while posted with prob 0.5.
        cumulative = np.array([0.0, 2 * gamma * horizon])
        probs = mwu_distribution(cumulative, 1e-9)
        assert is_mean_based_violation(cumulative, probs[0], posted=0, gamma=gamma, horizon=horizon)
        cumulative = np.array([5.0, 5.0])
        probs = mwu_distribution(cumulative, 1e-9)
        assert not is_mean_based_violation(cumulative, probs[0], posted=0, gamma=gamma, horizon=horizon)

    def test_mean_based_violation_over_rounds(self):
        # Rounds on the leading axis give the per-round flags of the rows.
        cumulative = np.array([[0.0, 20.0], [5.0, 5.0], [0.0, 20.0]])
        probs = np.array([[0.5, 0.5], [0.5, 0.5], [0.05, 0.95]])
        flags = is_mean_based_violation(cumulative, probs[:, 0], np.array([0, 0, 0]), 0.1, 100)
        assert flags.tolist() == [True, False, False]

    def test_hedge_run_never_violates_its_own_gamma(self, rng):
        horizon = 2000
        eta = 0.1
        gamma = mean_based_gamma(eta, horizon)
        assert (1 + eta) ** (-gamma * horizon) <= gamma * (1 + 1e-9)
        cumulative = np.zeros(3)
        violations = 0
        for _ in range(horizon):
            dist = mwu_distribution(cumulative, eta)
            [posted] = sample_posted(rng, [np.array(dist)])
            violations += is_mean_based_violation(cumulative, dist[posted], posted, gamma, horizon)
            cumulative = mwu_step(cumulative, rng.random(3))
        assert violations == 0


class TestLearnerState:
    def test_pure_steps_leave_inputs_unchanged(self):
        q = np.array([2.0, 9.0, 4.0])
        new_q = q_step(q, 0.5, 2, 0.25, 0.8)
        assert q.tolist() == [2.0, 9.0, 4.0] and new_q is not q
        cumulative = np.array([1.0, 2.0])
        rewards = np.array([0.25, 0.75])
        new_cumulative = mwu_step(cumulative, rewards)
        assert cumulative.tolist() == [1.0, 2.0] and rewards.tolist() == [0.25, 0.75]
        assert new_cumulative == [1.25, 2.75]

    def test_bad_parameter_fails_at_construction(self):
        with pytest.raises(ValueError, match="explore_eps"):
            QLearnerStrategy(np.zeros(2), explore_eps=1.5)
        with pytest.raises(ValueError, match="step_size"):
            MWUStrategy(np.zeros(2), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="reward bounds"):
            MWUStrategy.fresh(2, 0.1, 1.0, 1.0)
        for step_size in (math.nan, math.inf):
            with pytest.raises(ValueError, match="step_size"):
                MWUStrategy.fresh(2, step_size, 0.0, 1.0)
        for bounds in ((math.nan, 1.0), (-math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
            with pytest.raises(ValueError, match="reward bounds"):
                MWUStrategy.fresh(2, 0.1, *bounds)
        with pytest.raises(ValueError, match="learning_rate"):
            strategy_from_config({"kind": "q", "learning_rate": 2.0}, Market(PriceGrid([0.5, 1.0]), None, (0.1, 0.1)), 0, 10)


class TestManipulator:
    def test_schedule_boundaries(self):
        sched = ManipulatorSchedule.standard(1000)
        assert sched.phase2_rounds == 1100
        assert manipulator_next(sched, 1000) == 1.0
        assert manipulator_next(sched, 1001) == 3.0
        assert manipulator_next(sched, 2100) == 3.0
        with pytest.raises(ValueError):
            manipulator_next(sched, 0)
        with pytest.raises(ValueError):
            manipulator_next(sched, 2101)


class TestSimulate:
    @staticmethod
    def grid_and_table():
        return PriceGrid([0.0, 1.0, 2.0, 3.0]), manipulation_valuation_table(0.005)

    def test_fixed_strategies_produce_point_masses(self):
        grid, tab = self.grid_and_table()
        res = simulate(Market(grid, tab, (0, 0)), (FixedPriceStrategy(1, 4), FixedPriceStrategy(2, 4)), 3, seed=1)
        for tr in res.transcripts:
            assert ((per_round_dists(tr) > 0).sum(axis=1) == 1).all()
        x1 = float(tab.demand(1, 2)[0])
        assert res.payoffs[0].tolist() == pytest.approx([x1, x1, x1])

    def test_determinism(self):
        grid, tab = self.grid_and_table()
        market = Market(grid, tab, (0, 0))

        def run():
            mwu = MWUStrategy.fresh(4, 0.5, *reward_bounds(market))
            q = QLearnerStrategy.standard(grid, 0.0, explore_eps=0.05)
            return simulate(market, (q, mwu), 200, "expected", seed=42)

        a, b = run(), run()
        assert a.transcripts == b.transcripts
        assert np.array_equal(a.payoffs[0], b.payoffs[0])

    def test_realized_feedback_uniform(self):
        grid = PriceGrid([round(0.1 * i, 1) for i in range(1, 10)])
        env = UniformDuopoly()
        q1 = QLearnerStrategy.standard(grid, 0.1)
        q2 = QLearnerStrategy.standard(grid, 0.2)
        res = simulate(Market(grid, env, (0.1, 0.2)), (q1, q2), 300, "realized", seed=5)
        a1, a2 = (tr.alloc for tr in res.transcripts)
        assert set(np.unique(a1)) <= {0.0, 1.0}
        assert np.all(a1 + a2 <= 1.0)

    def test_realized_feedback_table_buyer_always_buys(self):
        grid, tab = self.grid_and_table()
        res = simulate(
            Market(grid, tab, (0, 0)),
            (FixedPriceStrategy(1, 4), FixedPriceStrategy(1, 4)),
            400,
            "realized",
            seed=9,
        )
        a1, a2 = (tr.alloc for tr in res.transcripts)
        assert np.all(a1 + a2 == 1.0)
        # Sale frequency tracks the expected split, 0.615 for seller 1.
        assert abs(a1.mean() - 0.615) < 0.06

    def test_learner_locks_onto_top_price_after_switch(self):
        # Desk-size version of the steering claim: past a short window after
        # the manipulator's switch, the learner posts the top price almost
        # always, and its per-round probability stays near 1 untouched.
        grid, tab = self.grid_and_table()
        phase1 = 2000
        epsilon = 0.005
        sched = ManipulatorSchedule.standard(phase1)
        market = Market(grid, tab, (0, 0))
        learner = MWUStrategy.fresh(4, 2.0, *reward_bounds(market))
        res = simulate(
            market,
            (ManipulatorStrategy(sched, grid), learner),
            sched.total_rounds,
            "expected",
            seed=0,
        )
        top = 3
        window_start = phase1 + math.ceil(3 * epsilon * phase1)
        posted = res.transcripts[1].posted
        assert (posted[window_start - 1 :] == top).mean() >= 0.9
        probs = per_round_dists(res.transcripts[1])[:, top]
        settled = next(t for t in range(phase1, len(probs)) if probs[t] >= 0.95)
        assert settled - phase1 <= 10 * epsilon * phase1
        assert all(p >= 0.95 for p in probs[settled:])

    def test_realized_feedback_still_steers_learner(self):
        # With Bernoulli sales instead of expected payoffs the steering claim
        # keeps holding, with a wider settling window (concentration slack).
        grid, tab = self.grid_and_table()
        phase1 = 5000
        sched = ManipulatorSchedule.standard(phase1)
        market = Market(grid, tab, (0, 0))
        learner = MWUStrategy.fresh(4, 2.0, *reward_bounds(market, "realized"))
        res = simulate(
            market,
            (ManipulatorStrategy(sched, grid), learner),
            sched.total_rounds,
            "realized",
            seed=4,
        )
        posted = res.transcripts[1].posted
        window_start = phase1 + math.ceil(3 * 0.005 * phase1)
        assert (posted[window_start - 1 :] == 3).mean() >= 0.9

    def test_running_reward_sum_replays_learner_states(self):
        # The manipulation demo's vectorized path: an exclusive running sum
        # of the learner's normalized rewards equals, bit for bit, the state
        # that stepping mwu_step round by round reaches, and the recorded
        # distributions are the ones those states give.
        grid, tab = self.grid_and_table()
        sched = ManipulatorSchedule.standard(200)
        market = Market(grid, tab, (0, 0))
        learner = MWUStrategy.fresh(4, 2.0, *reward_bounds(market))
        res = simulate(market, (ManipulatorStrategy(sched, grid), learner), sched.total_rounds, seed=3)
        _, u2 = market.tables[1]
        rewards = learner.rewards(u2[res.transcripts[0].posted])
        before = np.vstack([np.zeros((1, 4)), np.cumsum(rewards, axis=0)[:-1]])
        dists, posted = per_round_dists(res.transcripts[1]), res.transcripts[1].posted
        cumulative = np.zeros(4)
        for t in range(sched.total_rounds):
            assert np.array_equal(before[t], cumulative)
            assert np.array_equal(dists[t], mwu_distribution(cumulative, 2.0))
            cumulative = mwu_step(cumulative, rewards[t])
        assert np.array_equal(cumulative, learner.cumulative_rewards)
        horizon = sched.total_rounds
        flags = is_mean_based_violation(before, dists[np.arange(horizon), posted], posted, 1e-4, horizon)
        one_by_one = [is_mean_based_violation(before[t], dists[t, p], p, 1e-4, horizon) for t, p in enumerate(posted)]
        assert flags.any() and flags.tolist() == [bool(f) for f in one_by_one]

    def test_mean_based_violations_carry_the_running_sum_across_blocks(self):
        # The manipulation demo's count, a block of rounds at a time, equals
        # the count over one running sum of every round, on a horizon of
        # several blocks and with gammas small enough to flag rounds.
        grid, tab = self.grid_and_table()
        sched = ManipulatorSchedule.standard(2000)
        horizon = sched.total_rounds
        assert horizon > 2 * block_rows(4)
        market = Market(grid, tab, (0, 0))
        learner = MWUStrategy.fresh(4, 2.0, *reward_bounds(market))
        res = simulate(market, (ManipulatorStrategy(sched, grid), learner), horizon, seed=3)
        _, u2 = market.tables[1]
        opponent, seller2 = res.transcripts[0].posted, res.transcripts[1]
        rewards = learner.rewards(u2[opponent])
        before = np.vstack([np.zeros((1, 4)), np.cumsum(rewards, axis=0)[:-1]])
        probs = seller2.dist_table[seller2.dist_index, seller2.posted]
        counts = []
        for gamma in (1e-5, 1e-4, 1e-3, mean_based_gamma(2.0, horizon)):
            flags = is_mean_based_violation(before, probs, seller2.posted, gamma, horizon)
            counts.append(mean_based_violations(learner, u2, opponent, seller2, gamma, horizon))
            assert counts[-1] == int(flags.sum())
        assert counts[0] > counts[2] > 0

    def test_strategy_from_config_kinds(self):
        grid, tab = self.grid_and_table()
        market = Market(grid, tab, (0.0, 0.0))
        q = strategy_from_config({"kind": "q", "explore_eps": 0.02}, market, 0, 100)
        assert isinstance(q, QLearnerStrategy)
        mwu = strategy_from_config({"kind": "mwu", "step_size": 0.3}, market, 1, 100)
        assert isinstance(mwu, MWUStrategy)
        fixed = strategy_from_config({"kind": "fixed", "price": 2.0}, market, 0, 100)
        assert fixed.index == 2
        manip = strategy_from_config({"kind": "manipulator"}, market, 0, 2100)
        assert isinstance(manip, ManipulatorStrategy)
        assert manip.schedule.phase1_rounds == 1000
        with pytest.raises(ValueError):
            strategy_from_config({"kind": "nope"}, market, 0, 100)

    def test_reward_bounds_modes(self):
        grid, tab = self.grid_and_table()
        market = Market(grid, tab, (0.0, 0.0))
        lo, hi = reward_bounds(market)
        assert (lo, hi) == (0.0, pytest.approx(1.845))
        lo_r, hi_r = reward_bounds(market, "realized")
        assert (lo_r, hi_r) == (0.0, 3.0)

    def test_payoff_tables_match_oracle(self):
        grid, tab = self.grid_and_table()
        (a1, u1), (a2, u2) = Market(grid, tab, (0.0, 0.0)).tables
        for i in range(4):
            for j in range(4):
                x1, x2 = tab.demand(grid.levels[i], grid.levels[j])
                assert a1[j, i] == pytest.approx(float(x1))
                assert a2[i, j] == pytest.approx(float(x2))
                assert u1[j, i] == pytest.approx(grid.levels[i] * float(x1))

    @pytest.mark.parametrize("seller", [0, 1])
    @pytest.mark.parametrize("market", ["duopoly", "table"])
    def test_one_layout_for_every_market_table(self, market, seller):
        # Seller s's tables are demand_table's x_s[j][p], its demand at own
        # price p against opponent price j, read as given by the ground
        # truth, the payoff tables and the simulator's feedback.
        if market == "duopoly":
            grid = PriceGrid([round(0.05 * i, 2) for i in range(1, 20)])
            oracle, costs = UniformDuopoly(), (0.1, 0.2)
        else:
            grid, oracle = self.grid_and_table()
            costs = (0.0, 0.5)
        demand = demand_table(oracle, grid.levels)[seller]
        opponent = np.arange(len(grid))
        market = Market(grid, oracle, costs)
        truth = materialize_truth(market, opponent, seller)
        assert truth.table.tolist() == [list(row) for row in demand]
        alloc, util = market.tables[seller]
        for j, row in enumerate(demand):
            for p, x in enumerate(row):
                assert alloc[j, p] == float(x)
                assert util[j, p] == (grid.levels[p] - costs[seller]) * float(x)
        strategies = [QLearnerStrategy.standard(grid, c, explore_eps=0.5) for c in costs]
        result = simulate(market, strategies, 300, seed=1)
        own, opp = result.transcripts[seller], result.transcripts[1 - seller]
        assert len(set(zip(opp.posted.tolist(), own.posted.tolist()))) > len(grid)
        assert own.alloc.tolist() == [float(demand[j][p]) for j, p in zip(opp.posted, own.posted)]


class TestRowEncoding:
    """A strategy encodes a row in its table when it first plays it: once
    per distinct row for a Q-learner, whose rows are memoized by greedy
    price, and every round for a multiplicative-weights learner."""

    @staticmethod
    def encodings(monkeypatch, market, strategies, rounds):
        calls = Counter()
        original = DistinctRows.add

        def counting(table, values):
            calls[table] += 1
            return original(table, values)

        monkeypatch.setattr(DistinctRows, "add", counting)
        result = simulate(market, strategies, rounds, seed=2)
        return [calls[strategy.rows] for strategy in strategies], result

    def test_q_learners_encode_each_distinct_row_once(self, monkeypatch):
        grid = TestPinnedOutput.DUOPOLY
        market = Market(grid, UniformDuopoly(), (0.1, 0.2))
        strategies = tuple(QLearnerStrategy.standard(grid, cost) for cost in market.costs)
        counts, result = self.encodings(monkeypatch, market, strategies, 8000)
        assert counts == [len(tr.dist_table) for tr in result.transcripts]
        assert all(1 < n <= len(grid) for n in counts)

    def test_mwu_learners_encode_every_round(self, monkeypatch):
        market = Market(TestPinnedOutput.TABLE, manipulation_valuation_table(0.005), (0.0, 0.0))
        strategies = tuple(MWUStrategy.fresh(4, 1e-3, *reward_bounds(market)) for _ in market.costs)
        counts, _ = self.encodings(monkeypatch, market, strategies, 2000)
        assert counts == [2000, 2000]

    def test_a_strategy_plays_one_simulation(self):
        grid = TestPinnedOutput.TABLE
        market = Market(grid, manipulation_valuation_table(0.005), (0.0, 0.0))
        strategies = (FixedPriceStrategy(1, 4), QLearnerStrategy.standard(grid, 0.0))
        simulate(market, strategies, 10)
        with pytest.raises(ValueError, match="one simulation"):
            simulate(market, strategies, 10)


class TestPinnedOutput:
    """The simulator's transcripts, pinned before distributions became dense
    rows. These runs use only IEEE basic arithmetic, so the digests do not
    depend on the CPU; MWU uses np.exp and is pinned by its reference instead."""

    DUOPOLY = PriceGrid([round(0.05 * i, 2) for i in range(1, 20)])
    TABLE = PriceGrid([0.0, 1.0, 2.0, 3.0])
    DIGESTS = {
        "q-q-expected": (
            "bb0d8960de7d0fc727a25e0ffb7ece9fd25ec815b0b9b0bd1674a958b2505e82",
            "829186b9bbac6775caefb475836270c0f808df35afe3b33345f3903a6d91df5e",
        ),
        "q-q-realized": (
            "125d16e67ab5badac71fac4f51d80e3678169204c681cba6695e7bfe1064a230",
            "82417f504e40a2a1c7d17efb890b18b77f14614a2c87a5d75dc96bd938f2e15a",
        ),
        "q-q-greedy": (
            "a3658f2c8da2acc6451c498935a3655f3db4888bed4a08b2105e03d38114a15c",
            "753156d422cee168a1fab6ac47138ecc0eb3ab03cea30cd525fc76aece8ecae7",
        ),
        "fixed-q": (
            "400bdcf3edf053c694738ab7fc646d68fec66c6cb649ba38ab44fd08eece68ff",
            "b5124b7bcf9f5252f187097d5456beb439cf01ffa6d9f88f220cfb7cda6b6aec",
        ),
        "manipulator-fixed": (
            "bffe3ca4a2168a391482a6651555b6414319ab9a46ac68df756418f8a1aecf59",
            "0564fe887dddd0847501730e9beddb38a2a80059a0563339b4df8c4e8e16a62b",
        ),
    }

    def run(self, name):
        if name == "manipulator-fixed":
            sched = ManipulatorSchedule.standard(190)
            market = Market(self.TABLE, manipulation_valuation_table(0.005), (0.0, 0.0))
            fixed = strategy_from_config({"kind": "fixed", "index": 2}, market, 1, 400)
            strategies = (ManipulatorStrategy(sched, self.TABLE), fixed)
            return simulate(market, strategies, sched.total_rounds, seed=11)
        env, costs = UniformDuopoly(), (0.1, 0.2)
        market = Market(self.DUOPOLY, env, costs)
        eps = 0.0 if name == "q-q-greedy" else 0.01
        sellers = [QLearnerStrategy.standard(self.DUOPOLY, c, explore_eps=eps) for c in costs]
        if name == "fixed-q":
            sellers[0] = strategy_from_config({"kind": "fixed", "index": 11}, market, 0, 400)
        feedback = "realized" if name == "q-q-realized" else "expected"
        return simulate(market, tuple(sellers), 400, feedback, seed=7)

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_transcript_digests(self, name):
        result = self.run(name)
        assert [len(tr) for tr in result.transcripts] == [400, 400]
        digests = tuple(hashlib.sha256(dumps_transcript(tr).encode()).hexdigest() for tr in result.transcripts)
        assert digests == self.DIGESTS[name]

    def test_mwu_distribution_is_pruned_and_renormalized(self, rng):
        # Reference: keep entries above 1e-12, sum the kept ones in order
        # (a running sum, whatever the Python version's sum() does), divide.
        # Compared bit for bit through the row a transcript records.
        pruned = ties = 0
        for k in range(2, 20):
            grid = PriceGrid(range(k))
            for step_size in (0.1, 2.0):
                for scale in (0.5, 10.0, None):
                    if scale is None:
                        sigma = rng.random(k) * 50.0
                    else:
                        sigma = rng.integers(0, 4, size=k) * scale
                    w = np.exp((sigma - sigma.max()) * math.log1p(step_size))
                    probs = w / w.sum()
                    keep = probs > 1e-12
                    total = 0.0
                    for p in probs[keep].tolist():
                        total += p
                    expected = np.where(keep, probs / total, 0.0)
                    row = transcript_from_rounds(grid, [0], [0.0], [mwu_distribution(sigma, step_size)]).dist_table[0]
                    assert row.tobytes() == expected.tobytes()
                    pruned += int(not keep.all())
                    ties += int(len(np.unique(sigma)) < k)
        assert pruned > 0 and ties > 0


# ---------------------------------------------------------------------------
# Reference: the simulator's per-round loop on small numpy arrays, with the
# array learners it ran. Test-only; `simulate` must match it bit for bit.
# ---------------------------------------------------------------------------


def reference_draw(row, u):
    probs = row.tolist()
    m = bisect_right(list(accumulate(probs)), u)
    return m if m < len(probs) else max(i for i, p in enumerate(probs) if p)


def reference_greedy_row(k, explore_eps, argmax_index):
    row = np.full(k, explore_eps / k)
    row[argmax_index] += 1.0 - explore_eps
    return row


class ReferenceQ:
    def __init__(self, strategy, grid):
        self.q = np.asarray(strategy.q_values, dtype=float)
        self.learning_rate, self.discount = strategy.learning_rate, strategy.discount
        self.explore_eps = strategy.explore_eps

    def distribution(self):
        return reference_greedy_row(len(self.q), self.explore_eps, int(self.q.argmax()))

    @property
    def state(self):
        return self.q

    def observe(self, posted, utility, utility_vector):
        q = self.q.copy()
        target = utility + self.discount * float(q.max())
        q[posted] = (1.0 - self.learning_rate) * q[posted] + self.learning_rate * target
        self.q = q


class ReferenceMWU:
    def __init__(self, strategy, grid):
        self.sigma = np.asarray(strategy.cumulative_rewards, dtype=float)
        self.step_size, self.lo, self.hi = strategy.step_size, strategy.reward_lo, strategy.reward_hi

    def distribution(self):
        sigma = self.sigma
        w = np.exp((sigma - sigma.max()) * math.log1p(self.step_size))
        probs = w / w.sum()
        keep = probs > 1e-12
        total = np.cumsum(probs[keep])[-1]
        return np.where(keep, probs / total, 0.0)

    @property
    def state(self):
        return self.sigma

    def observe(self, posted, utility, utility_vector):
        r = (np.asarray(utility_vector, float) - self.lo) / (self.hi - self.lo)
        if r.min() < -1e-12 or r.max() > 1.0 + 1e-12:
            raise ValueError("rewards must lie in [0, 1] after normalization")
        self.sigma = self.sigma + r


class ReferenceFixed:
    def __init__(self, strategy, grid):
        self.row = reference_greedy_row(len(grid), 0.0, strategy.index)

    def distribution(self):
        return self.row

    def observe(self, posted, utility, utility_vector):
        pass


class ReferenceManipulator:
    def __init__(self, strategy, grid):
        self.schedule, self.levels, self.round = strategy.schedule, grid.levels, 1

    def distribution(self):
        level = manipulator_next(self.schedule, self.round)
        return reference_greedy_row(len(self.levels), 0.0, self.levels.index(level))

    def observe(self, posted, utility, utility_vector):
        self.round += 1


REFERENCE_LEARNERS = {
    QLearnerStrategy: ReferenceQ,
    MWUStrategy: ReferenceMWU,
    FixedPriceStrategy: ReferenceFixed,
    ManipulatorStrategy: ReferenceManipulator,
}


def reference_realized_vectors(oracle, lv, actions, draws, diff_cells):
    if diff_cells is not None:
        diffs, cum = diff_cells
        cell = int(np.searchsorted(cum, draws[0], side="right"))
        d = diffs[min(cell, len(diffs) - 1)]
        coin = draws[2] < 0.5
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


def reference_simulate(grid, strategies, oracle, costs, rounds, feedback_mode, seed):
    """The per-round array loop, fed fresh reference learners built from the
    given strategies' starting state. Returns the posted prices, allocations,
    dense rows and payoffs of both sellers, and the learners."""
    learners = [REFERENCE_LEARNERS[type(s)](s, grid) for s in strategies]
    lv = np.asarray(grid.levels)
    x1, x2 = demand_table(oracle, grid.levels)
    a1, a2 = np.array(x1, dtype=float), np.array(x2, dtype=float)
    u1, u2 = (lv - costs[0]) * a1, (lv - costs[1]) * a2

    def stream(tag):
        return np.random.Generator(np.random.Philox(key=[int(seed) % 2**64, tag]))

    action_u = (stream(0).random(rounds), stream(1).random(rounds))
    realized = feedback_mode == "realized"
    diff_cells = None
    if realized:
        buyer_u = stream(2).random((rounds, 3))
        if hasattr(oracle, "diff_distribution"):
            items = sorted(oracle.diff_distribution().items())
            diff_cells = (np.array([float(d) for d, _ in items]), np.cumsum([float(p) for _, p in items]))
    posteds, allocs, dists = ([], []), ([], []), ([], [])
    payoffs = (np.empty(rounds), np.empty(rounds))
    for t in range(rounds):
        current = [learner.distribution() for learner in learners]
        actions = [reference_draw(row, action_u[i][t]) for i, row in enumerate(current)]
        if realized:
            vecs = reference_realized_vectors(oracle, lv, actions, buyer_u[t], diff_cells)
            util_vecs = [(lv - costs[i]) * vecs[i] for i in range(2)]
        else:
            vecs = [(a1, a2)[i][actions[1 - i]] for i in range(2)]
            util_vecs = [(u1, u2)[i][actions[1 - i]] for i in range(2)]
        for i, learner in enumerate(learners):
            a = actions[i]
            posteds[i].append(a)
            allocs[i].append(float(vecs[i][a]))
            dists[i].append(current[i])
            payoffs[i][t] = float(util_vecs[i][a])
            learner.observe(a, float(util_vecs[i][a]), util_vecs[i])
    return posteds, allocs, dists, payoffs, learners


def mwu_spec(step_size):
    return {"kind": "mwu", "step_size": step_size}


def q_spec(explore_eps):
    return {"kind": "q", "explore_eps": explore_eps}


class TestArrayLoopReference:
    """`simulate` against the per-round array loop: transcripts and payoffs
    equal bit for bit. MWU runs depend on np.exp, so they are pinned to the
    reference on this machine rather than to digests."""

    TABLE = PriceGrid([0.0, 1.0, 2.0, 3.0])
    DUOPOLY = PriceGrid([round(0.05 * i, 2) for i in range(1, 20)])
    CASES = {
        # name: (market, strategy configs, rounds, feedback)
        "mwu-mwu-table-expected": ("table", (mwu_spec(0.3), mwu_spec(2.0)), 400, "expected"),
        "mwu-mwu-table-realized": ("table", (mwu_spec(0.3), mwu_spec(2.0)), 400, "realized"),
        "mwu-mwu-duopoly": ("duopoly", (mwu_spec(0.5), mwu_spec(0.05)), 300, "expected"),
        "mwu-mwu-duopoly-realized": ("duopoly", (mwu_spec(0.5), mwu_spec(0.05)), 300, "realized"),
        "manipulator-mwu": ("table", ({"kind": "manipulator"}, mwu_spec(2.0)), 420, "expected"),
        "fixed-mwu": ("table", ({"kind": "fixed", "price": 2.0}, mwu_spec(0.5)), 300, "expected"),
        "q-q-eps0": ("duopoly", (q_spec(0.0), q_spec(0.0)), 400, "expected"),
        "q-q-eps0.01": ("duopoly", (q_spec(0.01), q_spec(0.01)), 400, "expected"),
        "q-q-eps1": ("duopoly", (q_spec(1.0), q_spec(1.0)), 400, "expected"),
        "q-q-realized": ("duopoly", (q_spec(0.01), q_spec(0.05)), 400, "realized"),
        "fixed-q": ("duopoly", ({"kind": "fixed", "index": 11}, q_spec(0.05)), 400, "expected"),
        "fixed-q-realized": ("duopoly", ({"kind": "fixed", "index": 11}, q_spec(0.05)), 400, "realized"),
        # k = 19: numpy sums the MWU weights in pairs.
        "q-mwu": ("duopoly", (q_spec(0.05), mwu_spec(0.5)), 300, "expected"),
        "q-mwu-realized": ("duopoly", (q_spec(0.05), mwu_spec(0.5)), 300, "realized"),
        "manipulator-q": ("table", ({"kind": "manipulator"}, q_spec(0.05)), 420, "expected"),
        "manipulator-q-realized": ("table", ({"kind": "manipulator"}, q_spec(0.05)), 420, "realized"),
    }
    # A learner's state, updated in place, ends as the reference learner's.
    STATE = {QLearnerStrategy: lambda s: s.q_values, MWUStrategy: lambda s: s.cumulative_rewards}

    def environment(self, market):
        if market == "table":
            return self.TABLE, manipulation_valuation_table(0.005), (0.0, 0.0)
        return self.DUOPOLY, UniformDuopoly(), (0.1, 0.2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_simulate_matches_array_loop(self, name, seed):
        kind, specs, rounds, feedback = self.CASES[name]
        grid, env, costs = self.environment(kind)
        market = Market(grid, env, costs)

        def strategies():
            return tuple(
                strategy_from_config(spec, market, i, rounds, feedback) for i, spec in enumerate(specs)
            )

        played = strategies()
        result = simulate(market, played, rounds, feedback, seed=seed)
        posteds, allocs, dists, payoffs, learners = reference_simulate(grid, strategies(), env, costs, rounds, feedback, seed)
        for i in range(2):
            expected = transcript_from_rounds(grid, posteds[i], allocs[i], dists[i])
            assert dumps_transcript(result.transcripts[i]) == dumps_transcript(expected)
            assert result.payoffs[i].tobytes() == payoffs[i].tobytes()
        for strategy, learner in zip(played, learners):
            if type(strategy) in self.STATE:
                assert np.asarray(self.STATE[type(strategy)](strategy)).tobytes() == learner.state.tobytes()
        if name == "mwu-mwu-table-expected":
            # The long-step learner's rows lose prices to the 1e-12 prune.
            assert (per_round_dists(result.transcripts[1]) == 0).any()
