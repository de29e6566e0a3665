import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretaudit.core import PriceGrid, PWLInCost, pair_counts
from regretaudit.market import Market, manipulation_valuation_table
from regretaudit.oracles import GroundTruth, best_in_hindsight_regret, materialize_truth, true_calibrated_regret

from conftest import dense_row, random_instance
from witnesses import (
    SwapMap,
    broadcast_values,
    brute_force_estimator_expectation,
    brute_force_realized_average,
    calibrated_regret_of_swap,
    encode_rows,
    indistinguishable_ground_truths,
    per_round_allocations,
    per_round_truth,
    pessimistic_allocation,
    reduction_estimate,
    sample_transcript,
    true_pessimistic_regret,
)

F = Fraction

# One round's distribution over the four table prices, as a dense row:
# float sixteenths, or integer weights over their total as Fractions.
dyadic_row = st.lists(st.integers(0, 16), min_size=3, max_size=3).map(
    lambda cuts: [(b - a) / 16 for a, b in zip([0, *sorted(cuts)], [*sorted(cuts), 16])]
)
rational_row = (
    st.lists(st.integers(0, 6), min_size=4, max_size=4)
    .filter(any)
    .map(lambda w: [F(v, sum(w)) for v in w])
)


class TestCalibratedRegret:
    def test_decomposition_equals_full_swap_maximization(self, rng):
        for _ in range(20):
            _, dists, truth = random_instance(rng, k=3, rounds=3)
            c = F(int(rng.integers(0, 200)), 100)
            by_decomposition = true_calibrated_regret(*encode_rows(dists), truth, c)
            by_enumeration = max(
                calibrated_regret_of_swap(dists, truth, c, SwapMap(sigma))
                for sigma in itertools.product(range(3), repeat=3)
            )
            assert by_decomposition == by_enumeration

    def test_best_responder_has_zero_regret(self):
        # Static demand, seller posts the utility-maximizing price each round.
        levels = (1.0, 2.0, 3.0)
        x = (1.0, 0.6, 0.1)
        c = 0.5
        best = max(range(3), key=lambda p: (levels[p] - c) * x[p])
        dists = [dense_row(3, (best,), (1.0,))] * 5
        truth = GroundTruth(levels, np.array([x]), np.zeros(5, dtype=np.int64))
        assert true_calibrated_regret(*encode_rows(dists), truth, c) == pytest.approx(0.0, abs=1e-15)

    def test_fixed_prices_in_discrete_game(self):
        # Both sellers stuck at the low price: rerouting to the middle price
        # gains the published payoff gap every round.
        tab = manipulation_valuation_table(0)
        levels = (0, 1, 2, 3)
        dists = [dense_row(4, (1,), (1.0,))] * 6
        truth = materialize_truth(Market(PriceGrid(levels), tab, (0, 0)), [1] * 6, 0)
        regret = true_calibrated_regret(*encode_rows(dists), truth, 0)
        assert regret == F(77, 100) - F(123, 200)  # 0.155

    def test_length_mismatch_is_rejected_on_both_paths(self):
        # One distribution per round of the truth: the exact path neither
        # drops the truth's extra rounds nor runs past its last one.
        truth = materialize_truth(Market(PriceGrid((0, 1, 2, 3)), manipulation_valuation_table(0), (0, 0)), [1, 2, 1], 0)
        float_truth = GroundTruth(truth.levels, truth.table.astype(float), truth.index)
        row = dense_row(4, (1,), (1.0,))
        for dists in ([row] * 2, [row] * 4):
            table, index = encode_rows(dists)
            for t in (truth, float_truth):
                with pytest.raises(ValueError):
                    true_calibrated_regret(table, index, t, 0.0)
            with pytest.raises(ValueError):
                true_calibrated_regret(table, index, truth, [F(0), F(1, 2)])

    @pytest.mark.parametrize("index", [[0, -1], [1, 2], [3]])
    def test_truth_row_ids_must_index_the_table(self, index):
        # A negative id would count from the table's end, so -1 would stand
        # for its last row in the regret; an id past the end has no row.
        table = np.array([[0.0, 1.0], [0.5, 1.0]])
        with pytest.raises(ValueError, match=r"^index must hold row ids in \[0, 2\)$"):
            GroundTruth((1.0, 2.0), table, np.array(index))
        assert GroundTruth((1.0, 2.0), table, np.array([1, 0, 1])).rounds == 3
        assert GroundTruth((1.0, 2.0), table[:0], np.array([], dtype=np.int64)).rounds == 0

    @pytest.mark.slow
    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(
        rounds=st.lists(
            st.tuples(st.integers(0, 3), st.one_of(dyadic_row, rational_row)),
            min_size=1,
            max_size=12,
        ),
        seller=st.integers(0, 1),
        cost=st.fractions(min_value=0, max_value=3, max_denominator=20),
        more_costs=st.lists(st.fractions(min_value=-1, max_value=4, max_denominator=20), max_size=4),
    )
    def test_exact_path_on_repeated_truth_rows(self, rounds, seller, cost, more_costs):
        # materialize_truth gives each round the row of the opponent's price,
        # so the k=4 truth repeats rows whenever a trace revisits a price.
        levels = tuple(F(v) for v in range(4))
        opponent = [j for j, _ in rounds]
        truth = materialize_truth(Market(PriceGrid(levels), manipulation_valuation_table(F(1, 100)), (0, 0)), opponent, seller)
        dists = [row for _, row in rounds]
        table, index = encode_rows(dists)
        exact = true_calibrated_regret(table, index, truth, cost)
        assert isinstance(exact, Fraction)
        assert exact == max(
            calibrated_regret_of_swap(dists, truth, cost, SwapMap(sigma))
            for sigma in itertools.product(range(4), repeat=4)
        )
        dense = np.array([[float(p) for p in row] for _, row in rounds])
        float_truth = GroundTruth(levels, truth.table.astype(float), truth.index)
        float_table, float_index = encode_rows(dense)
        fast = true_calibrated_regret(float_table, float_index, float_truth, float(cost))
        assert fast == pytest.approx(float(exact), abs=1e-12)
        # A cost sequence is evaluated from one pair-sum matrix: the same
        # values as one call per cost, exactly, and bit for bit on floats.
        costs = [cost, *more_costs]
        assert true_calibrated_regret(table, index, truth, costs) == [
            true_calibrated_regret(table, index, truth, c) for c in costs
        ]
        float_costs = [float(c) for c in costs]
        assert [v.hex() for v in true_calibrated_regret(float_table, float_index, float_truth, float_costs)] == [
            true_calibrated_regret(float_table, float_index, float_truth, c).hex() for c in float_costs
        ]

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(
        rows=st.lists(st.one_of(dyadic_row, rational_row), min_size=1, max_size=3),
        rounds=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=6),
        seller=st.integers(0, 1),
        cost=st.fractions(min_value=0, max_value=3, max_denominator=20),
    )
    def test_exact_path_on_recurring_pairs(self, rows, rounds, seller, cost):
        # Distribution row 0 recurs under two truth rows, and every round is
        # played twice, so each (distribution, truth row) pair has a count
        # above 1. The table is the rows as given: floats and Fractions.
        rounds = [(0, 0), (0, 1), *[(d % len(rows), j) for d, j in rounds]] * 2
        levels = tuple(F(v) for v in range(4))
        opponent = [j for _, j in rounds]
        truth = materialize_truth(Market(PriceGrid(levels), manipulation_valuation_table(F(1, 100)), (0, 0)), opponent, seller)
        table, index = np.array(rows, dtype=object), np.array([d for d, _ in rounds])
        _, _, counts = pair_counts(index, truth.index, len(truth.table))
        assert counts.min() > 1
        exact = true_calibrated_regret(table, index, truth, cost)
        assert isinstance(exact, Fraction)
        dists = [rows[d] for d, _ in rounds]
        assert exact == max(
            calibrated_regret_of_swap(dists, truth, cost, SwapMap(sigma))
            for sigma in itertools.product(range(4), repeat=4)
        )
        float_truth = GroundTruth(levels, truth.table.astype(float), truth.index)
        fast = true_calibrated_regret(table.astype(float), index, float_truth, float(cost))
        assert fast == pytest.approx(float(exact), abs=1e-12)

    def test_cost_sequence_matches_per_cost_float_formula(self, rng):
        # Bit for bit against the curve of M at one cost at a time, on
        # instances large enough for numpy's blocked summation over the k
        # posted prices; and, on every tenth instance (exact pair sums of
        # 500 float rows take about 0.4 s), within 1e-12 relative of the
        # exact path on the same floats.
        for i in range(40):
            k, rounds = int(rng.integers(2, 25)), int(rng.integers(1, 501))
            raw = rng.random((rounds, k)) * (rng.random((rounds, k)) < 0.6)
            raw[np.arange(rounds), rng.integers(0, k, rounds)] += 0.1
            probs = raw / raw.sum(axis=1, keepdims=True)
            truth = per_round_truth(tuple(np.sort(rng.uniform(0.1, 3.0, k)).tolist()), rng.random((rounds, k)))
            costs = np.linspace(rng.uniform(-1, 1), rng.uniform(1, 3), 81).tolist()
            curve = PWLInCost.from_pair_sums(probs.T @ per_round_allocations(truth), truth.levels, rounds)
            expected = [float(broadcast_values(curve, [c])[0]).hex() for c in costs]
            got = true_calibrated_regret(*encode_rows(probs), truth, costs)
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == expected
            if i % 10 == 0:
                exact = true_calibrated_regret(*encode_rows(probs), truth, [F(c) for c in costs])
                assert all(abs(F(v) - e) <= abs(e) / 10**12 for v, e in zip(got, exact, strict=True))

    def test_float_and_exact_paths_agree(self, rng):
        _, dists, truth = random_instance(rng, k=3, rounds=4)
        exact = true_calibrated_regret(*encode_rows(dists), truth, F(1, 4))
        fast = true_calibrated_regret(*encode_rows(np.stack(dists)), truth, 0.25)
        assert float(exact) == pytest.approx(fast, abs=1e-12)


class TestPessimisticAllocation:
    def test_full_support_is_identity(self, rng):
        _, _, truth = random_instance(rng, k=3, rounds=2)
        dists = [np.array([0.25, 0.25, 0.5])] * 2
        z = pessimistic_allocation(truth, dists)
        assert np.array_equal(per_round_allocations(z), per_round_allocations(truth))

    def test_fill_rule(self):
        truth = per_round_truth((0.3, 0.5, 0.7), [(0.9, 0.6, 0.2)], exact=True)
        dists = [np.array([0.0, 1.0, 0.0])]
        z = pessimistic_allocation(truth, dists)
        assert tuple(z.table[z.index[0]]) == (1.0, 0.6, 0.6)

    # The fill maximizes regret among indistinguishable completions when the
    # cost does not exceed any deviation target, i.e. c <= min price level.
    # Above that, raising an allocation at a below-cost price lowers the
    # deviation value, so the fill is no longer the worst case; the audit
    # estimator still targets the filled sequence at every cost (its
    # expectation is linear), which the brute-force tests cover.

    def test_dominates_random_indistinguishable_completions(self, rng):
        # Completions range over plausible ground truths, so they must stay
        # non-increasing in price like every demand function here.
        _, dists, truth = random_instance(rng, k=3, rounds=3)
        z = pessimistic_allocation(truth, dists)
        c = float(min(truth.levels) * rng.random())
        table, index = encode_rows(dists)
        base = true_calibrated_regret(table, index, per_round_truth(truth.levels, per_round_allocations(z)), c)
        values = per_round_allocations(truth)
        for _ in range(200):
            completion = values.copy()
            for t, dist in enumerate(dists):
                supported = set(np.flatnonzero(dist).tolist())
                hi = 1.0
                for p in range(3):
                    if p in supported:
                        hi = completion[t, p]
                        continue
                    above = [completion[t, q] for q in range(p + 1, 3) if q in supported]
                    lo = max(above) if above else 0.0
                    completion[t, p] = rng.uniform(lo, hi)
                    hi = completion[t, p]
            other = per_round_truth(truth.levels, completion)
            assert true_calibrated_regret(table, index, other, c) <= base + 1e-12

    def test_pessimistic_regret_bounds_true_regret(self, rng):
        for _ in range(1000):
            k = int(rng.integers(2, 4))
            _, dists, truth = random_instance(rng, k=k, rounds=int(rng.integers(1, 4)))
            c = float(min(truth.levels) * rng.random())
            table, index = encode_rows(dists)
            assert true_pessimistic_regret(truth, dists, c) >= true_calibrated_regret(table, index, truth, c) - 1e-12

    def test_monotone_when_truth_monotone(self, rng):
        for _ in range(50):
            _, dists, truth = random_instance(rng, k=3, rounds=3)
            z = per_round_allocations(pessimistic_allocation(truth, dists))
            assert np.all(np.diff(z, axis=1) <= 1e-12)

    def test_full_support_pessimistic_equals_calibrated(self, rng):
        _, _, truth = random_instance(rng, k=3, rounds=3)
        dists = [np.array([0.5, 0.25, 0.25])] * 3
        c = 0.3
        assert true_pessimistic_regret(truth, dists, c) == true_calibrated_regret(*encode_rows(dists), truth, c)


class TestBestInHindsight:
    def test_playing_best_fixed_price_gives_zero(self):
        # Utilities (l_p - c) x_t(p) of [[0.5, 0.2], [0.4, 0.3], [0.6, 0.1]]
        # at cost 0, the first truth row drawn twice.
        table = np.array([[0.5, 0.1], [0.4, 0.15], [0.6, 0.05]])
        truth = GroundTruth((1.0, 2.0), table, np.array([0, 1, 2, 0]))
        realized = table[truth.index, 0]
        assert best_in_hindsight_regret(truth, 0.0, realized) == pytest.approx(0.0)

    def test_counts_of_truth_rows_match_the_per_round_sum(self, rng):
        truth = GroundTruth((0.5, 1.0, 2.0), rng.random((3, 3)), rng.integers(0, 3, 50))
        realized = rng.random(50)
        util = (np.asarray(truth.levels) - 0.25) * per_round_allocations(truth)
        expected = (util.sum(axis=0).max() - realized.sum()) / 50
        assert best_in_hindsight_regret(truth, 0.25, realized) == pytest.approx(expected, rel=1e-12)
        exact = GroundTruth(truth.levels, np.array([[F(v) for v in row] for row in truth.table.tolist()]), truth.index)
        assert best_in_hindsight_regret(exact, 0.25, realized) == pytest.approx(expected, rel=1e-12)

    def test_never_exceeds_calibrated_regret(self, rng):
        for _ in range(50):
            _, dists, truth = random_instance(rng, k=3, rounds=4)
            c = 0.2
            levels = np.asarray(truth.levels, dtype=float)
            values = per_round_allocations(truth)
            util = (levels[None, :] - c) * values
            probs = np.stack(dists)
            realized = (probs * util).sum(axis=1)  # expected realized utility
            bih = best_in_hindsight_regret(truth, c, realized)
            cal = true_calibrated_regret(*encode_rows(probs), per_round_truth(truth.levels, values), c)
            assert bih <= cal + 1e-12


class TestReduction:
    @staticmethod
    def make_auditor(true_regret, epsilon, failure_rate=0.0, rng=None):
        def auditor(r):
            if true_regret <= r:
                answer = "S"
            elif true_regret >= r + epsilon:
                answer = "G"
            else:
                answer = "G"  # the in-between threshold may answer either way
            if failure_rate and rng is not None and rng.random() < failure_rate:
                answer = "G" if answer == "S" else "S"
            return answer

        return auditor

    def test_perfect_auditor_localizes_regret(self):
        est = reduction_estimate(self.make_auditor(0.155, 0.05), 0.05, 3.0)
        assert abs(est - 0.155) <= 0.05

    def test_always_smaller_auditor(self):
        est = reduction_estimate(lambda r: "S", 0.05, 3.0)
        assert est <= 0.05

    def test_accuracy_under_injected_failures(self, rng):
        epsilon, p_bar, f = 0.05, 3.0, 1e-3
        hits = 0
        trials = 2000
        for _ in range(trials):
            auditor = self.make_auditor(0.155, epsilon, f, rng)
            est = reduction_estimate(auditor, epsilon, p_bar, rng)
            hits += abs(est - 0.155) <= epsilon
        assert hits / trials >= 1 - p_bar * f / epsilon - 0.02


class TestBruteForce:
    def test_point_mass_single_path(self):
        dists = [np.array([1.0, 0.0])]
        truth = per_round_truth((1.0, 2.0), [(0.5, 0.25)], exact=True)
        val = brute_force_estimator_expectation(dists, truth, 0)
        # One path: posted 0, xhat = (0.5, 0.5 by fill); best swap 0 -> 1.
        assert val == F(2) * F(1, 2) - F(1) * F(1, 2)

    def test_two_round_product_law(self):
        d = np.array([0.5, 0.5])
        truth = per_round_truth((1.0, 2.0), [(1.0, 0.5), (1.0, 0.5)], exact=True)
        # Pairwise expectations should match the single-round ones: paths
        # factor across rounds, so the two-round value equals the one-round one.
        one = brute_force_estimator_expectation([d], per_round_truth((1.0, 2.0), [(1.0, 0.5)], exact=True), 0)
        two = brute_force_estimator_expectation([d, d], truth, 0)
        assert one == two

    def test_matches_pessimistic_regret_exactly(self, rng):
        for _ in range(10):
            _, dists, truth = random_instance(rng, k=3, rounds=3)
            c = F(int(rng.integers(0, 150)), 100)
            assert brute_force_estimator_expectation(dists, truth, c) == (
                true_pessimistic_regret(truth, dists, c)
            )

    def test_realized_average_dominates_expectation(self):
        # Averaging the assembled estimate across paths sits strictly above
        # assembling the expected substitution benefits (the max is convex),
        # which is why the expectation is taken at the pairwise level.
        d = np.array([0.5, 0.5])
        truth = per_round_truth((1.0, 2.0), [(1.0, 1.0)], exact=True)
        exp = brute_force_estimator_expectation([d], truth, 0)
        avg = brute_force_realized_average([d], truth, 0)
        assert exp == F(1, 2)
        assert avg == F(3, 2)
        assert avg > exp

    def test_instance_too_large(self):
        d = np.array([0.25, 0.25, 0.5])
        truth = per_round_truth((1.0, 2.0, 3.0), [(1.0, 1.0, 1.0)] * 12, exact=True)
        with pytest.raises(ValueError):
            brute_force_estimator_expectation([d] * 12, truth, 0)


class TestIndistinguishablePair:
    def test_transcripts_bit_identical_under_shared_seed(self):
        dists, low, high = indistinguishable_ground_truths(rounds=12)
        grid = PriceGrid([1.0, 2.0, 3.0])
        for seed in range(5):
            t_low = sample_transcript(grid, dists, low, seed)
            t_high = sample_transcript(grid, dists, high, seed)
            assert t_low == t_high

    def test_regret_gap_is_top_price_step(self):
        dists, low, high = indistinguishable_ground_truths(rounds=6, a=1)
        table, index = encode_rows(dists)
        gap = true_calibrated_regret(table, index, high, 0) - true_calibrated_regret(table, index, low, 0)
        assert gap == F(3) - F(2)

    def test_point_mass_variant_strictness(self):
        # Point masses at the second-highest price: the pessimistic regret
        # strictly exceeds the regret of the truth whose top allocation is 0.
        dists, low, _ = indistinguishable_ground_truths(rounds=4, a=1, mode="point")
        pess = true_pessimistic_regret(low, dists, 0)
        base = true_calibrated_regret(*encode_rows(dists), low, 0)
        assert pess > base

    def test_pessimistic_equals_high_truth_regret(self):
        dists, low, high = indistinguishable_ground_truths(rounds=5)
        assert true_pessimistic_regret(low, dists, 0) == true_calibrated_regret(*encode_rows(dists), high, 0)

    def test_shipped_fixture_consistent(self):
        ref = Path(__file__).parent / "data" / "indistinguishable_pair.json"
        obj = json.loads(ref.read_text())
        dists, low, high = indistinguishable_ground_truths(
            levels=obj["levels"], rounds=obj["rounds"]
        )
        assert [np.flatnonzero(d).tolist() for d in dists] == [
            d["support"] for d in obj["distributions"]
        ]
        assert [[float(v) for v in row] for row in low.table[low.index]] == obj["truth_low"]
        assert [[float(v) for v in row] for row in high.table[high.index]] == obj["truth_high"]


class TestMaterializeTruth:
    def test_against_direct_demand(self):
        tab = manipulation_valuation_table(0)
        levels = (0, 1, 2, 3)
        opp = [3, 1, 2]
        truth = materialize_truth(Market(PriceGrid(levels), tab, (0, 0)), opp, 1)
        for t, j in enumerate(opp):
            for p in range(4):
                assert truth.table[truth.index[t], p] == tab.demand(levels[j], levels[p])[1]
