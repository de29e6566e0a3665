from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from regretaudit.market import (
    DiscreteValuationTable,
    UniformDuopoly,
    best_pure_equilibrium,
    demand_table,
    discrete_demand,
    expected_payoff_matrix,
    manipulation_valuation_table,
    uniform_demand,
)

F = Fraction

# The nine published payoff entries for prices {1, 2, 3}, each as
# (intercept, slope) in the tilt parameter: value = intercept + slope * eps.
EXPECTED_AFFINE = {
    (0, 0): ((F(123, 200), 0), (F(77, 200), 0)),
    (0, 1): ((F(17, 20), F(1, 2)), (F(3, 10), -1)),
    (0, 2): ((F(523, 600), F(1, 3)), (F(77, 200), -1)),
    (1, 0): ((F(77, 100), 0), (F(123, 200), 0)),
    (1, 1): ((F(123, 100), 0), (F(77, 100), 0)),
    (1, 2): ((F(17, 10), 1), (F(9, 20), F(-3, 2))),
    (2, 0): ((F(123, 200), 0), (F(159, 200), 0)),
    (2, 1): ((F(231, 200), 0), (F(123, 100), 0)),
    (2, 2): ((F(369, 200), 0), (F(231, 200), 0)),
}


def affine_payoffs(eps_probe=F(1, 100)):
    """Each matrix entry as exact (intercept, slope) pairs in the tilt."""
    m0 = expected_payoff_matrix(manipulation_valuation_table(0), [1, 2, 3], (0, 0))
    m1 = expected_payoff_matrix(manipulation_valuation_table(eps_probe), [1, 2, 3], (0, 0))
    out = {}
    for i in range(3):
        for j in range(3):
            b1, b2 = m0[0][j][i], m0[1][i][j]
            v1, v2 = m1[0][j][i], m1[1][i][j]
            out[(i, j)] = (
                (b1, (v1 - b1) / eps_probe),
                (b2, (v2 - b2) / eps_probe),
            )
    return out


class TestDiscreteMarket:
    def test_payoff_matrix_matches_published_entries_exactly(self):
        assert affine_payoffs() == EXPECTED_AFFINE

    def test_demand_table_is_exact_and_indexed_by_price_pair(self):
        tab = manipulation_valuation_table(F(1, 100))
        levels = [F(1), F(2), F(3)]
        x1, x2 = demand_table(tab, levels)
        for i, p1 in enumerate(levels):
            for j, p2 in enumerate(levels):
                assert (x1[j][i], x2[i][j]) == tab.demand(p1, p2)
                assert type(x1[j][i]) is Fraction and type(x2[i][j]) is Fraction

    def test_entries_are_affine_in_tilt(self):
        # A third probe point confirms affinity, not just two-point agreement.
        probe = F(1, 50)
        m = expected_payoff_matrix(manipulation_valuation_table(probe), [1, 2, 3], (0, 0))
        for (i, j), ((b1, s1), (b2, s2)) in EXPECTED_AFFINE.items():
            assert (m[0][j][i], m[1][i][j]) == (b1 + s1 * probe, b2 + s2 * probe)

    def test_demand_leaves_equality_and_hash_alone(self):
        # The v1 - v2 cells are built on the first demand and kept off the fields.
        used, fresh = manipulation_valuation_table(F(1, 100)), manipulation_valuation_table(F(1, 100))
        used.demand(1, 2)
        assert used == fresh and hash(used) == hash(fresh)
        assert used.diff_distribution() == fresh.diff_distribution()

    def test_same_price_demand_splits_tie_mass(self):
        tab = manipulation_valuation_table(0)
        x1, x2 = discrete_demand(tab, 1, 1)
        assert x1 == F(123, 200)  # 0.385 + half of the 0.46 tie mass
        assert x2 == F(77, 200)

    def test_demand_with_price_gap(self):
        tab = manipulation_valuation_table(F(1, 100))
        x1, _ = discrete_demand(tab, 1, 2)
        assert x1 == F(85, 100) + F(1, 200)

    def test_buyer_always_buys(self):
        tab = manipulation_valuation_table(F(1, 200))
        for p1 in range(4):
            for p2 in range(4):
                x1, x2 = discrete_demand(tab, p1, p2)
                assert x1 + x2 == 1

    def test_price_outside_grid_rejected(self):
        tab = manipulation_valuation_table(0)
        with pytest.raises(ValueError):
            discrete_demand(tab, 4, 1)
        with pytest.raises(ValueError):
            discrete_demand(tab, 1, F(1, 2))

    def test_probabilities_sum_to_one_and_tilt_range(self):
        manipulation_valuation_table(F(1, 40))  # boundary is admissible
        with pytest.raises(ValueError):
            manipulation_valuation_table(F(1, 39))
        with pytest.raises(ValueError):
            manipulation_valuation_table(-1)

    def test_json_loading_with_fraction_strings(self):
        ref = Path(__file__).parent / "data" / "manipulation_game.json"
        with ref.open("r") as fh:
            tab = DiscreteValuationTable.from_json(fh)
        assert tab == manipulation_valuation_table(0)
        obj = {
            "v1_levels": [0, 1],
            "v2_levels": [0, 1],
            "probs": [["1/4", 0.25], [0.25, "1/4"]],
            "epsilon": 0,
        }
        tab2 = DiscreteValuationTable.from_json(obj)
        assert sum(p for row in tab2.joint_probs for p in row) == 1

    def test_zero_cost_seller_at_price_zero_earns_nothing(self):
        m = expected_payoff_matrix(manipulation_valuation_table(0), [0, 1, 2, 3], (0, 0))
        assert all(m[0][j][0] == 0 for j in range(4))
        assert all(m[1][i][0] == 0 for i in range(4))


class TestUniformDuopoly:
    def test_benchmark_payoffs(self):
        # The first payoff, 0.1595, sits exactly 5e-4 from the rounded 0.159;
        # a float half-ulp of slack keeps the boundary case inclusive.
        tol = 5e-4 + 1e-12
        env = UniformDuopoly(0.1, 0.2)
        x1, x2 = uniform_demand(env, 0.5, 0.55)
        assert x1 == pytest.approx(0.39875, abs=1e-12)
        assert x2 == pytest.approx(0.32625, abs=1e-12)
        assert (0.5 - 0.1) * x1 == pytest.approx(0.159, abs=tol)
        assert (0.55 - 0.2) * x2 == pytest.approx(0.114, abs=tol)
        x1, x2 = uniform_demand(env, 0.6, 0.65)
        assert (0.6 - 0.1) * x1 == pytest.approx(0.169, abs=tol)
        assert (0.65 - 0.2) * x2 == pytest.approx(0.122, abs=tol)

    def test_against_monte_carlo(self, rng):
        env = UniformDuopoly(0.1, 0.2)
        n = 10_000_000
        v1 = rng.random(n)
        v2 = rng.random(n)
        pairs = [(0.5, 0.55), (0.6, 0.65), (0.15, 0.8), (0.9, 0.05)]
        for p1, p2 in pairs:
            m1 = v1 - p1
            m2 = v2 - p2
            mc1 = float(((m1 >= 0) & (m1 >= m2)).mean())
            mc2 = float(((m2 >= 0) & (m2 > m1)).mean())
            x1, x2 = uniform_demand(env, p1, p2)
            assert abs(x1 - mc1) <= 4e-4
            assert abs(x2 - mc2) <= 4e-4

    def test_price_bounds(self):
        env = UniformDuopoly(0.0, 0.0)
        with pytest.raises(ValueError):
            uniform_demand(env, 1.2, 0.5)
        with pytest.raises(ValueError):
            UniformDuopoly(1.0, 0.5)

    def test_monotone_and_feasible(self, rng):
        env = UniformDuopoly(0.3, 0.1)
        grid = np.linspace(0, 1, 21)
        for p2 in rng.random(5):
            xs = [uniform_demand(env, p1, p2)[0] for p1 in grid]
            assert all(b <= a + 1e-12 for a, b in zip(xs, xs[1:]))
        for _ in range(50):
            p1, p2 = rng.random(2)
            x1, x2 = uniform_demand(env, p1, p2)
            assert 0 <= x1 <= 1 and 0 <= x2 <= 1
            assert x1 + x2 <= 1 + 1e-12


class TestDemandInvariants:
    def test_discrete_monotone_in_own_price(self):
        tab = manipulation_valuation_table(F(1, 100))
        for p2 in range(4):
            xs = [discrete_demand(tab, p1, p2)[0] for p1 in range(4)]
            assert all(b <= a for a, b in zip(xs, xs[1:]))
            ys = [discrete_demand(tab, p2, p1)[1] for p1 in range(4)]
            assert all(b <= a for a, b in zip(ys, ys[1:]))


class TestEquilibrium:
    def test_equilibrium_of_discrete_game(self):
        m = expected_payoff_matrix(
            manipulation_valuation_table(F(1, 100)), [1, 2, 3], (0, 0)
        )
        pair, payoffs, _ = best_pure_equilibrium([1, 2, 3], m)
        assert pair == (2, 2)
        assert payoffs == (F(123, 100), F(77, 100))

    def test_equilibrium_of_duopoly_grid_game(self):
        grid = [round(0.05 * i, 2) for i in range(1, 20)]
        env = UniformDuopoly(0.1, 0.2)
        m = expected_payoff_matrix(env, grid, (0.1, 0.2))
        pair, payoffs, _ = best_pure_equilibrium(grid, m)
        assert pair == (0.5, 0.55)
        assert payoffs[0] == pytest.approx(0.1595, abs=1e-6)

    def test_tie_breaks_to_first_lexicographic_pair(self):
        flat = (((1, 1), (1, 1)), ((1, 1), (1, 1)))
        pair, _, idx = best_pure_equilibrium((1, 2), flat)
        assert idx == (0, 0)

    def test_no_pure_equilibrium_returns_none(self):
        # Matching-pennies payoffs admit no pure equilibrium.
        m = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
        assert best_pure_equilibrium((1, 2), m) is None
