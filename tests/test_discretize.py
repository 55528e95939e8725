import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmed.discretize import DiscretizedMetric, choose_offset, discretization_ratio


class TestRoundUp:
    def test_colocation_stays_zero(self):
        dm = DiscretizedMetric(2.0, 0.3)
        assert dm.level_value(dm.level_of(0.0)) == 0.0
        assert dm.level_of(0.0) == -1

    def test_exact_boundary(self):
        dm = DiscretizedMetric(2.0, 0.0)
        assert dm.level_value(dm.level_of(1.0)) == pytest.approx(1.0)
        assert dm.level_of(1.0) == 0

    def test_offset_pushes_to_next_level(self):
        dm = DiscretizedMetric(2.0, 0.5)
        # D_1 = 2^1.5 < 3 <= D_2 = 2^2.5
        assert dm.level_value(dm.level_of(3.0)) == pytest.approx(2.0**2.5)
        assert dm.level_of(3.0) == 2

    def test_sentinel_levels(self):
        dm = DiscretizedMetric(1.7, 0.2)
        assert dm.level_value(-1) == 0.0
        assert dm.level_value(-2) == -1.0

    @given(
        c=st.floats(min_value=1.0, max_value=1e6),
        tau=st.floats(min_value=1.05, max_value=4.0),
        b=st.floats(min_value=0.0, max_value=0.999),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_rounding_window(self, c, tau, b):
        dm = DiscretizedMetric(tau, b)
        chat = dm.level_value(dm.level_of(c))
        assert chat >= c * (1 - 1e-9)
        assert chat < tau * c * (1 + 1e-9)

    def test_array_agrees_with_scalar(self):
        dm = DiscretizedMetric(1.91, 0.37)
        cs = np.array([0.0, 1.0, 1.5, 2.0, 7.3, 40.0])
        scalar = [dm.level_value(dm.level_of(float(c))) for c in cs]
        assert np.allclose(dm.round_up_array(cs), scalar)
        assert list(dm.levels_array(cs)) == [dm.level_of(float(c)) for c in cs]
        values = dm.level_values(dm.levels_array(cs))
        assert np.allclose(values, scalar)


def random_support(rng, n=12):
    c = np.where(rng.random(n) < 0.15, 0.0, rng.uniform(1.0, 50.0, n))
    r = rng.uniform(0.0, 10.0, n)
    mass = rng.uniform(0.05, 1.0, n)
    return c, r, mass


class TestChooseOffset:
    def test_powers_of_tau_align_at_zero(self):
        tau = 2.0
        c = np.array([1.0, 2.0, 4.0, 8.0])
        r = np.zeros(4)
        mass = np.ones(4)
        b, obj = choose_offset(c, r, mass, tau)
        assert b == 0.0
        assert obj == pytest.approx(c.sum())

    def test_empty_support(self):
        b, obj = choose_offset(np.array([]), np.array([]), np.array([]), 1.9)
        assert (b, obj) == (0.0, 0.0)

    def test_matches_dense_grid_search(self):
        # independent evaluation on 1e5 grid points; the exact breakpoints are
        # appended so the oracle can actually attain the piecewise minimum
        rng = np.random.default_rng(42)
        for tau in (1.91, 1.592, 2.36):
            c, r, mass = random_support(rng)
            b, obj = choose_offset(c, r, mass, tau)
            logt = math.log(tau)
            pos = c > 0
            logs = np.log(c[pos]) / logt
            fracs = logs - np.floor(logs)
            grid = np.linspace(0.0, 1.0, 100_000, endpoint=False)
            full = np.unique(np.concatenate([grid, fracs % 1.0]))

            def eval_many(gs):
                lev = np.maximum(np.ceil(logs[None, :] - gs[:, None] - 1e-12), 0.0)
                chat = tau ** (lev + gs[:, None])
                gap = np.maximum(chat - tau * r[pos][None, :], 0.0)
                return (mass[pos][None, :] * gap).sum(axis=1)  # zero-c pairs add 0

            pure_grid_best = float(eval_many(grid).min())
            union_best = float(eval_many(full).min())
            assert obj <= pure_grid_best + 1e-9  # breakpoints never lose to the grid
            assert obj == pytest.approx(union_best, abs=1e-9)

    def test_chosen_objective_beats_zero_offset(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c, r, mass = random_support(rng)
            tau = float(rng.uniform(1.3, 2.6))
            _, obj = choose_offset(c, r, mass, tau)
            dm = DiscretizedMetric(tau, 0.0)
            at_zero = float(np.sum(mass * np.maximum(dm.round_up_array(c) - tau * r, 0.0)))
            assert obj <= at_zero + 1e-12

    def test_bound_against_original_objective(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            c, r, mass = random_support(rng)
            tau = float(rng.uniform(1.2, 3.0))
            _, obj = choose_offset(c, r, mass, tau)
            bound = discretization_ratio(tau) * float(np.sum(mass * np.maximum(c - r, 0.0)))
            assert obj <= bound + 1e-9


class TestUniformOffsetExpectation:
    def test_monte_carlo_expectation_bound_per_pair(self):
        # mean over uniform b of (chat - tau*r)^+ vs the closed-form ceiling
        rng = np.random.default_rng(7)
        n_samples = 100_000
        bs = rng.random(n_samples)
        for _ in range(25):
            c = float(rng.uniform(1.0, 60.0))
            tau = float(rng.uniform(1.2, 2.8))
            r = float(rng.uniform(0.0, c * 1.2))
            logc = math.log(c) / math.log(tau)
            lev = np.maximum(np.ceil(logc - bs - 1e-12), 0.0)
            chat = tau ** (lev + bs)
            vals = np.maximum(chat - tau * r, 0.0)
            mean = float(vals.mean())
            sigma = float(vals.std(ddof=1)) / math.sqrt(n_samples)
            bound = discretization_ratio(tau) * max(c - r, 0.0)
            assert mean <= bound + 3.0 * sigma + 1e-9

    def test_piecewise_monotone_between_breakpoints(self):
        # on [0, u) and [u, 1) the inflated term is nondecreasing in b
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = float(rng.uniform(1.0, 40.0))
            tau = float(rng.uniform(1.2, 2.5))
            r = float(rng.uniform(0.0, c))
            u = (math.log(c) / math.log(tau)) % 1.0
            for lo, hi in ((0.0, u), (u, 1.0)):
                if hi - lo < 1e-6:
                    continue
                bs = np.sort(rng.uniform(lo, hi - 1e-9, 40))
                dm_vals = []
                for b in bs:
                    dm = DiscretizedMetric(tau, float(b))
                    dm_vals.append(max(dm.level_value(dm.level_of(c)) - tau * r, 0.0))
                diffs = np.diff(dm_vals)
                assert np.all(diffs >= -1e-9)
