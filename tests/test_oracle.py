import itertools
import math

import numpy as np
import pytest

from discmed import instance as I
from discmed import oracle
from discmed.instance import Knapsack, generate
from discmed.oracle import (
    GuardExceeded,
    brute_opt,
    brute_stochastic_opt,
    check_bicriteria,
    count_feasible_sets,
    exact_expected_max,
    feasible_sets,
)
from discmed.stochastic import StochasticInstance, StochasticPoint, eval_expected_max, generate_stochastic

from .helpers import recompute_discounted_cost


def recursive_enumerate_opt(inst):
    """Independent recursive enumerator for the cardinality case."""
    best_val, best_set = float("inf"), None

    def cost(S):
        return recompute_discounted_cost(inst, S, 1.0)

    k = inst.constraint.k

    def recurse(idx, chosen):
        nonlocal best_val, best_set
        if chosen:
            v = cost(chosen)
            cand = tuple(sorted(chosen))
            if v < best_val - 1e-15 or (abs(v - best_val) <= 1e-15 and cand < best_set):
                best_val, best_set = v, cand
        if idx == len(inst.facilities) or len(chosen) == k:
            return
        recurse(idx + 1, chosen + [inst.facilities[idx]])
        recurse(idx + 1, chosen)

    recurse(0, [])
    return best_set, best_val


class TestBruteOpt:
    def test_unconstrained_assigns_nearest(self):
        inst = generate(4, 6, kind="cardinality", seed=1)
        relaxed = I.Instance(
            inst.facilities, inst.clients, inst.metric, inst.discounts,
            inst.client_weights, I.Cardinality(len(inst.facilities)),
        )
        res = brute_opt(relaxed)
        nearest = float(
            np.sum(relaxed.w * np.maximum(relaxed.dist_fc.min(axis=0) - relaxed.r, 0.0))
        )
        assert res.value == pytest.approx(nearest)

    def test_single_feasible_singleton_forced(self):
        inst = generate(3, 4, kind="knapsack", seed=2)
        w = dict(inst.constraint.weights)
        lightest = min(w, key=lambda f: (w[f], f))
        budget = w[lightest]
        squeezed = I.Instance(
            inst.facilities, inst.clients, inst.metric, inst.discounts,
            inst.client_weights, Knapsack(w, budget),
        )
        res = brute_opt(squeezed)
        assert res.optimum == (lightest,)

    def test_agrees_with_recursive_enumerator(self):
        for seed in range(50):
            inst = generate(5, 5, kind="cardinality", seed=seed)
            mine = brute_opt(inst)
            ref_set, ref_val = recursive_enumerate_opt(inst)
            assert mine.value == pytest.approx(ref_val, abs=1e-12)
            assert mine.optimum == ref_set

    def test_value_invariant_under_duplication(self):
        inst = generate(4, 5, kind="cardinality", seed=3)
        ids = list(inst.metric.points) + ["f99"]
        n = len(inst.metric.points)
        fi = inst.metric.index[inst.facilities[0]]
        big = np.zeros((n + 1, n + 1))
        big[:n, :n] = inst.metric.dist
        big[n, :n] = inst.metric.dist[fi, :]
        big[:n, n] = inst.metric.dist[:, fi]
        dup = I.Instance(
            inst.facilities + ("f99",), inst.clients, I.MetricSpace(tuple(ids), big),
            inst.discounts, inst.client_weights, inst.constraint,
        )
        assert brute_opt(dup).value == pytest.approx(brute_opt(inst).value)

    def test_zero_discount_matches_plain_median_enumerator(self):
        for seed in range(10):
            inst = generate(4, 5, kind="cardinality", discount_scale=0.0, seed=seed)
            res = brute_opt(inst)
            best = min(
                float(np.sum(inst.w * inst.dist_fc[list(rows), :].min(axis=0)))
                for s in range(1, inst.constraint.k + 1)
                for rows in itertools.combinations(range(len(inst.facilities)), s)
            )
            assert res.value == pytest.approx(best)

    def test_guard_is_a_precomputed_count(self):
        inst = generate(4, 4, kind="cardinality", seed=0)
        assert count_feasible_sets(inst) == sum(
            len(list(itertools.combinations(range(4), s)))
            for s in range(1, inst.constraint.k + 1)
        )


class TestBruteStochasticOpt:
    def test_degenerate_distributions_reduce_to_center(self):
        st = generate_stochastic(3, 3, kind="uniform", seed=4)
        points = tuple(
            StochasticPoint(pt.pid, {max(pt.dist, key=pt.dist.get): 1.0})
            for pt in st.points
        )
        st = StochasticInstance(st.base, points)
        res = brute_stochastic_opt(st)
        realized = {next(iter(pt.dist)) for pt in points}
        rank = st.base.constraint.spec.rank_bound
        direct = min(
            max(
                min(st.base.metric.d(j, f) for f in combo)
                for j in realized
            )
            for s in range(1, rank + 1)
            for combo in itertools.combinations(st.base.facilities, s)
        )
        assert res.value == pytest.approx(direct)

    def test_all_zero_probabilities(self):
        base = generate(3, 3, kind="uniform", discount_scale=0.0, seed=5)
        st = StochasticInstance(base, (StochasticPoint("v0", {base.clients[0]: 0.0}),))
        assert brute_stochastic_opt(st).value == 0.0

    def test_exact_evaluation_matches_oracle(self):
        # every 1- and 2-set, on instances up to far more outcomes than can be enumerated
        largest = 0
        for n_pts in range(2, 41, 2):
            st = generate_stochastic(4, n_pts, kind="uniform", seed=n_pts)
            outcomes = math.prod(
                sum(q > 0 for q in pt.dist.values()) + (pt.none_probability() > 0)
                for pt in st.points
            )
            largest = max(largest, outcomes)
            for s in (1, 2):
                for S in itertools.combinations(st.base.facilities, s):
                    assert eval_expected_max(st, S) == pytest.approx(
                        exact_expected_max(st, S), rel=1e-12, abs=0.0
                    ), (n_pts, S)
        assert largest > 10**6

    def test_guard_counts_dp_updates_not_outcomes(self, monkeypatch):
        # 6 sets x 2,519,424 outcomes, yet exact_expected_max's DP makes
        # 6 x 18 x 41 = 4,428 updates: 17 clients + 1 running maxima, and
        # 16 points of 1 or 2 locations, each with a chance of none
        st = generate_stochastic(3, 16, kind="cardinality", seed=2, n_clients=17)
        res = brute_stochastic_opt(st)
        assert res.enumerated == count_feasible_sets(st.base) == 6
        assert res.value == min(exact_expected_max(st, S) for S in feasible_sets(st.base))
        monkeypatch.setattr(oracle, "ENUMERATION_GUARD", 4427)
        with pytest.raises(GuardExceeded, match=r"^4428 set/DP-update pairs exceed the 4427 guard$"):
            brute_stochastic_opt(st)


class TestCheckBicriteria:
    def test_self_comparison_holds_with_equality(self):
        inst = generate(4, 5, kind="cardinality", seed=7)
        res = brute_opt(inst)
        cert = check_bicriteria(inst, res.optimum, 1.0, 1.0)
        assert cert["holds"]
        assert cert["lhs"] == pytest.approx(cert["rhs"])

    def test_zero_optimum_requires_zero_lhs(self):
        # uniform discounts beyond the radius make the optimum exactly zero
        inst = generate(3, 4, kind="cardinality", seed=8)
        big = float(inst.metric.dist.max())
        uni = I.Instance(
            inst.facilities, inst.clients, inst.metric,
            {j: big for j in inst.clients}, inst.client_weights, inst.constraint,
        )
        assert brute_opt(uni).value == 0.0
        cert = check_bicriteria(uni, [uni.facilities[0]], 1.0, 5.0)
        assert cert["holds"] == (cert["lhs"] <= 1e-6)

    def test_lhs_shares_no_code_with_the_solvers(self, monkeypatch):
        # the certified cost is the oracle's own, not the library's discounted_cost
        def broken(*args, **kwargs):
            raise AssertionError("the oracle called instance.discounted_cost")

        inst = generate(4, 5, kind="cardinality", seed=7)
        chosen = [inst.facilities[2], inst.facilities[0]]
        expected = recompute_discounted_cost(inst, chosen, 1.5)
        monkeypatch.setattr(I, "discounted_cost", broken)
        cert = check_bicriteria(inst, chosen, 1.5, 10.0)
        assert cert["lhs"] == pytest.approx(expected, rel=1e-12)
        with pytest.raises(I.InstanceError):
            check_bicriteria(inst, ["nowhere"], 1.5, 10.0)

    def test_guard_exceeded_raises(self):
        inst = generate(4, 3, kind="cardinality", seed=9)
        import discmed.oracle as O

        old = O.ENUMERATION_GUARD
        O.ENUMERATION_GUARD = 1
        try:
            with pytest.raises(GuardExceeded):
                brute_opt(inst)
        finally:
            O.ENUMERATION_GUARD = old
