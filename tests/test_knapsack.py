import contextlib
import dataclasses
import hashlib
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmed import instance as I
from discmed import knapsack
from discmed.fractional import (
    SUPPORT_TOL,
    BallSystem,
    build_natural_lp,
    duplicate_star_balanced,
    solve_natural,
    star_costs,
)
from discmed.instance import Knapsack, discounted_cost, generate
from discmed.iterround import RoundingError, RoundState
from discmed.lpcore import FEAS_TOL
from discmed.knapsack import (
    ExtendedInstance,
    SparsifyGuard,
    compute_Rj,
    enumerate_estimates,
    knapsack_alpha,
    knapsack_est_coefficient,
    solve_extended,
    solve_knapmeddis,
    sparsify_structures,
)
from discmed.oracle import brute_opt

from .helpers import (
    assert_sparse_conditions,
    nearest_dist,
    paper_two_phase,
)


def knap_instance(seed=0, nf=3, nc=4, scale=0.4):
    return generate(nf, nc, kind="knapsack", discount_scale=scale, seed=seed)


def plain_extended(inst, est, rho=0.5, delta=2 / 3, f0=(), removed=()):
    cprime = tuple(j for j in inst.clients if j not in removed)
    return ExtendedInstance(inst, tuple(f0), cprime, rho, delta, est)


def candidate_facts(cand):
    """A candidate's set, LP objective, cost, residual and certificates, bit for bit."""
    return (
        cand.solution,
        float(cand.lp_objective).hex(),
        float(cand.true_discounted_cost).hex(),
        cand.fractional_residual,
        [(c.name, float(c.lhs).hex(), float(c.rhs).hex(), c.holds) for c in cand.certificates],
    )


def candidate_outcome(cand):
    """What a carried task must share with a cold solve of it: the set, its
    cost and residual bit for bit, and each certificate's verdict."""
    return (
        cand.solution,
        float(cand.true_discounted_cost).hex(),
        cand.fractional_residual,
        [(c.name, c.holds) for c in cand.certificates],
    )


def assert_vertex_fits_lp(ext, rnd):
    """Place the decoded vertex ``rnd.x``, ``rnd.y`` in the strengthened LP
    of ``ext`` and apply lpcore's post-hoc row and bound audit at FEAS_TOL."""
    inst = ext.base
    nat = build_natural_lp(inst, ext)
    support = set(zip(*(a.tolist() for a in rnd.x.nonzero())))
    assert support <= set(nat.x_index), "support on a pair the LP eliminates"
    values = np.zeros(nat.lp.n_vars)
    values[: len(inst.facilities)] = rnd.y
    for (fi, cj), v in nat.x_index.items():
        values[v] = rnd.x[fi, cj]
    lp = nat.lp
    for i, (lhs, rhs, rel) in enumerate(zip(lp.matrix() @ values, lp.row_rhs, lp.row_rel)):
        err = lhs - rhs
        assert (abs(err) if rel == "=" else err) <= FEAS_TOL * max(1.0, abs(rhs)), (i, err)
    assert (values >= lp.lo - FEAS_TOL).all() and (values <= lp.hi + FEAS_TOL).all()


def assert_carry_contract(
    inst, tau=1.9, rho=0.5, delta=2 / 3, eps=0.25, lp_rel=1e-12
) -> tuple[int, int]:
    """Solve ``inst`` with its chains' carry, then every task cold, and check
    the carry against the cold enumeration; returns the number of carried
    tasks and of those among them where the cold solve found a tie.

    A task solved with its LP is a cold solve, bit for bit. A carried task's
    vertex fits its LP, and its LP objective is the cold one within
    ``lp_rel`` relative (1e-12 absolute near 0, where both are summation
    noise). When the cold solve returns the carried vertex, the outcome is
    the cold one; when it returns another vertex at that objective, a tie,
    every certificate of the carried task holds. The counts in the report
    are the cold enumeration's, and the split and the rounding run once per
    feasible task that was not carried.
    """
    calls = {"duplicate_star_balanced": 0, "iter_round": 0}
    carried = {}

    def counting(name):
        inner = getattr(knapsack, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapped

    def recording(ext, tau, carry=None):
        carried[ext.index] = solve_extended(ext, tau, carry)
        return carried[ext.index]

    with contextlib.ExitStack() as patches:
        for name in calls:
            patches.enter_context(mock.patch.object(knapsack, name, counting(name)))
        patches.enter_context(mock.patch.object(knapsack, "solve_extended", recording))
        rep = solve_knapmeddis(inst, tau=tau, rho=rho, delta=delta, epsilon=eps)

    chains = knapsack._task_table(
        I.normalize(inst), rho, delta, eps, knapsack.theoretical_caps(rho, delta),
        knapsack.DEFAULT_MAX_CANDIDATES,
    )
    cold, skipped = {}, 0
    for chain in chains:
        for ext in chain:
            cold[ext.index] = (ext, solve_extended(ext, tau))
        results = [cand for _, cand in (cold[ext.index] for ext in chain)]
        stop = results.index(None) if None in results else len(results) - 1
        skipped += len(results) - stop - 1
    feasible = sum(cand is not None for _, cand in cold.values())
    reused = sum(cand is not None and cand.reused for cand in carried.values())
    assert rep.extras["evaluated"] == len(cold)
    assert rep.extras["feasible"] == feasible
    assert rep.extras["skipped"] == skipped == len(cold) - len(carried)
    assert rep.extras["reused"] == reused
    assert calls == dict.fromkeys(calls, feasible - reused)
    ties = 0
    for k, cand in carried.items():
        ext, cold_cand = cold[k]
        if cand is None or not cand.reused:
            assert (cand and candidate_facts(cand)) == (cold_cand and candidate_facts(cold_cand))
            continue
        assert cold_cand is not None and not cold_cand.reused
        rnd, cold_rnd = cand.rounding, cold_cand.rounding
        assert_vertex_fits_lp(ext, rnd)
        assert cand.lp_objective == pytest.approx(cold_cand.lp_objective, rel=lp_rel, abs=1e-12)
        if np.allclose(rnd.x, cold_rnd.x, rtol=0.0, atol=SUPPORT_TOL) and np.allclose(
            rnd.y, cold_rnd.y, rtol=0.0, atol=SUPPORT_TOL
        ):
            assert candidate_outcome(cand) == candidate_outcome(cold_cand)
        else:
            ties += 1
            assert all(c.holds for c in cand.certificates)
    return reused, ties


class TestEnumerateEstimates:
    def test_zero_optimum_collapses_to_single_pair(self):
        metric = I.MetricSpace(("f00", "c00"), np.zeros((2, 2)))
        inst = I.Instance(
            ("f00",), ("c00",), metric, {"c00": 0.0}, {"c00": 1.0},
            Knapsack({"f00": 1.0}, 1.0),
        )
        assert enumerate_estimates(inst, 0.5) == [(0.0, 0.0)]

    def test_grid_shape_matches_client_count(self):
        inst = knap_instance(seed=1, nc=4)
        pairs = enumerate_estimates(inst, 1.0)
        # ceil(log2 4) = 2, so each positive c0 yields s in {0, 1, 2}
        per_c0 = {}
        for c0, est in pairs:
            per_c0.setdefault(c0, []).append(est)
        for c0, ests in per_c0.items():
            if c0 > 0:
                assert ests == pytest.approx([c0, 2 * c0, 4 * c0])

    def test_true_optimum_is_covered(self):
        for seed in range(10):
            inst = knap_instance(seed=seed)
            opt = brute_opt(inst).value
            if opt <= 0:
                continue
            eps = 0.25
            pairs = enumerate_estimates(inst, eps)
            assert any(opt - 1e-9 <= est <= (1 + eps) * opt + 1e-9 for _, est in pairs)

    @pytest.mark.parametrize("eps, count", [(1e-300, "inf"), (1e-9, "6.59e+09")])
    def test_tiny_epsilon_is_refused_before_the_grid_is_built(self, eps, count):
        # 1 + 1e-300 rounds to 1, so the grid never grows, and 1e-9 asks for
        # billions of pairs; both are counted, not built
        inst = knap_instance(seed=1, nf=2, nc=3)
        message = rf"epsilon={eps!r} gives {re.escape(count)} estimate pairs, above the cap 200000"
        with pytest.raises(SparsifyGuard, match=message):
            enumerate_estimates(inst, eps)

    def test_grid_is_counted_exactly(self):
        inst = knap_instance(seed=1, nf=2, nc=3)
        pairs = enumerate_estimates(inst, 0.25)
        assert enumerate_estimates(inst, 0.25, max_candidates=len(pairs)) == pairs
        with pytest.raises(SparsifyGuard):
            enumerate_estimates(inst, 0.25, max_candidates=len(pairs) - 1)


class TestComputeRj:
    def test_zero_budget_zero_discount_pins_zero(self):
        inst = knap_instance(seed=2, scale=0.0)  # all discounts zero
        ext = plain_extended(inst, est=0.0)
        j = inst.clients[0]
        assert compute_Rj(ext, j) == 0.0

    def test_isolated_client_closed_form(self):
        # one facility, one client: the only ball term is the client itself
        metric = I.MetricSpace(
            ("f00", "c00"), np.array([[0.0, 5.0], [5.0, 0.0]])
        )
        inst = I.Instance(
            ("f00",), ("c00",), metric, {"c00": 1.2}, {"c00": 1.0},
            Knapsack({"f00": 1.0}, 1.0),
        )
        rho, delta, est = 0.5, 2 / 3, 4.0
        ext = plain_extended(inst, est=est, rho=rho, delta=delta)
        expected = 1.2 / (1 - delta) + rho * est
        assert compute_Rj(ext, "c00") == pytest.approx(expected, rel=1e-12)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(8)
        for seed in range(15):
            inst = knap_instance(seed=seed, nf=3, nc=6)
            est = float(rng.uniform(0.5, 30.0))
            ext = plain_extended(inst, est=est)
            delta, rho = ext.delta, ext.rho
            cols = [inst.cli_pos[j] for j in ext.cprime]
            j = inst.clients[int(rng.integers(0, len(inst.clients)))]
            cj = inst.cli_pos[j]

            def g(R):
                total = 0.0
                for col in cols:
                    if inst.dist_cc[cj, col] <= delta * R:
                        total += inst.w[col] * max(R - inst.r[col] / (1 - delta), 0.0)
                return total

            r_star = compute_Rj(ext, j)
            budget = rho * est
            cap = float(inst.metric.dist.max()) / delta + budget + 2.0
            if g(cap) <= budget:
                assert r_star >= cap - 1.0
                continue
            lo, hi = 0.0, cap
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if g(mid) <= budget:
                    lo = mid
                else:
                    hi = mid
            assert r_star == pytest.approx(lo, abs=1e-9)
            assert g(r_star) <= budget + 1e-9  # the defining inequality still holds


class TestSparsify:
    def test_zero_caps_single_instance(self):
        inst = knap_instance(seed=3)
        assert sparsify_structures(inst, 0.5, 2 / 3, caps=(0, 0)) == [((), inst.clients)]

    def test_cap_total_one_counts_f0_singletons(self):
        inst = knap_instance(seed=4, nf=3)
        out = sparsify_structures(inst, 0.5, 2 / 3, caps=(1, 0))
        assert len(out) == 4  # empty F0 plus three singletons, no removals

    def test_guard_refuses_with_count(self):
        inst = knap_instance(seed=5, nf=6, nc=8)
        with pytest.raises(SparsifyGuard, match="projected"):
            sparsify_structures(inst, 0.5, 2 / 3, max_candidates=10)

    def test_planted_sparse_instance_is_emitted_and_satisfies_conditions(self):
        # replay the two-phase construction around the brute-force optimum and
        # check the result appears in the enumeration with both conditions
        for seed in range(20):
            inst = knap_instance(seed=seed, nf=4, nc=6, scale=0.3)
            rho, delta, eps = 0.5, 2 / 3, 0.25
            opt = brute_opt(inst)
            if opt.value <= 0:
                est = 0.0
            else:
                c0_star = max(
                    inst.w[cj]
                    * max(min(inst.dist_fc[inst.fac_pos[f], cj] for f in opt.optimum)
                          - inst.r[cj], 0.0)
                    for cj in range(len(inst.clients))
                )
                s = math.ceil(math.log(opt.value / c0_star) / math.log(1 + eps)) if opt.value > c0_star else 0
                est = c0_star * (1 + eps) ** s
            f0, cprime = paper_two_phase(inst, opt.optimum, rho, delta, est)
            pairs = sparsify_structures(inst, rho, delta)
            assert (tuple(sorted(f0)), tuple(sorted(cprime))) in set(pairs), seed
            assert_sparse_conditions(inst, opt.optimum, f0, cprime, rho, delta, est)


class TestEliminationAudit:
    def test_capped_pairs_are_absent_from_the_lp(self):
        # a C' pair has no variable exactly when it lies beyond the client's
        # radius cap or, for a facility outside F0, costs more than rho*EST
        from discmed.fractional import build_natural_lp

        audited = 0
        for seed in range(8):
            inst = knap_instance(seed=seed, nf=3, nc=5)
            est = max(brute_opt(inst).value, 0.5)
            f0 = (inst.facilities[seed % 3],) if seed % 2 else ()
            ext = plain_extended(inst, est=est, f0=f0)
            nat = build_natural_lp(inst, extended=ext)
            nf = len(inst.facilities)
            for cj in range(len(inst.clients)):
                for fi in range(nf):
                    beyond = inst.dist_fc[fi, cj] > ext.radius_cap(inst.clients[cj])
                    costly = inst.contrib[fi, cj] > ext.rho * ext.est + 1e-12
                    capped = beyond or (costly and inst.facilities[fi] not in f0)
                    assert ((fi, cj) in nat.x_index) == (not capped), (seed, fi, cj)
                    audited += capped
            assert nat.lp.n_vars == nf + len(nat.x_index)
        assert audited > 0


class TestLemma43AndDuplication:
    def test_feasibility_and_objective_bound_on_planted_instances(self):
        # the induced integral solution stays feasible, so U lower-bounds it
        for seed in range(10):
            inst = knap_instance(seed=seed, nf=3, nc=5, scale=0.3)
            rho, delta = 0.5, 2 / 3
            opt = brute_opt(inst)
            est = max(opt.value, 1e-6) * 1.1
            f0, cprime = paper_two_phase(inst, opt.optimum, rho, delta, est)
            ext = ExtendedInstance(inst, f0, cprime, rho, delta, est)
            if sum(inst.constraint.weights[f] for f in f0) > inst.constraint.budget:
                continue
            frac = solve_natural(inst, extended=ext)
            induced = sum(
                inst.client_weights[j]
                * max(nearest_dist(inst, j, opt.optimum) - inst.discounts[j], 0.0)
                for j in ext.cprime
            )
            assert frac.objective_value <= induced + 1e-6
            removed_cost = (
                sum(
                    inst.client_weights[j]
                    * max(
                        nearest_dist(inst, j, f0) - (1 + delta) / (1 - delta) * inst.discounts[j],
                        0.0,
                    )
                    for j in set(inst.clients) - set(cprime)
                )
                if f0
                else 0.0
            )
            lhs = (1 - delta) / (1 + delta) * removed_cost + frac.objective_value
            assert lhs <= est + 1e-6

    def test_already_split_solution_is_a_noop(self):
        # x in {0, y} everywhere: no copies added, star cap inherited
        from discmed.fractional import FractionalSolution

        metric = I.MetricSpace(
            ("f00", "f01", "c00", "c01"),
            np.array(
                [
                    [0.0, 4.0, 1.0, 5.0],
                    [4.0, 0.0, 5.0, 1.0],
                    [1.0, 5.0, 0.0, 6.0],
                    [5.0, 1.0, 6.0, 0.0],
                ]
            ),
        )
        inst = I.Instance(
            ("f00", "f01"), ("c00", "c01"), metric,
            {"c00": 0.0, "c01": 0.0}, {"c00": 1.0, "c01": 1.0},
            Knapsack({"f00": 1.0, "f01": 1.0}, 2.0),
        )
        ext = plain_extended(inst, est=4.0)
        sol = FractionalSolution(
            x=np.array([[1.0, 0.0], [0.0, 1.0]]), y=np.array([1.0, 1.0]),
            objective_value=2.0,
        )
        bs = duplicate_star_balanced(sol, inst, ext)
        assert bs.n_copies == 2
        assert bs.F[0] == {0} and bs.F[1] == {1}

    def test_two_clients_sharing_a_full_facility(self):
        # both per-client terms fit the per-facility cap; combined star <= twice it
        from discmed.fractional import FractionalSolution

        metric = I.MetricSpace(
            ("f00", "c00", "c01"),
            np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 5.0], [3.0, 5.0, 0.0]]),
        )
        inst = I.Instance(
            ("f00",), ("c00", "c01"), metric,
            {"c00": 0.0, "c01": 0.0}, {"c00": 1.0, "c01": 1.0},
            Knapsack({"f00": 1.0}, 1.0),
        )
        rho, est = 0.5, 6.0  # per-client terms 2 and 3, both <= rho*EST = 3
        ext = plain_extended(inst, est=est, rho=rho)
        sol = FractionalSolution(
            x=np.array([[1.0, 1.0]]), y=np.array([1.0]), objective_value=5.0
        )
        bs = duplicate_star_balanced(sol, inst, ext)
        stars = star_costs(bs, inst)
        assert float(stars.max()) == pytest.approx(5.0)
        assert float(stars.max()) <= 2 * rho * est + 1e-9

    def test_star_balanced_duplication_bounds(self):
        from discmed.lpcore import InfeasibleLP

        built = 0
        for seed in range(12):
            inst = knap_instance(seed=seed, nf=3, nc=5, scale=0.4)
            est = max(2.0 * brute_opt(inst).value, 0.5)
            ext = plain_extended(inst, est=est)
            try:
                frac = solve_natural(inst, extended=ext)
            except InfeasibleLP:
                continue  # this (F0, EST) pair is simply not the sparse one
            bs = duplicate_star_balanced(frac, inst, ext)  # raises if a mass bound fails
            stars = star_costs(bs, inst)
            assert float(stars.max(initial=0.0)) <= 2 * ext.rho * ext.est + 1e-6
            built += 1
        assert built >= 6


class TestSolveExtended:
    def test_unit_weight_budget_behaves_like_cardinality(self):
        inst0 = generate(4, 5, kind="cardinality", seed=6)
        weights = {f: 1.0 for f in inst0.facilities}
        inst = I.Instance(
            inst0.facilities, inst0.clients, inst0.metric, inst0.discounts,
            inst0.client_weights, Knapsack(weights, 2.0),
        )
        est = brute_opt(inst).value * 1.2 + 1.0
        cand = solve_extended(plain_extended(inst, est=est), tau=1.9)
        assert cand is not None
        assert len(cand.solution) <= 2
        assert cand.fractional_residual in (0, 1, 2)

    def test_infeasible_extended_instances_are_skipped(self):
        inst = knap_instance(seed=7)
        heavy = max(inst.constraint.weights, key=inst.constraint.weights.get)
        light_budget = inst.constraint.weights[heavy] - 1e-6
        squeezed = I.Instance(
            inst.facilities, inst.clients, inst.metric, inst.discounts,
            inst.client_weights, Knapsack(inst.constraint.weights, light_budget),
        )
        ext = plain_extended(squeezed, est=1.0, f0=(heavy,))
        assert solve_extended(ext, tau=1.9) is None

    def test_t2_resolution_opens_lighter_facility(self):
        from discmed.knapsack import _resolve_fractional
        from discmed.fractional import BallSystem

        bs = BallSystem(
            orig=["a", "b"], y=np.array([0.4, 0.6]), dist=np.zeros((2, 0)), F=[],
        )

        class _St:
            def dump(self):
                return ""

        weights = {"a": 3.0, "b": 5.0}
        y_star, t, closed = _resolve_fractional(np.array([0.4, 0.6]), bs, weights, _St())
        assert t == 2
        assert list(y_star) == [1.0, 0.0]  # weight 3 opens, weight 5 closes
        assert closed == 1

    def test_task_facts(self):
        inst = knap_instance(seed=3, nf=3, nc=4)
        ext = plain_extended(inst, est=1.0, removed=(inst.clients[1],))
        assert ext.cols == [0, 2, 3]
        assert not ext.near_f0.any()
        ext = plain_extended(inst, est=1.0, f0=(inst.facilities[2],))
        assert list(ext.near_f0) == [False, False, True]

    def test_star_cap_violation_raises_before_rounding(self, monkeypatch):
        # the split reads no EST; solve_extended checks its star costs against
        # 2*rho*EST and stops before the offset search and the rounding loop
        inst = knap_instance(seed=1, nf=3, nc=4)
        ext = plain_extended(inst, est=50.0)

        def inflated(sol, inst, ext):
            bs = duplicate_star_balanced(sol, inst, ext)
            bs.star[-1] = 2.0 * ext.rho * ext.est + 1e-5
            return bs

        def no_rounding(*args, **kwargs):
            raise AssertionError("rounding ran past a broken star cap")

        monkeypatch.setattr(knapsack, "duplicate_star_balanced", inflated)
        monkeypatch.setattr(knapsack, "choose_offset", no_rounding)
        monkeypatch.setattr(knapsack, "iter_round", no_rounding)
        with pytest.raises(I.InstanceError, match=r"star cost 50 above the 2\*rho\*EST cap"):
            solve_extended(ext, tau=1.9)

    def test_task_error_names_f0_and_est(self, monkeypatch):
        inst = knap_instance(seed=1, nf=3, nc=4)
        ext = plain_extended(inst, est=50.0, f0=(inst.facilities[0],))
        monkeypatch.setattr(knapsack, "fractional_copies", lambda y: [0, 1, 2])
        with pytest.raises(
            RoundingError,
            match=r"knapsack task F0=\['f00'\] EST=50\.0: 3 fractional coordinates",
        ):
            solve_extended(ext, tau=1.9)

    def test_empty_surviving_set_returns_the_preselection(self):
        inst = knap_instance(seed=13, nf=3, nc=4)
        w = inst.constraint.weights
        cheapest = min(inst.facilities, key=lambda f: w[f])
        ext = ExtendedInstance(inst, (cheapest,), (), 0.5, 2 / 3, est=1.0)
        cand = solve_extended(ext, tau=1.9)
        assert cand is not None
        assert cand.solution == (cheapest,)
        assert cand.fractional_residual == 0

    def test_f0_always_kept_and_budget_respected(self):
        for seed in range(8):
            inst = knap_instance(seed=seed, nf=3, nc=4)
            est = max(brute_opt(inst).value, 0.5) * 1.3
            w = inst.constraint.weights
            cheapest = min(inst.facilities, key=lambda f: w[f])
            if w[cheapest] > inst.constraint.budget:
                continue
            ext = plain_extended(inst, est=est, f0=(cheapest,))
            cand = solve_extended(ext, tau=1.9)
            if cand is None:
                continue
            assert cheapest in cand.solution
            assert sum(w[f] for f in cand.solution) <= inst.constraint.budget + 1e-7
            assert all(c.holds for c in cand.certificates)

    def test_carry_settles_a_repeated_vertex(self, monkeypatch):
        # EST 60 and 50 of one (F0, C') pair share an optimal vertex: carried
        # from the first task, the second reuses its rounding and solves no LP
        inst = knap_instance(seed=1, nf=3, nc=4)
        first, second = (plain_extended(inst, est=est) for est in (60.0, 50.0))
        cold = [solve_extended(ext, 1.9) for ext in (first, second)]
        assert [cand.reused for cand in cold] == [False, False]

        def no_lp(*args, **kwargs):
            raise AssertionError("a carried task solved its LP")

        monkeypatch.setattr(knapsack, "solve_natural", no_lp)
        cand = solve_extended(second, 1.9, carry=cold[0])
        monkeypatch.undo()
        assert cand.reused and cand.rounding is cold[0].rounding
        assert_vertex_fits_lp(second, cand.rounding)
        assert cand.lp_objective == pytest.approx(cold[1].lp_objective, rel=1e-12, abs=1e-12)
        assert candidate_outcome(cand) == candidate_outcome(cold[1])
        # the carry keeps the vertex and one small record: no ball system or
        # rounding state
        rnd = cand.rounding
        assert rnd.closed_fac is not None and rnd.rerouted
        for f in dataclasses.fields(rnd):
            value = getattr(rnd, f.name)
            assert not isinstance(value, (BallSystem, RoundState)), f.name

    @pytest.mark.parametrize(
        "change",
        [
            {"est": 70.0},
            {"f0": ("f00",)},
            {"removed": ("c00",)},
            {"rho": 0.6},
            {"tau": 1.8},
        ],
        ids=["higher-est", "other-f0", "other-cprime", "other-rho", "other-tau"],
    )
    def test_carry_is_refused_across_chains_and_upward(self, change):
        # the carried vertex is optimal only for the same (F0, C'), rho, delta
        # and tau at an EST no higher; any other task solves its own LP
        inst = knap_instance(seed=1, nf=3, nc=4)
        carry = solve_extended(plain_extended(inst, est=60.0), 1.9)
        opts = {"est": 60.0, **change}
        tau = opts.pop("tau", 1.9)
        ext = plain_extended(inst, **opts)
        cand = solve_extended(ext, tau, carry=carry)
        cold = solve_extended(ext, tau)
        assert not cand.reused
        assert candidate_facts(cand) == candidate_facts(cold)

    def test_unit_volume_within_radial_bound(self):
        # every surviving client sees unit opened mass within the level radius
        from discmed.discretize import DiscretizedMetric
        from discmed.fractional import duplicate_star_balanced
        from discmed.iterround import iter_round, offset_support
        from discmed.discretize import choose_offset

        from discmed.lpcore import InfeasibleLP

        checked = 0
        for seed in range(10):
            inst = knap_instance(seed=seed, nf=3, nc=5, scale=0.3)
            est = max(2.0 * brute_opt(inst).value, 0.5)
            ext = plain_extended(inst, est=est)
            try:
                frac = solve_natural(inst, extended=ext)
            except InfeasibleLP:
                continue
            bs = duplicate_star_balanced(frac, inst, ext)
            cols = sorted(inst.cli_pos[j] for j in ext.cprime)
            c_arr, r_arr, m_arr = offset_support(bs, inst, cols)
            b, _ = choose_offset(c_arr, r_arr, m_arr, 1.9)
            dm = DiscretizedMetric(1.9, b)
            y_raw, state = iter_round(bs, inst, dm, h=1, cols=cols)
            radial = (3 * 1.9 - 1) / (1.9 - 1)
            for cj in cols:
                key = inst.clients[cj]
                radius = radial * dm.level_value(state.level[key])
                vol = sum(
                    float(y_raw[c])
                    for c in range(bs.n_copies)
                    if bs.dist[c, cj] <= radius + 1e-9
                )
                assert vol >= 1.0 - 1e-6, (seed, key)
            checked += 1
        assert checked >= 5


class TestSolveKnapMedDis:
    def test_free_colocated_facility_gives_zero(self):
        # a zero-weight facility sitting on every client at distance zero
        metric = I.MetricSpace(
            ("f00", "f01", "c00", "c01"),
            np.array(
                [
                    [0.0, 2.0, 0.0, 0.0],
                    [2.0, 0.0, 2.0, 2.0],
                    [0.0, 2.0, 0.0, 0.0],
                    [0.0, 2.0, 0.0, 0.0],
                ]
            ),
        )
        inst = I.Instance(
            ("f00", "f01"), ("c00", "c01"), metric,
            {"c00": 0.0, "c01": 0.0}, {"c00": 1.0, "c01": 1.0},
            Knapsack({"f00": 1.0, "f01": 1.0}, 1.5),
        )
        rep = solve_knapmeddis(inst, tau=1.9, rho=0.5, epsilon=0.5)
        assert rep.objective == 0.0

    def test_lp_optimum_is_never_negative(self):
        # the winning task's LP vertex costs -3.83e-16 in floating point,
        # though every cost and bound of the LP is >= 0
        inst = generate(2, 2, kind="knapsack", discount_scale=0.4, seed=1430918282)
        rep = solve_knapmeddis(inst, tau=1.9, rho=0.5, delta=2 / 3, epsilon=0.25)
        values = [rep.lp_optimum] + [c["lpObjective"] for c in rep.extras["candidates"]]
        assert rep.lp_optimum == 0.0
        assert all(math.copysign(1.0, v) == 1.0 for v in values)  # -0.0 neither

    def test_every_candidate_certificate_holds_and_is_pinned(self, monkeypatch):
        # the report keeps only the winner's certificates; record every
        # candidate's, losers included, through the task solver
        certs = []

        def recording(ext, tau, carry=None):
            cand = solve_extended(ext, tau, carry)
            if cand is not None:
                certs.extend(cand.certificates)
            return cand

        monkeypatch.setattr(knapsack, "solve_extended", recording)
        for nf, nc, seed in ((2, 3, 3), (3, 4, 1)):
            inst = knap_instance(seed=seed, nf=nf, nc=nc)
            solve_knapmeddis(inst, tau=1.9, rho=0.5, delta=2 / 3, epsilon=0.25)
        assert [c for c in certs if not c.holds] == []
        names = {c.name.split("[")[0] for c in certs}
        assert {"reroute_J1", "reroute_J1_total", "star_cost_le_2rhoEST"} <= names
        # sorted, so the digest pins the set of certificates, not the solve order
        rows = sorted((c.name, float(c.lhs).hex(), float(c.rhs).hex(), c.holds) for c in certs)
        assert len(rows) == 1303
        digest = hashlib.sha1(json.dumps(rows).encode()).hexdigest()
        assert digest == "86bc8cf20e355566631cb2040aec9f7d29d7f38b"

    @pytest.mark.parametrize("nf, nc, seed", [(2, 3, 3), (3, 4, 1)])
    def test_chain_stop_is_exact(self, monkeypatch, nf, nc, seed):
        # every task a chain settles without a solve is one that solves to
        # None, so the report is the one a solve of every task would give
        tau, rho, delta, eps = 1.9, 0.5, 2 / 3, 0.25
        inst = knap_instance(seed=seed, nf=nf, nc=nc)
        solved = set()

        def recording(ext, tau, carry=None):
            solved.add((ext.f0, ext.cprime, ext.est))
            return solve_extended(ext, tau, carry)

        monkeypatch.setattr(knapsack, "solve_extended", recording)
        rep = solve_knapmeddis(inst, tau=tau, rho=rho, delta=delta, epsilon=eps)
        norm = I.normalize(inst)
        chains = knapsack._task_table(
            norm, rho, delta, eps, knapsack.theoretical_caps(rho, delta),
            knapsack.DEFAULT_MAX_CANDIDATES,
        )
        for chain in chains:  # one (F0, C') pair per chain, in descending EST
            assert len({(ext.f0, ext.cprime) for ext in chain}) == 1
            assert [ext.est for ext in chain] == sorted((ext.est for ext in chain), reverse=True)
        tasks = sorted((ext for chain in chains for ext in chain), key=lambda ext: ext.index)
        assert [ext.index for ext in tasks] == list(range(len(tasks)))
        coef = knapsack_est_coefficient(tau, rho, delta)
        summaries = []
        for ext in tasks:
            assert ext.est == min(ext.ests)
            cand = solve_extended(ext, tau)
            if (ext.f0, ext.cprime, ext.est) not in solved:
                assert cand is None, (ext.f0, ext.cprime, ext.est)
            if cand is not None:
                cost = cand.true_discounted_cost
                summaries.append({
                    "f0": list(ext.f0),
                    "removed": len(norm.clients) - len(ext.cprime),
                    "est": ext.est,
                    "cost": cost,
                    "t": cand.fractional_residual,
                    "lpObjective": cand.lp_objective,
                    "withinEstBound": any(
                        cost <= coef * e + 1e-6 * max(1.0, coef * e) for e in ext.ests
                    ),
                })
        # a carried task keeps its chain's LP objective, equal to its own
        # within rounding; every other field is exact
        got = rep.extras["candidates"]
        assert [s["lpObjective"] for s in got] == pytest.approx(
            [s["lpObjective"] for s in summaries], rel=1e-12, abs=1e-12
        )
        assert [dict(s, lpObjective=0.0) for s in got] == [
            dict(s, lpObjective=0.0) for s in summaries
        ]
        assert rep.extras["feasible"] == len(summaries)
        assert rep.extras["evaluated"] == len(tasks)
        assert rep.extras["skipped"] == len(tasks) - len(solved) > 0
        assert rep.extras["feasible"] + rep.extras["skipped"] <= rep.extras["evaluated"]

    @pytest.mark.parametrize("nf, nc, seed", [(2, 3, 3), (3, 4, 1)])
    def test_carried_tasks_keep_the_cold_answer(self, nf, nc, seed):
        # a task whose LP still admits its chain's carried vertex reuses that
        # vertex's split and rounding; see assert_carry_contract
        reused, ties = assert_carry_contract(knap_instance(seed=seed, nf=nf, nc=nc))
        assert reused > 0 and ties == 0

    @given(
        nf=st.integers(2, 3),
        nc=st.integers(2, 3),
        seed=st.integers(0, 10**6),
        scale=st.sampled_from([0.0, 0.2, 0.4, 0.8]),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_carry_contract_on_random_instances(self, nf, nc, seed, scale):
        # ties come up here: a cold solve may return another optimal vertex.
        # And a cold solve carries its own pivoting error, which reached
        # 2.6e-11 relative in the objective on a 3x4 instance, while the
        # carried vertex was the more accurate one
        inst = knap_instance(seed=seed, nf=nf, nc=nc, scale=scale)
        assert_carry_contract(inst, eps=0.5, lp_rel=1e-9)

    def test_permuted_client_ids_report_is_pinned(self):
        # client ids that do not sort like their positions, and non-unit
        # weights: the radius caps and saturation thresholds sum over C' in
        # position order, which moves four of this instance's radius caps by
        # one ulp from a sum in id order; the report keeps the digest it had
        # when the radius caps summed in id order, but for the chains' carry,
        # which moves the reused count and candidates' lpObjective last bits
        inst = knap_instance(seed=3, nf=3, nc=4)
        weights = {j: 0.5 + 0.75 * k for k, j in enumerate(inst.clients)}
        inst = dataclasses.replace(
            inst, clients=tuple(reversed(inst.clients)), client_weights=weights
        )
        rep = solve_knapmeddis(inst, tau=1.9, rho=0.5, delta=2 / 3, epsilon=0.25)
        blob = json.dumps(rep.to_json(), sort_keys=True).encode()
        assert hashlib.sha1(blob).hexdigest() == "1c648fa1a87621557e99ff0f82d1f98f3daa9da1"

    def test_no_candidate_names_the_task_count(self, monkeypatch):
        monkeypatch.setattr(knapsack, "solve_extended", lambda ext, tau, carry=None: None)
        with pytest.raises(
            RoundingError, match=r"knapsack selection: none of the \d+ extended instances"
        ):
            solve_knapmeddis(knap_instance(seed=1, nf=2, nc=3), tau=1.9, rho=0.5, epsilon=0.5)

    def test_alpha_formula_at_19(self):
        assert knapsack_alpha(1.9) == pytest.approx(3 * 1.9 * (3 * 1.9 - 1) / 0.9 + 2)
        assert knapsack_alpha(1.9) == pytest.approx(31.767, abs=1e-3)

    def test_est_coefficient_formula(self):
        sigma = 1.9 * (3 * 1.9 - 1) / 0.9
        expected = max(5.0, (3 * 1.9 - 1) / math.log(1.9)) + 0.5 * (7 * sigma + 14 / 3)
        assert knapsack_est_coefficient(1.9, 0.5) == pytest.approx(expected)

    def test_structural_invariants_and_oracle_bound(self):
        for seed in (0, 7):
            inst = knap_instance(seed=seed, nf=3, nc=4, scale=0.4)
            rep = solve_knapmeddis(inst, tau=1.9, rho=0.5, delta=2 / 3, epsilon=0.25)
            assert all(c.holds for c in rep.certificates)
            w = inst.constraint.weights
            assert sum(w[f] for f in rep.solution) <= inst.constraint.budget + 1e-7
            opt = brute_opt(inst)
            bound = rep.extras["estCoefficient"] * 1.25 * opt.value
            assert discounted_cost(inst, rep.solution, rep.alpha) <= bound + 1e-6

    def test_parallel_jobs_match_sequential(self):
        inst = knap_instance(seed=11, nf=3, nc=3, scale=0.3)
        seq = solve_knapmeddis(inst, tau=1.9, rho=0.5, epsilon=0.5)
        par = solve_knapmeddis(inst, tau=1.9, rho=0.5, epsilon=0.5, jobs=2)
        # the pool pickles each ExtendedInstance; workers fill its cached C' and F0 facts
        assert seq.to_json() == par.to_json()

    @pytest.mark.parametrize("keep, jobs", [(None, 10**6), (1, 4)], ids=["all-chains", "one-chain"])
    def test_workers_never_outnumber_chains(self, monkeypatch, keep, jobs):
        # the fake pool records its size and starts no process
        made, counted = [], []

        class FakePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        task_table = knapsack._task_table

        def few_chains(*args):
            chains = task_table(*args)[:keep]
            counted.append(len(chains))
            return chains

        monkeypatch.setattr(knapsack, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(knapsack, "_task_table", few_chains)
        inst = knap_instance(seed=11, nf=3, nc=3, scale=0.3)
        solve_knapmeddis(inst, tau=1.9, rho=0.5, epsilon=0.5, jobs=jobs)
        assert (counted == [1]) if keep else (counted[0] > 1)
        assert made == ([] if keep else counted)  # one chain runs in this process

    @pytest.mark.parametrize(
        "seed, evaluated, best_f0, ests",
        [
            (1, 555, ["f01"], [
                0.0, 18.328551679648502, 20.75516926080043, 20.75516926080043,
                16.604135408640342, 18.219263941590803,
            ]),
            (8, 663, ["f00"], [
                0.0, 10.334247304378843, 9.321525867803617, 11.205571254815094,
                11.205571254815094, 10.106255735207217, 15.428009257101918,
                15.428009257101918, 15.791024586261274, 8.964457003852075,
                14.006964068518867, 14.006964068518867, 17.508705085648582,
                9.873925924545228, 15.428009257101918, 19.2850115713774,
                9.484273041914026, 14.819176627990666, 14.819176627990666,
                18.523970784988332,
            ]),
        ],
    )
    def test_task_table_is_pinned(self, seed, evaluated, best_f0, ests):
        # one task per (F0, C', EST) class, all saturated estimates sharing a
        # task at the lowest of them; the task order decides ties among
        # equal-cost candidates, so counts, the winner and the order are fixed
        inst = knap_instance(seed=seed, nf=2, nc=3, scale=0.4)
        rep = solve_knapmeddis(inst, tau=1.9, rho=0.5, delta=2 / 3, epsilon=0.25)
        assert rep.extras["evaluated"] == evaluated
        assert rep.extras["feasible"] == len(ests)
        assert rep.extras["bestEst"] == 0.0
        assert rep.extras["bestF0"] == best_f0
        assert rep.lp_optimum == 0.0
        assert [c["est"] for c in rep.extras["candidates"]] == ests

    @pytest.mark.parametrize(
        "caps, message",
        [
            ((1,), r"caps must be a pair \(cap1, cap2\), got \(1,\)"),
            ((1, 2, 3), r"caps must be a pair \(cap1, cap2\), got \(1, 2, 3\)"),
            (1, r"caps must be a pair \(cap1, cap2\), got 1"),
            ((None, 0.5), r"caps must be ints or None: cap2 = 0\.5"),
            ((1.5, None), r"caps must be ints or None: cap1 = 1\.5"),
            ((True, None), r"caps must be ints or None: cap1 = True"),
        ],
        ids=["one", "three", "not-a-pair", "float-cap2", "float-cap1", "bool"],
    )
    def test_malformed_caps_are_refused(self, caps, message):
        inst = knap_instance(seed=12, nf=3, nc=3)
        with pytest.raises(I.InstanceError, match=message):
            solve_knapmeddis(inst, tau=1.9, rho=0.5, epsilon=0.5, caps=caps)

    def test_caps_below_theoretical_flagged(self):
        inst = knap_instance(seed=12, nf=3, nc=3)
        rep = solve_knapmeddis(inst, tau=1.9, rho=0.5, epsilon=0.5, caps=(1, 1))
        assert rep.extras["capsBelowTheoretical"]
        rep2 = solve_knapmeddis(inst, tau=1.9, rho=0.5, epsilon=0.5)
        assert not rep2.extras["capsBelowTheoretical"]
