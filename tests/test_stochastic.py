import contextlib
import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import discmed
from discmed import fractional, iterround, stochastic
from discmed import instance as I
from discmed.iterround import bicriteria_factors, solve_kmeddis
from discmed.lpcore import LinearProgram
from discmed.knapsack import OptionError, knapsack_alpha, knapsack_est_coefficient
from discmed.oracle import brute_opt, brute_stochastic_opt
from discmed.stochastic import (
    StochasticInstance,
    StochasticPoint,
    eval_expected_max,
    generate_stochastic,
    realization_probs,
    solve_stochastic_center,
    stochastic_from_json,
    stochastic_to_json,
    validate_stochastic,
)


def simple_base(dists, k=1):
    ids = ("f00",) + tuple(f"c{i:02d}" for i in range(len(dists)))
    coords = {"f00": (0.0, 0.0)}
    for i, d in enumerate(dists):
        coords[f"c{i:02d}"] = (float(d), 0.0)
    metric = I.MetricSpace.from_coords(coords)
    return I.Instance(
        ("f00",), ids[1:], metric,
        {j: 0.0 for j in ids[1:]}, {j: 1.0 for j in ids[1:]}, I.Cardinality(k),
    )


class TestRealizationProbs:
    def test_certain_point(self):
        st = StochasticInstance(simple_base([1.0]), (StochasticPoint("v0", {"c00": 1.0}),))
        assert realization_probs(st)["c00"] == pytest.approx(1.0)

    def test_two_half_points(self):
        st = StochasticInstance(
            simple_base([1.0]),
            (StochasticPoint("v0", {"c00": 0.5}), StochasticPoint("v1", {"c00": 0.5})),
        )
        assert realization_probs(st)["c00"] == pytest.approx(0.75)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            st = generate_stochastic(3, int(rng.integers(2, 6)), seed=trial)
            probs = realization_probs(st)
            outcomes = []
            for pt in st.points:
                opts = [(loc, q) for loc, q in sorted(pt.dist.items()) if q > 0]
                if pt.none_probability() > 0:
                    opts.append((None, pt.none_probability()))
                outcomes.append(opts)
            hit = {j: 0.0 for j in st.base.clients}
            for combo in itertools.product(*outcomes):
                p = math.prod(q for _, q in combo)
                for j in {loc for loc, _ in combo if loc is not None}:
                    hit[j] += p
            for j in st.base.clients:
                assert probs[j] == pytest.approx(hit[j], abs=1e-12)


class TestEvalExpectedMax:
    def test_deterministic_single_point(self):
        st = StochasticInstance(simple_base([4.0]), (StochasticPoint("v0", {"c00": 1.0}),))
        assert eval_expected_max(st, ["f00"]) == pytest.approx(4.0)

    def test_nothing_realizes(self):
        st = StochasticInstance(simple_base([4.0]), (StochasticPoint("v0", {"c00": 0.0}),))
        assert eval_expected_max(st, ["f00"]) == 0.0

    def test_unknown_facility_is_an_input_error(self):
        st = generate_stochastic(3, 3, seed=1)
        with pytest.raises(I.InstanceError, match=r"unknown facilities \['nope'\]"):
            eval_expected_max(st, ["nope", st.base.facilities[0]])

    def test_negative_seed_is_an_input_error(self):
        with pytest.raises(I.InstanceError, match=r"seed must be a non-negative integer, got -1"):
            generate_stochastic(3, 3, seed=-1)


class TestValidateAndJson:
    def test_rejects_bad_probability(self):
        st = StochasticInstance(simple_base([1.0]), (StochasticPoint("v0", {"c00": 1.4}),))
        assert any("outside" in v for v in validate_stochastic(st))

    def test_rejects_overfull_distribution(self):
        st = StochasticInstance(
            simple_base([1.0, 2.0]),
            (StochasticPoint("v0", {"c00": 0.7, "c01": 0.6}),),
        )
        assert any("> 1" in v for v in validate_stochastic(st))

    def test_round_trip(self):
        st = generate_stochastic(3, 3, seed=5)
        back = stochastic_from_json(stochastic_to_json(st))
        assert back.points == st.points
        assert back.base.clients == st.base.clients

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((3, 2.5, "uniform", 0, 0.4, 4), {}, "n_points must be an integer, got 2.5"),
            ((3, 2.5), {}, "n_points must be an integer, got 2.5"),
            ((3, 0), {}, "n_points must be >= 1, got 0"),
            ((0, 3), {}, "n_facilities must be >= 1, got 0"),
            ((True, 3), {}, "n_facilities must be an integer, got True"),
            ((3, 3), {"n_clients": 1.5}, "n_clients must be an integer, got 1.5"),
            ((3, 3), {"n_clients": 1}, "n_clients must be >= 2, got 1"),
            ((3, 3), {"seed": 1.5}, "seed must be an integer, got 1.5"),
            ((3, 3), {"seed": -1}, "seed must be a non-negative integer, got -1"),
            ((3, 3), {"prob_floor": "0.4"}, "prob_floor must be a number, got '0.4'"),
            ((3, 3), {"prob_floor": 0.7}, r"prob_floor must lie in \(0, 0.5\], got 0.7"),
            ((3, 3), {"prob_floor": 0.0}, r"prob_floor must lie in \(0, 0.5\], got 0.0"),
        ],
        ids=[
            "float-points-with-clients", "float-points", "no-points", "no-facilities",
            "bool-facilities", "float-clients", "one-client", "float-seed", "negative-seed",
            "text-floor", "floor-above-half", "zero-floor",
        ],
    )
    def test_generate_refuses_bad_arguments(self, args, kwargs, message):
        with pytest.raises(I.InstanceError, match=f"^generate_stochastic: {message}$"):
            generate_stochastic(*args, **kwargs)

    def test_generate_at_the_highest_floor(self):
        st = generate_stochastic(3, 6, prob_floor=0.5, seed=3)
        assert all(q >= 0.5 for pt in st.points for q in pt.dist.values())


class TestSweep:
    def test_matroid_constant_at_1985(self):
        a, b = bicriteria_factors(1.985, 1)
        assert a + b == pytest.approx(17.213, abs=5e-4)
        assert 3 * (a + b) < 51.639

    def test_knapsack_constant_near_19(self):
        ideal = 3 * (knapsack_alpha(1.9) + knapsack_est_coefficient(1.9, 1e-12))
        assert ideal == pytest.approx(117.268, abs=1e-3)
        # the constant bottoms out just below 117.264 slightly under 1.9
        best = min(
            3 * (knapsack_alpha(t) + knapsack_est_coefficient(t, 1e-12))
            for t in np.linspace(1.8, 2.0, 2001)
        )
        assert best < 117.264

    def test_display_chain_upper_bound(self):
        # E[max] <= alpha*T + sum p_j (c_jS - alpha*T)^+ for arbitrary S, T
        rng = np.random.default_rng(11)
        for seed in range(8):
            st = generate_stochastic(4, 4, seed=seed)
            probs = realization_probs(st)
            base = st.base
            size = int(rng.integers(1, len(base.facilities) + 1))
            S = sorted(rng.choice(base.facilities, size=size, replace=False))
            alpha_t = float(rng.uniform(0.0, base.metric.dist.max()))
            rows = [base.fac_pos[f] for f in S]
            tail = sum(
                probs[j]
                * max(float(base.dist_fc[rows, base.cli_pos[j]].min()) - alpha_t, 0.0)
                for j in base.clients
            )
            assert eval_expected_max(st, S) <= alpha_t + tail + 1e-9

    def test_deterministic_points_reduce_to_center(self):
        st = generate_stochastic(4, 4, kind="uniform", seed=9)
        points = tuple(
            StochasticPoint(pt.pid, {max(pt.dist, key=pt.dist.get): 1.0})
            for pt in st.points
        )
        st = StochasticInstance(st.base, points)
        realized = {max(pt.dist, key=pt.dist.get) for pt in points}
        opt = brute_stochastic_opt(st)
        # with certain realizations the objective is a plain max distance
        best = min(
            max(st.base.metric.d(j, f) for j in realized)
            for f in st.base.facilities
        )
        rank = st.base.constraint.spec.rank_bound
        if rank == 1:
            assert opt.value == pytest.approx(best)
        S, rep = solve_stochastic_center(st, tau=1.985, epsilon=0.2)
        val = eval_expected_max(st, S)
        assert val <= rep.guarantee_constant * opt.value + 1e-9

    def test_matroid_guarantee_on_generated_instances(self):
        for seed in range(8):
            st = generate_stochastic(4, 4, kind="uniform", seed=seed)
            S, rep = solve_stochastic_center(st, tau=1.985, epsilon=0.2)
            opt = brute_stochastic_opt(st)
            val = eval_expected_max(st, S)
            assert val <= rep.guarantee_constant * opt.value + 1e-9
            assert val <= (rep.alpha + rep.beta) * rep.t_star + 1e-9
            assert rep.expected_max == pytest.approx(val)
            # geometric sweep: at most ceil(log_{1/(1-eps)} diameter) + 1 values
            diam = float(st.base.metric.dist.max())
            cap = math.ceil(math.log(max(diam, 1.0)) / -math.log(0.8)) + 2
            assert len(rep.sweep) <= cap

    def test_partition_matroid_case(self):
        for seed in range(4):
            st = generate_stochastic(4, 3, kind="partition", seed=seed)
            S, rep = solve_stochastic_center(st, tau=1.985, epsilon=0.2)
            opt = brute_stochastic_opt(st)
            assert eval_expected_max(st, S) <= rep.guarantee_constant * opt.value + 1e-9
            assert st.base.constraint.spec.is_independent(S)

    @pytest.mark.parametrize("epsilon", [1e-17, 1e-12, 1e-5])
    def test_tiny_epsilon_is_refused_before_the_sweep(self, monkeypatch, epsilon):
        # 1 - 1e-17 rounds to 1, so T never shrinks, 1e-12 asks for about
        # 2e12 steps and 1e-5 for about 2.5e5, each a full solve; the sweep's
        # length is counted before any step is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("a sweep step ran")

        monkeypatch.setattr(stochastic, "solve", no_solve)
        st = generate_stochastic(4, 3, kind="uniform", seed=2)
        with pytest.raises(I.InstanceError, match=rf"epsilon={epsilon!r} makes the sweep"):
            solve_stochastic_center(st, tau=1.985, epsilon=epsilon)

    def test_zero_distance_cover_returns_zero(self):
        # a facility on top of every client: T = 0 fallback must win exactly
        metric = I.MetricSpace(
            ("f00", "c00", "c01"),
            np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        )
        base = I.Instance(
            ("f00",), ("c00", "c01"), metric,
            {"c00": 0.0, "c01": 0.0}, {"c00": 1.0, "c01": 1.0}, I.Cardinality(1),
        )
        st = StochasticInstance(
            base, (StochasticPoint("v0", {"c00": 0.6, "c01": 0.4}),)
        )
        S, rep = solve_stochastic_center(st, tau=1.91, epsilon=0.3)
        assert rep.t_star == 0.0
        assert not rep.flagged
        assert eval_expected_max(st, S) == 0.0


def exact_bernoulli_max_mean(s: np.ndarray, p: np.ndarray) -> float:
    order = np.argsort(-s)
    s, p = s[order], p[order]
    total, miss = 0.0, 1.0
    for sk, pk in zip(s, p):
        total += sk * pk * miss
        miss *= 1.0 - pk
    return total


class TestWarmSweep:
    # a warm step is one whose natural LP starts at the greedy vertex; cold is a start-free solve
    @pytest.mark.parametrize(
        "kind, seed", [("cardinality", 1), ("cardinality", 3), ("uniform", 2), ("uniform", 4)]
    )
    def test_warm_steps_skip_phase_1_and_match_cold_solves(self, monkeypatch, kind, seed):
        steps, natural = [], []
        real_solve, real_lp = stochastic.solve, fractional.solve

        def solve_step(inst, tau=None, **opts):
            rep = real_solve(inst, tau, **opts)
            steps.append((inst, opts, rep))
            return rep

        def solve_lp(lp, start=None):
            res = real_lp(lp, start)
            natural.append((lp, res))
            return res

        monkeypatch.setattr(stochastic, "solve", solve_step)
        monkeypatch.setattr(fractional, "solve", solve_lp)
        solve_stochastic_center(generate_stochastic(4, 5, kind=kind, seed=seed), None, 0.2)
        monkeypatch.undo()

        assert len(natural) == len(steps) >= 3
        for (inst, opts, rep), (lp, res) in zip(steps, natural):
            assert opts == {}  # no handle or option rides along the sweep
            assert res.pivots[0] == 0  # the first step too: the greedy start is feasible
            assert all(c.holds for c in rep.certificates)
            cold = real_lp(lp)
            assert res.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
            scale = inst.scale / rep.extras["scale"]
            assert rep.lp_optimum == pytest.approx(cold.objective_value * scale, rel=1e-9)

    def test_warm_option_is_refused(self):
        with pytest.raises(OptionError, match="warm"):
            discmed.solve(I.generate(3, 4, kind="cardinality", seed=1), warm={})


# four seeded sweeps and their sha1 of json.dumps(report.to_json(), sort_keys=True),
# recorded before a sweep shared its auxiliary LPs
PINNED_SWEEPS = [
    ("cardinality", 4, 5, 1, None, "11b391e6d4595b6dd985f7586a9ad53794ceeb77"),
    ("uniform", 4, 5, 2, None, "48eb4351ec0f32660d7d6d4a07b1a69d518f5881"),
    ("partition", 4, 3, 3, None, "06acb66c5202a86e937581412d10f173cc56fb29"),
    ("knapsack", 2, 2, 1, {"jobs": 1}, "775a4dde9ebbcf2c9420b82a0a7c9f0db0d082e1"),
    ("knapsack", 2, 2, 1, {"jobs": 2}, "775a4dde9ebbcf2c9420b82a0a7c9f0db0d082e1"),
]


def sweep_digest(kind, n_fac, n_pts, seed, knap_options) -> str:
    st = generate_stochastic(n_fac, n_pts, kind=kind, seed=seed)
    _, rep = solve_stochastic_center(st, None, 0.2, knap_options)
    return hashlib.sha1(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()


def dense_key(lp: LinearProgram) -> tuple:
    """An LP's content, independent of the order its entries were added in."""
    return (
        lp.objective.tobytes(), lp.lo.tobytes(), lp.hi.tobytes(), tuple(lp.row_rel),
        np.array(lp.row_rhs).tobytes(), lp.matrix().tobytes(),
    )


def aux_lps_solved(monkeypatch, run) -> tuple:
    """``run()``'s result, and the auxiliary LPs it hands to ``iterround.solve``."""
    solved = []
    real = iterround.solve

    def recording_solve(lp, start=None):
        solved.append(lp)
        return real(lp, start)

    with monkeypatch.context() as mp:
        mp.setattr(iterround, "solve", recording_solve)
        return run(), solved


class TestSweepSharesAuxLPs:
    # a sweep solves its steps inside iterround.aux_lp_memo(); contextlib.nullcontext
    # in its place solves every auxiliary LP
    @pytest.mark.parametrize(
        "kind, n_fac, n_pts, seed, knap_options, digest", PINNED_SWEEPS,
        ids=["cardinality", "uniform", "partition", "knapsack-jobs-1", "knapsack-jobs-2"],
    )
    def test_report_is_pinned_with_and_without_the_memo(
        self, monkeypatch, kind, n_fac, n_pts, seed, knap_options, digest
    ):
        assert sweep_digest(kind, n_fac, n_pts, seed, knap_options) == digest
        monkeypatch.setattr(stochastic, "aux_lp_memo", contextlib.nullcontext)
        assert sweep_digest(kind, n_fac, n_pts, seed, knap_options) == digest

    @pytest.mark.parametrize("kind, seed", [("cardinality", 1), ("uniform", 2), ("partition", 3)])
    def test_each_distinct_aux_lp_is_solved_once(self, monkeypatch, kind, seed):
        st = generate_stochastic(4, 5, kind=kind, seed=seed)
        _, shared = aux_lps_solved(monkeypatch, lambda: solve_stochastic_center(st, None, 0.2))
        monkeypatch.setattr(stochastic, "aux_lp_memo", contextlib.nullcontext)
        _, every = aux_lps_solved(monkeypatch, lambda: solve_stochastic_center(st, None, 0.2))
        distinct = set(map(dense_key, every))
        assert len(shared) == len(set(map(dense_key, shared))) == len(distinct) < len(every)
        assert set(map(dense_key, shared)) == distinct

    def test_a_repeat_reuses_a_read_only_result(self, monkeypatch):
        built = []
        build = iterround._aux_lp
        monkeypatch.setattr(iterround, "_aux_lp", lambda *args: built.append(args) or build(*args))
        balls = (((0, 1), "<="),)  # the one row y0 + y1 <= 1

        def solved(objective):
            return iterround._solve_aux(np.array(objective), balls, [], repr([]))

        fresh = solved([0.0, -1.0])
        fresh.values[0] = 0.5  # outside a memo the values are the caller's
        with iterround.aux_lp_memo():
            first = solved([0.0, -1.0])
            again = solved([0.0, -1.0])
            signed = solved([-0.0, -1.0])  # another key: floats by bytes
        assert again is first and signed is not first
        assert len(built) == 3  # a hit builds no LP
        with pytest.raises(ValueError, match="read-only"):
            again.values[0] = 1.0

    def test_the_family_rows_are_part_of_the_key(self):
        objective = np.array([-1.0, -2.0])
        with iterround.aux_lp_memo():
            for cap, opened in ((1.0, [0.0, 1.0]), (2.0, [1.0, 1.0])):
                rows = [({0: 1.0, 1: 1.0}, "<=", cap)]
                res = iterround._solve_aux(objective, (), rows, repr(rows))
                assert res.values.tolist() == opened

    def test_a_failed_sweep_leaves_no_memo(self, monkeypatch):
        real_solve, steps = stochastic.solve, []

        def failing_step(inst, tau=None, **opts):
            steps.append(inst)
            if len(steps) == 3:
                raise RuntimeError("step 3 fails")
            return real_solve(inst, tau, **opts)

        monkeypatch.setattr(stochastic, "solve", failing_step)
        with pytest.raises(RuntimeError, match="step 3 fails"):
            solve_stochastic_center(generate_stochastic(4, 5, seed=1), None, 0.2)
        monkeypatch.undo()
        assert iterround._aux_solved.get() is None

        inst = I.generate(4, 6, kind="cardinality", seed=1)
        rep, alone = aux_lps_solved(monkeypatch, lambda: solve_kmeddis(inst))
        assert len(alone) == len(rep.iterations)  # one LP per iteration
        with iterround.aux_lp_memo():
            _, shared = aux_lps_solved(monkeypatch, lambda: solve_kmeddis(inst))
        assert len(shared) < len(alone)  # so the count above would show a leaked memo


# (kind, facilities, points) of small sweep bases; a knapsack step enumerates
# tasks, so a knapsack base keeps 2 facilities and 2 points
SWEEP_BASES = hst.tuples(
    hst.sampled_from(["cardinality", "uniform", "partition", "knapsack"]),
    hst.integers(min_value=2, max_value=4),
    hst.integers(min_value=2, max_value=5),
).map(lambda b: (b[0], 2, 2) if b[0] == "knapsack" else b)


class TestSweepSharesTFreeWork:
    # a step instance shares the metric verdict, the discount-free caches and
    # the natural-LP rows with the others, and its rounding the memo; a fresh
    # instance of plain dataclasses.replace, solved outside any memo, has none
    @given(
        base=SWEEP_BASES,
        seed=hst.integers(min_value=0, max_value=2**16),
        epsilon=hst.sampled_from([0.2, 0.5]),
    )
    @settings(max_examples=24, deadline=None, derandomize=True)
    def test_each_step_matches_a_fresh_solve(self, base, seed, epsilon):
        kind, n_fac, n_pts = base
        real_solve, steps = stochastic.solve, []

        def solve_step(inst, tau=None, **opts):
            rep = real_solve(inst, tau, **opts)
            steps.append((inst, tau, opts, rep))
            return rep

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stochastic, "solve", solve_step)
            st = generate_stochastic(n_fac, n_pts, kind=kind, seed=seed)
            _, report = solve_stochastic_center(st, None, epsilon)
        assert len(steps) == len(report.sweep)
        for inst, tau, opts, rep in steps:
            fresh = dataclasses.replace(
                inst,
                metric=I.MetricSpace(inst.metric.points, inst.metric.dist),
                discounts=dict(inst.discounts),
                client_weights=dict(inst.client_weights),
            )
            again = real_solve(fresh, tau, **opts)
            assert json.dumps(again.to_json(), sort_keys=True) == json.dumps(
                rep.to_json(), sort_keys=True
            )


class TestBernoulliMaxLemma:
    def test_numerical_property_10k_ensembles(self):
        # whenever E[max s_i X_i] < T/3 with all s_i >= T, the weighted
        # probability mass sum s_i p_i stays below T
        rng = np.random.default_rng(2024)
        triggered = 0
        for _ in range(10_000):
            n = int(rng.integers(1, 7))
            T = float(rng.uniform(0.5, 2.0))
            s = T * (1.0 + rng.exponential(0.8, size=n))
            p = rng.uniform(0.0, 0.4, size=n) ** 2
            mean_max = exact_bernoulli_max_mean(s, p)
            if mean_max < T / 3.0:
                triggered += 1
                assert float(np.dot(s, p)) < T
        assert triggered >= 1000  # the premise fires often enough to matter


class TestLemmaOptZero:
    def test_opt0_dominates_opt_star(self):
        for seed in range(10):
            st = generate_stochastic(4, 4, kind="uniform", seed=seed)
            probs = realization_probs(st)
            weighted = I.Instance(
                st.base.facilities, st.base.clients, st.base.metric,
                {j: 0.0 for j in st.base.clients}, dict(probs), st.base.constraint,
            )
            opt0 = brute_opt(weighted).value
            opt_star = brute_stochastic_opt(st).value
            assert opt0 >= opt_star - 1e-9
