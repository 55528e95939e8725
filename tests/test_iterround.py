import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discmed
from discmed import instance as I
from discmed.discretize import DiscretizedMetric
from discmed.fractional import BallSystem, duplicate_facilities, make_distance_optimal, solve_natural
from discmed.instance import generate
from discmed import iterround
from discmed.iterround import (
    IntegralityError,
    RoundingError,
    RoundState,
    bicriteria_factors,
    iter_round,
    nearest_open_distance_bound,
    snap_integral,
    solve_kmeddis,
    solve_matmeddis,
    update_cstar,
)
from discmed.oracle import check_bicriteria


def bare_state(h=2, levels=(), balls=(), tau=2.0):
    dm = DiscretizedMetric(tau, 0.0)
    n_copies = max((max(b) for b in balls if b), default=0) + 1
    bs = BallSystem(
        orig=[f"f{c:02d}" for c in range(n_copies)],
        y=np.zeros(n_copies),
        dist=np.zeros((n_copies, 0)),
        F=[],
    )
    state = RoundState(
        bs=bs, dm=dm, inst=None, h=h,
        gain=np.zeros((n_copies, 0)), levels_mat=np.zeros((n_copies, 0), dtype=np.int64),
        F={}, B={}, level={}, C0=set(), C1=set(), Cstar=set(),
    )
    for k, (lev, ball) in enumerate(zip(levels, balls)):
        key = f"j{k}"
        state.F[key] = set(ball)
        state.B[key] = set()
        state.level[key] = lev
    return state


class TestUpdateCstar:
    def test_empty_core_always_admits(self):
        st = bare_state(levels=[3], balls=[{0, 1}])
        assert update_cstar(st, "j0")
        assert st.Cstar == {"j0"}

    def test_equal_level_overlap_blocks(self):
        st = bare_state(levels=[3, 3], balls=[{0, 1}, {1, 2}])
        update_cstar(st, "j0")
        assert not update_cstar(st, "j1")
        assert st.Cstar == {"j0"}

    def test_higher_level_member_evicted(self):
        st = bare_state(h=2, levels=[5, 3], balls=[{0, 1}, {1, 2}])
        update_cstar(st, "j0")
        assert update_cstar(st, "j1")
        assert st.Cstar == {"j1"}

    def test_gap_below_h_coexists(self):
        st = bare_state(h=2, levels=[4, 3], balls=[{0, 1}, {1, 2}])
        update_cstar(st, "j0")
        assert update_cstar(st, "j1")
        assert st.Cstar == {"j0", "j1"}
        assert st.cstar_violations == 0

    def test_disjoint_balls_ignore_levels(self):
        st = bare_state(h=2, levels=[9, 0], balls=[{0}, {1}])
        update_cstar(st, "j0")
        assert update_cstar(st, "j1")
        assert st.Cstar == {"j0", "j1"}


class TestIterRound:
    def test_integral_warm_start_is_fixed_point(self):
        # two clients each sitting on their own facility, k = 2
        metric = I.MetricSpace(
            ("f00", "f01", "c00", "c01"),
            np.array(
                [
                    [0.0, 3.0, 0.0, 3.0],
                    [3.0, 0.0, 3.0, 0.0],
                    [0.0, 3.0, 0.0, 3.0],
                    [3.0, 0.0, 3.0, 0.0],
                ]
            ),
        )
        inst = I.Instance(
            ("f00", "f01"), ("c00", "c01"), metric,
            {"c00": 0.0, "c01": 0.0}, {"c00": 1.0, "c01": 1.0}, I.Cardinality(2),
        )
        sol = make_distance_optimal(solve_natural(inst), inst)
        bs = duplicate_facilities(sol, inst)
        dm = DiscretizedMetric(1.91, 0.0)
        y, state = iter_round(bs, inst, dm, h=2)
        y = snap_integral(y, state)
        assert bs.open_set(y) == ("f00", "f01")
        actions = [t["action"] for t in state.trace]
        assert actions.count("move") == 2 and actions[-1] == "stop"
        assert not any(a == "shrink" for a in actions)

    def test_forced_ball_shrinking(self):
        # a client served half from distance 1 and half from distance 3: the
        # auxiliary LP saturates the inner ball, so the level must step down
        # twice before the loop stops, and the near facility gets opened
        metric = I.MetricSpace(
            ("f00", "f01", "c00"),
            np.array([[0.0, 4.0, 1.0], [4.0, 0.0, 3.0], [1.0, 3.0, 0.0]]),
        )
        inst = I.Instance(
            ("f00", "f01"), ("c00",), metric, {"c00": 0.0}, {"c00": 1.0},
            I.Cardinality(2),
        )
        bs = BallSystem(
            orig=["f00", "f01"],
            y=np.array([0.5, 0.5]),
            dist=np.array([[1.0], [3.0]]),
            F=[{0, 1}],
        )
        dm = DiscretizedMetric(2.0, 0.0)  # levels 1, 2, 4: f00 at 0, f01 at 2
        y, state = iter_round(bs, inst, dm, h=2)
        actions = [t["action"] for t in state.trace]
        assert actions == ["move", "shrink", "shrink", "stop"]
        assert state.level["c00"] == 0
        assert state.F["c00"] == {0}
        y = snap_integral(y, state)
        assert y[0] == 1.0
        assert state.cstar_violations == 0

    def test_objective_sequence_nonincreasing_on_random_instances(self):
        for seed in range(50):
            rep = solve_kmeddis(generate(2 + seed % 5, 3 + seed % 7, seed=seed), tau=1.91)
            diffs = np.diff([t["objective"] for t in rep.iterations])
            assert np.all(diffs <= 1e-7)

    def test_h2_output_integral_on_100_instances(self):
        for seed in range(100):
            inst = generate(2 + seed % 6, 3 + seed % 8, kind="cardinality", seed=seed)
            rep = solve_kmeddis(inst, tau=1.91)  # snap_integral raises otherwise
            assert len(rep.solution) <= inst.constraint.k
            assert all(c.holds for c in rep.certificates)


    def test_loop_error_names_iteration_and_client(self, monkeypatch):
        inst = generate(3, 4, seed=2)
        bs = duplicate_facilities(make_distance_optimal(solve_natural(inst), inst), inst)
        calls = iter(range(1000))  # every before/after pair differs by one
        monkeypatch.setattr(iterround, "_contribution", lambda state, key, y: next(calls))
        with pytest.raises(
            RoundingError,
            match=r"rounding loop, iteration \d+, last client c0\d: client contribution drifted",
        ):
            iter_round(bs, inst, DiscretizedMetric(1.91, 0.0), h=2)

    def test_integral_snap_names_the_facility(self):
        st = bare_state(levels=[0], balls=[{0, 1}])
        with pytest.raises(
            IntegralityError, match=r"integral snap: copies \[1\] of facilities \['f01'\]"
        ):
            snap_integral(np.array([1.0, 0.5]), st)


class TestDistanceBound:
    def test_lemma_coefficient_arithmetic(self):
        st = bare_state(h=2, levels=[], balls=[], tau=1.91)
        st.level["j"] = 3
        st.dm = DiscretizedMetric(1.91, math.log(10.0) / math.log(1.91) % 1.0)
        # D_3 with this offset is exactly 10
        assert st.dm.level_value(3) == pytest.approx(10.0)
        bound = nearest_open_distance_bound(st, "j")
        assert bound == pytest.approx(10 * (3 * 1.91**2 - 1) / (1.91**2 - 1), rel=1e-9)
        assert bound == pytest.approx(37.552, abs=5e-3)

    def test_level_minus_one_forces_colocation(self):
        st = bare_state(h=1, levels=[], balls=[], tau=2.0)
        st.level["j"] = -1
        assert nearest_open_distance_bound(st, "j") == 0.0

    @pytest.mark.parametrize("kind,tau", [("cardinality", 1.91), ("uniform", 2.36)])
    def test_actual_distance_within_bound_100_seeds(self, kind, tau):
        # h = 2 via the cardinality pipeline, h = 1 via the matroid pipeline
        for seed in range(100):
            inst = generate(2 + seed % 5, 3 + seed % 6, kind=kind, seed=seed)
            rep = (
                solve_kmeddis(inst, tau=tau)
                if kind == "cardinality"
                else solve_matmeddis(inst, tau=tau)
            )
            for cert in rep.certificates:
                if cert.name.startswith("near_facility"):
                    assert cert.holds, (seed, cert)


class TestSolveKMedDis:
    def test_factors_tau_191(self):
        rep = solve_kmeddis(generate(4, 5, seed=0), tau=1.91)
        assert rep.alpha < 7.173 and rep.beta < 5.281

    def test_factors_tau_1592(self):
        rep = solve_kmeddis(generate(4, 5, seed=0), tau=1.592)
        assert rep.alpha < 6.851 and rep.beta < 5.479

    def test_huge_discounts_give_zero_cost(self):
        inst = generate(4, 6, kind="cardinality", seed=5)
        big = float(inst.metric.dist.max()) + 1.0
        inst = I.Instance(
            inst.facilities, inst.clients, inst.metric,
            {j: big for j in inst.clients}, inst.client_weights, inst.constraint,
        )
        rep = solve_kmeddis(inst, tau=1.91)
        assert rep.objective == 0.0

    def test_bicriteria_vs_bruteforce(self):
        for seed in range(20):
            inst = generate(5, 6, kind="cardinality", seed=seed)
            rep = solve_kmeddis(inst, tau=1.91)
            cert = check_bicriteria(inst, rep.solution, rep.alpha, rep.beta)
            assert cert["holds"], (seed, cert)

    def test_report_json_shape(self):
        rep = solve_kmeddis(generate(3, 4, seed=2), tau=1.91)
        blob = rep.to_json()
        for key in ("tau", "b", "h", "solution", "objective", "alpha", "beta",
                    "iterations", "certificates"):
            assert key in blob
        assert all(set(c) == {"name", "lhs", "rhs", "holds"} for c in blob["certificates"])


class TestSolveMatMedDis:
    def test_factors_tau_236(self):
        rep = solve_matmeddis(generate(4, 5, kind="partition", seed=0), tau=2.36)
        assert rep.alpha < 10.551 and rep.beta < 7.081

    def test_uniform_matroid_matches_cardinality_feasibility(self):
        for seed in range(10):
            inst = generate(5, 6, kind="uniform", seed=seed)
            rep = solve_matmeddis(inst, tau=2.36)
            assert len(rep.solution) <= inst.constraint.spec.rank_bound

    def test_output_independent_and_bounded_on_partition_instances(self):
        for seed in range(30):
            inst = generate(5, 6, kind="partition", seed=seed)
            rep = solve_matmeddis(inst, tau=2.36)
            assert inst.constraint.spec.is_independent(rep.solution)
            cert = check_bicriteria(inst, rep.solution, rep.alpha, rep.beta)
            assert cert["holds"], (seed, cert)

    def test_independent_output_reads_the_rank(self, monkeypatch):
        inst = generate(5, 6, kind="uniform", seed=0)
        cert = lambda rep: next(c for c in rep.certificates if c.name == "independent_output")
        rep = solve_matmeddis(inst, tau=2.36)
        assert len(rep.solution) > 1
        assert cert(rep) == iterround.Certificate("independent_output", 0.0, 0.0, True)
        # a rank one short on the output set, and on no other set, fails the certificate
        rank, solution = I.UniformMatroid.rank, set(rep.solution)
        short = lambda spec, subset: rank(spec, subset) - (set(subset) == solution)
        monkeypatch.setattr(I.UniformMatroid, "rank", short)
        rep = solve_matmeddis(inst, tau=2.36)
        assert set(rep.solution) == solution
        assert cert(rep) == iterround.Certificate("independent_output", 1.0, 0.0, False)
        assert not all(c.holds for c in rep.certificates)


def test_bicriteria_factor_formulas():
    a2, b2 = bicriteria_factors(1.91, 2)
    assert a2 == pytest.approx(1.91 * (3 * 1.91**2 - 1) / (1.91**2 - 1))
    assert b2 == pytest.approx((3 * 1.91**2 - 1) / ((1.91 + 1) * math.log(1.91)))
    a1, b1 = bicriteria_factors(2.36, 1)
    assert a1 == pytest.approx(2.36 * (3 * 2.36 - 1) / (2.36 - 1))
    assert b1 == pytest.approx((3 * 2.36 - 1) / math.log(2.36))


# One stochastic sweep and one knapsack solve; prints the sha1 of both
# report JSONs and the sha1 of every auxiliary LP's objective and values.
HASH_SEED_PROBE = """
import hashlib, json
import discmed.iterround as ir
from discmed import generate, solve
from discmed.stochastic import generate_stochastic, solve_stochastic_center

aux = hashlib.sha1()
inner = ir.solve
def traced(lp):
    res = inner(lp)
    aux.update(lp.objective.tobytes() + res.values.tobytes())
    return res
ir.solve = traced
_, sweep = solve_stochastic_center(generate_stochastic(4, 5, seed=1), None, 0.3)
knap = solve(generate(2, 2, kind="knapsack", discount_scale=0.4, seed=1),
             tau=1.9, rho=0.5, delta=2 / 3, epsilon=0.25)
reports = json.dumps([sweep.to_json(), knap.to_json()], sort_keys=True)
print(hashlib.sha1(reports.encode()).hexdigest(), aux.hexdigest())
"""


def test_auxiliary_lps_do_not_depend_on_the_string_hash_seed():
    src = str(Path(discmed.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
