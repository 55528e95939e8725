import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmed import instance as I
from discmed import knapsack
from discmed.fractional import (
    FractionalSolution,
    build_natural_lp,
    duplicate_facilities,
    greedy_open_set,
    make_distance_optimal,
    solve_natural,
)


def two_facility_instance(d1=1.0, d2=2.0, k=1):
    metric = I.MetricSpace(
        ("f00", "f01", "c00"),
        np.array([[0.0, d1 + d2, d1], [d1 + d2, 0.0, d2], [d1, d2, 0.0]]),
    )
    return I.Instance(
        ("f00", "f01"), ("c00",), metric, {"c00": 0.0}, {"c00": 1.0}, I.Cardinality(k)
    )


class TestBuildNaturalLP:
    def test_kmedian_shape(self):
        inst = two_facility_instance(k=1)
        nat = build_natural_lp(inst)
        assert nat.lp.n_vars == 4  # 2 openings + 2 assignments
        # one assignment row, one cardinality row, two coupling rows
        assert nat.lp.n_rows == 4
        rels = nat.lp.row_rel
        assert rels.count("=") == 1 and rels.count("<=") == 3

    def test_partition_matroid_compact_rows(self):
        inst = I.generate(3, 2, kind="cardinality", seed=0)
        spec = I.PartitionMatroid((("f00", "f01"), ("f02",)), (1, 1))
        inst = I.Instance(
            inst.facilities, inst.clients, inst.metric,
            inst.discounts, inst.client_weights, I.Matroid(spec),
        )
        nat = build_natural_lp(inst)
        # rows: 2 assignment + 2 part rows + 6 coupling; no per-element rows
        assert nat.lp.n_rows == 2 + 2 + 6

    def test_uniform_matroid_rows_over_copies(self):
        # one row per duplicated facility, then the rank row over every copy
        from discmed.fractional import matroid_polytope_rows

        copies_of = {"f00": [0], "f01": [1, 2], "f02": [3, 4, 5]}
        rows = matroid_polytope_rows(I.UniformMatroid(2), ("f00", "f01", "f02"), copies_of)
        assert rows == [
            ({1: 1.0, 2: 1.0}, "<=", 1.0),
            ({3: 1.0, 4: 1.0, 5: 1.0}, "<=", 1.0),
            ({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0}, "<=", 2.0),
        ]
        assert list(rows[-1][0]) == [0, 1, 2, 3, 4, 5]  # dict equality ignores key order

    def test_lp_value_lower_bounds_integral_optimum(self):
        from discmed.oracle import brute_opt

        for seed in range(10):
            inst = I.generate(5, 6, kind="cardinality", seed=seed)
            frac = solve_natural(inst)
            assert frac.objective_value <= brute_opt(inst).value + 1e-6


class TestGreedyOpenSet:
    def test_adds_the_best_facility_while_the_cost_falls(self):
        # facilities at x = 0, 5, 10, 20 and clients at x = 1, 9 with
        # discount 3: f01 first (cost 2), then f00 over f02 by position on
        # a tie (cost 1), then f02 (cost 0); f03 would not lower it, so it
        # stays closed although k = 4 allows it
        xs = {"f00": 0, "f01": 5, "f02": 10, "f03": 20, "c00": 1, "c01": 9}
        metric = I.MetricSpace.from_coords({p: (float(x), 0.0) for p, x in xs.items()})
        inst = I.Instance(
            ("f00", "f01", "f02", "f03"), ("c00", "c01"), metric,
            {"c00": 3.0, "c01": 3.0}, {"c00": 1.0, "c01": 1.0}, I.Cardinality(4),
        )
        assert greedy_open_set(inst) == [1, 0, 2]

    def test_respects_the_family_rows(self):
        for kind in ("cardinality", "uniform", "partition", "explicit"):
            for seed in range(5):
                inst = I.generate(6, 12, kind=kind, seed=seed)
                chosen = [inst.facilities[fi] for fi in greedy_open_set(inst)]
                assert chosen, (kind, seed)
                if kind == "cardinality":
                    assert len(chosen) <= inst.constraint.k
                else:
                    assert inst.constraint.spec.is_independent(chosen), (kind, seed)


class TestDistanceOptimal:
    def test_water_fill_example(self):
        inst = two_facility_instance(d1=1.0, d2=2.0)
        sol = FractionalSolution(
            x=np.array([[0.4], [0.6]]), y=np.array([0.5, 0.5]), objective_value=0.0
        )
        out = make_distance_optimal(sol, inst)
        assert np.allclose(out.x[:, 0], [0.5, 0.5])
        assert np.allclose(out.y, sol.y)

    def test_idempotent(self):
        for seed in range(10):
            inst = I.generate(5, 6, kind="cardinality", seed=seed)
            one = make_distance_optimal(solve_natural(inst), inst)
            two = make_distance_optimal(one, inst)
            assert np.allclose(one.x, two.x, atol=1e-12)

    def test_closer_facilities_saturated(self):
        for seed in range(10):
            inst = I.generate(5, 6, kind="cardinality", seed=seed)
            out = make_distance_optimal(solve_natural(inst), inst)
            for cj in range(len(inst.clients)):
                used = np.nonzero(out.x[:, cj] > 1e-9)[0]
                if used.size == 0:
                    continue
                worst = max(inst.dist_fc[fi, cj] for fi in used)
                for fi in range(len(inst.facilities)):
                    if inst.dist_fc[fi, cj] < worst - 1e-12:
                        assert out.x[fi, cj] >= min(out.y[fi], 1.0) - 1e-7

    @given(
        dists=st.lists(st.floats(min_value=1.0, max_value=50.0), min_size=2, max_size=6),
        openings=st.data(),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_water_fill_invariants(self, dists, openings):
        # one client, arbitrary facility distances and openings with mass >= 1
        nf = len(dists)
        y = np.array(
            openings.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0), min_size=nf, max_size=nf
                )
            )
        )
        if y.sum() < 1.0:
            y = np.minimum(1.0, y + (1.0 - y.sum()) / nf + 1e-9)
        ids = tuple(f"f{k:02d}" for k in range(nf)) + ("c00",)
        n = nf + 1
        mat = np.zeros((n, n))
        for a in range(nf):
            mat[a, nf] = mat[nf, a] = dists[a]
            for b in range(nf):
                if a != b:
                    mat[a, b] = min(dists[a] + dists[b], 50.0) + 1.0
        inst = I.Instance(
            ids[:-1], ("c00",), I.MetricSpace(ids, mat),
            {"c00": 0.0}, {"c00": 1.0}, I.Cardinality(nf),
        )
        start = np.zeros((nf, 1))
        rem = 1.0
        for fi in range(nf - 1, -1, -1):  # deliberately fill far-first
            take = min(float(y[fi]), rem)
            start[fi, 0] = take
            rem -= take
        sol = FractionalSolution(x=start, y=y, objective_value=0.0)
        out = make_distance_optimal(sol, inst)
        assert out.x[:, 0].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out.x[:, 0] <= y + 1e-12)
        used = np.nonzero(out.x[:, 0] > 1e-9)[0]
        worst = max(inst.dist_fc[fi, 0] for fi in used)
        for fi in range(nf):
            if inst.dist_fc[fi, 0] < worst - 1e-12:
                assert out.x[fi, 0] == pytest.approx(float(y[fi]), abs=1e-9)
        assert out.objective_value <= (
            float((np.maximum(inst.dist_fc[:, :1] - 0.0, 0.0) * start).sum()) + 1e-9
        )

    def test_objective_never_increases_on_random_feasible(self):
        rng = np.random.default_rng(17)
        checked = 0
        for seed in range(100):
            inst = I.generate(5, 5, kind="cardinality", seed=seed)
            k = inst.constraint.k
            nf, nc = len(inst.facilities), len(inst.clients)
            y = rng.uniform(0.0, 1.0, nf)
            total = y.sum()
            if total > k:
                y *= k / total
            if y.sum() < 1.0:
                y = np.minimum(1.0, y + (1.05 - y.sum()) / nf)
            if y.sum() < 1.0 or y.sum() > k + 1e-9:
                continue
            x = np.zeros((nf, nc))
            for cj in range(nc):
                order = rng.permutation(nf)
                rem = 1.0
                for fi in order:
                    take = min(y[fi], rem)
                    x[fi, cj] = take
                    rem -= take
                assert rem <= 1e-9
            contrib = np.maximum(inst.dist_fc - inst.r[None, :], 0.0) * inst.w[None, :]
            sol = FractionalSolution(x=x, y=y, objective_value=float((contrib * x).sum()))
            out = make_distance_optimal(sol, inst)
            assert out.objective_value <= sol.objective_value + 1e-9
            checked += 1
        assert checked >= 90


class TestDuplicateFacilities:
    def test_integral_input_no_split(self):
        inst = two_facility_instance(k=2)
        sol = FractionalSolution(
            x=np.array([[1.0], [0.0]]), y=np.array([1.0, 1.0]), objective_value=1.0
        )
        bs = duplicate_facilities(sol, inst)
        assert bs.F[0] == {0}
        assert bs.orig[0] == "f00"

    def test_single_forced_split(self):
        inst = two_facility_instance(k=1)
        sol = FractionalSolution(
            x=np.array([[0.3], [0.7]]), y=np.array([0.7, 0.7]), objective_value=0.0
        )
        bs = duplicate_facilities(sol, inst)
        f00_copies = bs.copies_of("f00")
        masses = sorted(float(bs.y[c]) for c in f00_copies)
        assert masses == pytest.approx([0.3, 0.4])
        in_ball = [c for c in f00_copies if c in bs.F[0]]
        assert [float(bs.y[c]) for c in in_ball] == pytest.approx([0.3])

    def test_mass_preserved_and_unit_balls(self):
        for seed in range(25):
            inst = I.generate(6, 7, kind="cardinality", seed=seed)
            sol = make_distance_optimal(solve_natural(inst), inst)
            bs = duplicate_facilities(sol, inst)
            for fi, f in enumerate(inst.facilities):
                copies = bs.copies_of(f)
                assert sum(float(bs.y[c]) for c in copies) == pytest.approx(
                    float(sol.y[fi]), abs=1e-9
                )
            for cj in range(len(inst.clients)):
                assert bs.ball_mass(cj) == pytest.approx(1.0, abs=1e-9)
                # per original facility, ball copies carry exactly x_ij
                per = {}
                for c in bs.F[cj]:
                    per[bs.orig[c]] = per.get(bs.orig[c], 0.0) + float(bs.y[c])
                for f, mass in per.items():
                    assert mass == pytest.approx(float(sol.x[inst.fac_pos[f], cj]), abs=1e-7)


def ball_system_digest(systems) -> str:
    """sha1 of each system's copy ids, masses, distances, sorted balls and star costs."""
    h = hashlib.sha1()
    for bs in systems:
        h.update(repr(bs.orig).encode() + bs.y.tobytes() + bs.dist.tobytes())
        h.update(repr([sorted(ball) for ball in bs.F]).encode())
        if bs.star is not None:
            h.update(bs.star.tobytes())
    return h.hexdigest()


def layered_solution(inst, rng) -> FractionalSolution:
    """A feasible fractional solution whose facilities serve clients at
    several levels: each client takes a random share of each opening in a
    random order, then tops up to one unit; some clients stay unserved."""
    nf, nc = len(inst.facilities), len(inst.clients)
    y = rng.choice([0.25, 0.5, 0.75, 1.0], nf) * rng.uniform(0.8, 1.0, nf)
    y[rng.integers(nf)] = 1.0
    x = np.zeros((nf, nc))
    for cj in range(nc):
        if rng.random() < 0.15:
            continue
        order = rng.permutation(nf)
        rem = 1.0
        for share in (rng.choice([0.25, 0.5, 1.0], nf), np.ones(nf)):
            for fi in order:
                take = min(float(y[fi]) * share[fi] - x[fi, cj], rem)
                if take > 0:
                    x[fi, cj] += take
                    rem -= take
    return FractionalSolution(x=x, y=y, objective_value=float((inst.contrib * x).sum()))


class TestSplitPin:
    # the digests were recorded before both splits listed each facility's
    # copies on their own; copy order, masses, balls and star costs stay
    # byte-identical

    def test_plain_split_is_pinned(self):
        rng = np.random.default_rng(24)
        systems = []
        for seed in range(40):
            inst = I.generate(4, 6, kind="cardinality", seed=seed)
            systems.append(duplicate_facilities(layered_solution(inst, rng), inst))
        split = sum(bs.n_copies > 4 for bs in systems)
        assert split >= 30, split
        assert ball_system_digest(systems) == "8e11de8c26b16518a997bff5f849674d35fd746d"

    def test_star_balanced_split_is_pinned(self, monkeypatch):
        systems = []
        inner = knapsack.duplicate_star_balanced

        def recording(sol, inst, ext):
            systems.append(inner(sol, inst, ext))
            return systems[-1]

        monkeypatch.setattr(knapsack, "duplicate_star_balanced", recording)
        for nf, nc, seed in [(3, 4, 1), (3, 3, 2)]:
            inst = I.generate(nf, nc, kind="knapsack", discount_scale=0.4, seed=seed)
            knapsack.solve_knapmeddis(inst, tau=1.9, rho=0.5, delta=2 / 3, epsilon=0.25)
        # a knapsack task settled by its chain's carried vertex does not split
        split = sum(bs.n_copies > len(set(bs.orig)) for bs in systems)
        assert (len(systems), split) == (56, 33)
        assert ball_system_digest(systems) == "9d039f77471ee4ac8d7f418ebcce868ad69cbf7f"
