import json
import math

import numpy as np
import pytest

import discmed
from discmed import instance as I
from discmed.stochastic import (
    StochasticInstance,
    StochasticPoint,
    generate_stochastic,
    solve_stochastic_center,
    validate_stochastic,
)

from .helpers import recompute_discounted_cost


def line_instance(dists, discounts, k=1, weights=None):
    """One facility at 0, clients at the given distances on a line."""
    ids = ("f00",) + tuple(f"c{i:02d}" for i in range(len(dists)))
    coords = {"f00": (0.0, 0.0)}
    for i, d in enumerate(dists):
        coords[f"c{i:02d}"] = (float(d), 0.0)
    metric = I.MetricSpace.from_coords(coords)
    disc = {f"c{i:02d}": float(r) for i, r in enumerate(discounts)}
    w = weights or {j: 1.0 for j in ids[1:]}
    return I.Instance(("f00",), ids[1:], metric, disc, w, I.Cardinality(k))


def full_cube_triangle_messages(m):
    """The triangle messages from the whole n x n x n slack array at once."""
    d, out, seen = m.dist, [], set()
    slack = d[:, :, None] + d[None, :, :] - d[:, None, :]  # [i, k, j]
    for i, k, j in np.argwhere(slack < -I.TRIANGLE_TOL):
        key = (min(int(i), int(j)), max(int(i), int(j)), int(k))
        if key not in seen:
            seen.add(key)
            out.append(
                "triangle violation "
                f"({m.points[i]},{m.points[k]},{m.points[j]}): "
                f"{d[i, j]:.6g} > {d[i, k]:.6g} + {d[k, j]:.6g}"
            )
    return out


class TestValidate:
    def test_collinear_points_are_a_metric(self):
        m = I.MetricSpace(("a", "b", "c"), np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0.0]]))
        inst = I.Instance(("a",), ("b", "c"), m, {"b": 0.0, "c": 0.0}, {"b": 1.0, "c": 1.0}, I.Cardinality(1))
        assert I.validate(inst) == []

    def test_triangle_violation_reported_with_sites(self):
        m = I.MetricSpace(("a", "b", "c"), np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0.0]]))
        inst = I.Instance(("a",), ("b", "c"), m, {"b": 0.0, "c": 0.0}, {"b": 1.0, "c": 1.0}, I.Cardinality(1))
        msgs = I.validate(inst)
        assert any("triangle" in v and "a" in v and "b" in v and "c" in v for v in msgs)

    @pytest.mark.parametrize("n, slab_rows", [(6, None), (9, None), (9, 1), (9, 4), (14, 3)])
    def test_triangle_messages_match_the_full_cube(self, monkeypatch, n, slab_rows):
        # slab_rows None keeps the default slab, which holds every row at these sizes
        if slab_rows is not None:
            monkeypatch.setattr(I, "TRIANGLE_SLAB", slab_rows * n * n)
        rng = np.random.default_rng(n + (slab_rows or 0))
        coords = {f"p{k}": tuple(rng.uniform(1, 9, 2)) for k in range(n)}
        d = I.MetricSpace.from_coords(coords).dist.copy()  # a metric's own matrix is read-only
        for _ in range(3):  # plant stretched edges, keeping the matrix symmetric
            a, b = rng.choice(n, size=2, replace=False)
            d[a, b] = d[b, a] = 3.0 * d[a, b]
        m = I.MetricSpace(tuple(f"p{k}" for k in range(n)), d)
        expected = full_cube_triangle_messages(m)
        assert expected
        assert [v for v in m.violations() if v.startswith("triangle")] == expected

    def test_id_shared_by_a_facility_and_a_client_is_reported(self):
        # the metric's points are facilities a, b then clients a, c
        m = I.MetricSpace(("a", "b", "a", "c"), np.ones((4, 4)) - np.eye(4))
        inst = I.Instance(
            ("a", "b"), ("a", "c"), m, {"a": 0.0, "c": 0.0}, {"a": 1.0, "c": 1.0}, I.Cardinality(1)
        )
        assert I.validate(inst) == ["ids shared by a facility and a client: ['a']"]

    def test_normalization_violation(self):
        m = I.MetricSpace(("a", "b"), np.array([[0.0, 0.5], [0.5, 0.0]]))
        inst = I.Instance(("a",), ("b",), m, {"b": 0.0}, {"b": 1.0}, I.Cardinality(1))
        msgs = I.validate(inst)
        assert any("normalization" in v for v in msgs)

    @pytest.mark.parametrize(
        "spec",
        [
            I.PartitionMatroid((("f00", "f01"), ("f02",)), (0, 0)),
            I.ExplicitMatroid(("f00", "f01", "f02"), np.zeros(8, dtype=np.int64)),
        ],
        ids=["partition", "explicit"],
    )
    def test_rank_zero_matroid_is_refused(self, spec):
        inst = I.generate(3, 4, kind="cardinality", seed=1)
        inst = I.Instance(
            inst.facilities, inst.clients, inst.metric,
            inst.discounts, inst.client_weights, I.Matroid(spec),
        )
        assert I.validate(inst) == ["matroid admits no nonempty independent set"]

    def test_generated_instances_validate(self):
        kinds = ["cardinality", "uniform", "partition", "explicit", "knapsack"]
        for seed in range(1000):
            kind = kinds[seed % len(kinds)]
            nf = 2 + seed % 5
            inst = I.generate(nf, 3 + seed % 6, kind=kind, seed=seed)
            assert I.validate(inst) == [], (seed, kind)


class TestChecked:
    def test_normalizes_before_validating(self):
        inst = line_instance([0.5], [0.25])
        out = I.checked(inst)
        assert out.scale == pytest.approx(2.0)
        assert I.validate(out) == []

    def test_raises_with_every_problem(self):
        inst = line_instance([5.0], [-1.0], k=3)
        with pytest.raises(I.InstanceError, match=r"^invalid instance: .*negative discount.*k=3"):
            I.checked(inst)


class TestDiscountedCost:
    def test_simple_clamp(self):
        inst = line_instance([5.0], [2.0])
        assert I.discounted_cost(inst, ["f00"], 1.0) == pytest.approx(3.0)

    def test_clamps_at_zero(self):
        inst = line_instance([5.0], [7.0])
        assert I.discounted_cost(inst, ["f00"], 1.0) == 0.0

    def test_empty_set_rejected(self):
        inst = line_instance([5.0], [2.0])
        with pytest.raises(I.InstanceError):
            I.discounted_cost(inst, [])

    def test_matches_independent_reevaluation(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            inst = I.generate(5, 6, kind="cardinality", seed=seed)
            size = int(rng.integers(1, 5))
            chosen = list(rng.choice(inst.facilities, size=size, replace=False))
            mult = float(rng.uniform(1.0, 3.0))
            assert I.discounted_cost(inst, chosen, mult) == pytest.approx(
                recompute_discounted_cost(inst, chosen, mult), rel=1e-12
            )

    def test_monotone_nonincreasing_in_set_inclusion(self):
        for seed in range(10):
            inst = I.generate(6, 8, kind="cardinality", seed=seed)
            rng = np.random.default_rng(seed)
            small = set(rng.choice(inst.facilities, size=2, replace=False))
            big = small | set(rng.choice(inst.facilities, size=3, replace=False))
            assert I.discounted_cost(inst, big) <= I.discounted_cost(inst, small) + 1e-12

    def test_zero_discounts_give_plain_weighted_median(self):
        inst = I.generate(5, 7, kind="cardinality", discount_scale=0.0, seed=3)
        chosen = list(inst.facilities[:2])
        rows = [inst.fac_pos[f] for f in chosen]
        plain = float(np.sum(inst.w * inst.dist_fc[rows, :].min(axis=0)))
        assert I.discounted_cost(inst, chosen, 1.0) == pytest.approx(plain)

    def test_uniform_huge_discount_vanishes(self):
        # the center-problem reduction direction: R beyond every distance
        inst = I.generate(4, 5, kind="cardinality", seed=11)
        big = float(inst.metric.dist.max()) + 1.0
        uniform = I.Instance(
            inst.facilities, inst.clients, inst.metric,
            {j: big for j in inst.clients}, inst.client_weights, inst.constraint,
        )
        assert I.discounted_cost(uniform, [inst.facilities[0]], 1.0) == 0.0


class TestNormalize:
    def test_scales_distances_and_discounts(self):
        m = I.MetricSpace(("a", "b"), np.array([[0.0, 0.25], [0.25, 0.0]]))
        inst = I.Instance(("a",), ("b",), m, {"b": 2.0}, {"b": 1.0}, I.Cardinality(1))
        out = I.normalize(inst)
        assert out.metric.d("a", "b") == pytest.approx(1.0)
        assert out.discounts["b"] == pytest.approx(8.0)
        assert out.scale == pytest.approx(4.0)

    def test_identity_when_already_normalized(self):
        inst = I.generate(4, 4, seed=0)
        out = I.normalize(inst)
        assert out is inst

    def test_all_zero_distances_unchanged(self):
        m = I.MetricSpace(("a", "b"), np.zeros((2, 2)))
        inst = I.Instance(("a",), ("b",), m, {"b": 0.0}, {"b": 1.0}, I.Cardinality(1))
        out = I.normalize(inst)
        assert out.scale == 1.0

    def test_argmin_sets_invariant(self):
        # brute-force argmin before and after scaling agrees on 20 instances
        from discmed.oracle import brute_opt

        for seed in range(20):
            inst = I.generate(5, 6, kind="cardinality", seed=seed)
            shrunk = I.Instance(
                inst.facilities, inst.clients,
                I.MetricSpace(inst.metric.points, inst.metric.dist * 0.125),
                {j: v * 0.125 for j, v in inst.discounts.items()},
                inst.client_weights, inst.constraint,
            )
            renorm = I.normalize(shrunk)
            assert brute_opt(renorm).optimum == brute_opt(inst).optimum


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = I.generate(4, 6, kind="cardinality", discount_scale=0.5, seed=7)
        b = I.generate(4, 6, kind="cardinality", discount_scale=0.5, seed=7)
        assert json.dumps(I.to_json(a), sort_keys=True) == json.dumps(I.to_json(b), sort_keys=True)

    def test_zero_discount_scale(self):
        inst = I.generate(4, 6, discount_scale=0.0, seed=1)
        assert all(v == 0.0 for v in inst.discounts.values())

    @pytest.mark.parametrize("kind", ["cardinality", "uniform", "partition", "explicit", "knapsack"])
    def test_one_facility(self, kind):
        inst = I.generate(1, 3, kind=kind, seed=4)
        assert I.validate(inst) == []
        st = generate_stochastic(1, 3, kind=kind, seed=4)
        assert validate_stochastic(st) == []

    def test_counts_must_be_positive(self):
        with pytest.raises(I.InstanceError):
            I.generate(0, 3)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("kind", ["cardinality", "uniform", "partition", "explicit", "knapsack"])
    def test_round_trip(self, kind):
        inst = I.generate(5, 4, kind=kind, seed=2)
        back = I.from_json(I.to_json(inst))
        assert back.facilities == inst.facilities
        assert back.clients == inst.clients
        assert np.allclose(
            back.metric.submatrix(back.facilities, back.clients), inst.dist_fc
        )
        assert back.discounts == pytest.approx(inst.discounts)
        assert type(back.constraint) is type(inst.constraint)

    def test_malformed_json_raises(self):
        with pytest.raises(I.InstanceError):
            I.from_json({"facilities": []})

    def test_euclidean_metric_parses(self):
        blob = {
            "facilities": [{"id": "f0"}],
            "clients": [{"id": "c0", "discount": 1.0}],
            "metric": {"type": "euclidean", "coords": {"f0": [0.0, 0.0], "c0": [3.0, 4.0]}},
            "constraint": {"type": "cardinality", "k": 1},
        }
        inst = I.from_json(blob)
        assert inst.metric.d("f0", "c0") == pytest.approx(5.0)


class TestCachedMetricVerdict:
    def test_dist_is_a_read_only_copy(self):
        given_dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        m = I.MetricSpace(("a", "b"), given_dist)
        with pytest.raises(ValueError, match="read-only"):
            m.dist[0, 1] = 5.0
        given_dist[0, 1] = given_dist[1, 0] = 0.5  # the caller's array stays theirs
        assert m.dist[0, 1] == 2.0 and m.violations() == []

    def test_an_invalid_metric_is_refused_by_every_entry(self):
        # one metric object, so the second and third refusals come from its cached verdict
        m = I.MetricSpace(("f00", "c00", "c01"), np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0.0]]))
        inst = I.Instance(
            ("f00",), ("c00", "c01"), m, {"c00": 0.0, "c01": 0.0}, {"c00": 1.0, "c01": 1.0},
            I.Cardinality(1),
        )
        stoch = StochasticInstance(inst, (StochasticPoint("v0", {"c00": 0.5}),))
        for refuse in (I.checked, discmed.solve, lambda _: solve_stochastic_center(stoch, None, 0.2)):
            with pytest.raises(I.InstanceError, match=r"triangle violation \(f00,c00,c01\)"):
                refuse(inst)

    @pytest.mark.parametrize(
        "value, message", [(-1.0, "negative discount"), (math.nan, "non-finite discount nan"),
                           (math.inf, "non-finite discount inf")],
    )
    def test_with_discounts_still_checks_the_discounts(self, value, message):
        inst = I.generate(3, 4, seed=1)
        bad = inst.with_discounts({**inst.discounts, "c01": value})
        assert I.validate(inst) == []
        with pytest.raises(I.InstanceError, match=f"{message} for client c01"):
            I.checked(bad)
        with pytest.raises(I.InstanceError, match=f"{message} for client c01"):
            discmed.solve(bad)

    def test_with_discounts_shares_only_what_reads_no_discount(self):
        inst = I.generate(3, 4, seed=1)
        child = inst.with_discounts({j: 1.0 for j in inst.clients})
        for name in I.DISCOUNT_FREE:
            assert getattr(child, name) is getattr(inst, name), name
        assert not np.array_equal(child.r, inst.r)
        assert not np.array_equal(child.contrib, inst.contrib)
        assert child.discounts == {j: 1.0 for j in inst.clients}
        assert inst.discounts != child.discounts  # the parent keeps its own
