"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own code paths wherever they certify
one: the vertex enumerator solves LPs by intersecting constraint subsets, and
the cost re-evaluators recompute objectives straight from their definitions.
"""

from __future__ import annotations

import itertools

import numpy as np

from discmed.instance import (
    Cardinality,
    Instance,
    Matroid,
    MetricSpace,
    PartitionMatroid,
    UniformMatroid,
)
from discmed.lpcore import LinearProgram


def enumerate_vertices(lp: LinearProgram, feas_tol: float = 1e-9):
    """All vertices of the feasible region, by brute force.

    Every subset of n linearly independent tight conditions (constraint rows
    taken at equality, or variable bounds) is intersected; feasible
    intersection points are vertices. Returns (points, objectives).
    """
    n = lp.n_vars
    A = lp.matrix()
    b = np.asarray(lp.row_rhs, float)
    rels = list(lp.row_rel)
    pool_A = [A[i] for i in range(len(rels))]
    pool_b = [b[i] for i in range(len(rels))]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        pool_A.append(e.copy())
        pool_b.append(float(lp.lo[j]))
        pool_A.append(e.copy())
        pool_b.append(float(lp.hi[j]))
    pool_A = np.array(pool_A)
    pool_b = np.array(pool_b)

    combos = list(itertools.combinations(range(len(pool_b)), n))
    mats = pool_A[np.array(combos)]  # (K, n, n)
    rhss = pool_b[np.array(combos)]  # (K, n)
    dets = np.abs(np.linalg.det(mats))
    ok = dets > 1e-9
    if ok.any():
        points = np.linalg.solve(mats[ok], rhss[ok][..., None])[..., 0]
    else:
        points = np.zeros((0, n))

    feas = np.ones(len(points), dtype=bool)
    feas &= np.all(points >= lp.lo - feas_tol, axis=1)
    feas &= np.all(points <= lp.hi + feas_tol, axis=1)
    if len(rels):
        lhs = points @ A.T
        for i, rel in enumerate(rels):
            scale = max(1.0, abs(b[i]))
            if rel == "=":
                feas &= np.abs(lhs[:, i] - b[i]) <= feas_tol * scale
            else:
                feas &= lhs[:, i] <= b[i] + feas_tol * scale
    pts = points[feas]
    objs = pts @ lp.objective
    return pts, objs


def vertex_enum_optimum(lp: LinearProgram) -> float | None:
    """Optimal objective by vertex enumeration; None if infeasible."""
    pts, objs = enumerate_vertices(lp)
    if len(objs) == 0:
        return None
    return float(objs.min())


def add_dense_row(lp: LinearProgram, a, rel: str, rhs: float) -> None:
    """Add the row ``a @ x rel rhs`` for a dense ``a`` and a relation "=",
    "<=" or ">="; a ">=" row goes in negated, as the "<=" row it equals."""
    if rel == ">=":
        a, rel, rhs = -np.asarray(a), "<=", -rhs
    lp.add_row({j: v for j, v in enumerate(np.asarray(a, float).tolist()) if v}, rel, rhs)


def random_feasible_lp(rng: np.random.Generator) -> LinearProgram:
    """Random bounded LP that is feasible by construction."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    lp = LinearProgram(n, objective=rng.normal(size=n), lo=lo, hi=hi)
    x0 = rng.uniform(lo, hi)
    for _ in range(m):
        a = rng.normal(size=n)
        rel = rng.choice(["<=", "=", ">="])
        margin = float(rng.uniform(0.0, 1.0))
        base = float(a @ x0)
        if rel == "<=":
            add_dense_row(lp, a, rel, base + margin)
        elif rel == ">=":
            add_dense_row(lp, a, rel, base - margin)
        else:
            add_dense_row(lp, a, rel, base)
    return lp


def gap_instance(n: int, family: str, seed=None, jitter: float = 0.0) -> Instance:
    """Integrality-gap instance on the complete graph K_n (Jain, Mahdian and
    Saberi, STOC 2002): one facility per vertex and one client per edge.

    Facilities sit 2 apart; a client is 1 from its edge's endpoints and 3 from
    every other facility; two clients are 2 apart when their edges share an
    endpoint and 4 apart otherwise. ``family`` picks the constraint: at most
    n // 2 facilities ("cardinality"), a uniform matroid of that rank
    ("uniform"), or two halves each capped at max(1, half // 2) ("partition").
    Discounts are drawn from [0, jitter) and weights from [1, 1 + jitter).
    """
    facs = tuple(f"f{a}" for a in range(n))
    edges = list(itertools.combinations(range(n), 2))
    clis = tuple(f"c{a}_{b}" for a, b in edges)
    dist = np.zeros((n + len(edges), n + len(edges)))
    dist[:n, :n] = 2.0
    for k, e in enumerate(edges):
        dist[:n, n + k] = dist[n + k, :n] = [1.0 if a in e else 3.0 for a in range(n)]
        dist[n + k, n:] = [2.0 if set(e) & set(other) else 4.0 for other in edges]
    np.fill_diagonal(dist, 0.0)
    rng = np.random.default_rng(seed)
    discounts = {j: jitter * float(rng.random()) for j in clis}
    weights = {j: 1.0 + jitter * float(rng.random()) for j in clis}
    if family == "cardinality":
        constraint = Cardinality(n // 2)
    elif family == "uniform":
        constraint = Matroid(UniformMatroid(n // 2))
    elif family == "partition":
        halves = (facs[: n // 2], facs[n // 2 :])
        constraint = Matroid(PartitionMatroid(halves, tuple(max(1, len(h) // 2) for h in halves)))
    else:
        raise ValueError(f"unknown gap family {family!r}")
    return Instance(facs, clis, MetricSpace(facs + clis, dist), discounts, weights, constraint)


def left_out_equalities(lp: LinearProgram, cert) -> list[int]:
    """The equality rows of ``lp`` that the basis certificate ``cert`` does not list."""
    tight = {i for kind, i in cert if kind == "row"}
    return [i for i, rel in enumerate(lp.row_rel) if rel == "=" and i not in tight]


def certificate_matrix(lp: LinearProgram, cert) -> np.ndarray:
    """Stack the certificate's tight conditions as equation rows."""
    A = lp.matrix()
    rows = []
    for kind, idx in cert:
        if kind == "row":
            rows.append(A[idx])
        else:
            e = np.zeros(lp.n_vars)
            e[idx] = 1.0
            rows.append(e)
    return np.array(rows)


def recompute_discounted_cost(inst, chosen, multiplier=1.0) -> float:
    """Second, straight-from-the-definition objective evaluation."""
    total = 0.0
    for j in inst.clients:
        nearest = min(inst.metric.d(i, j) for i in chosen)
        gap = nearest - multiplier * inst.discounts[j]
        total += inst.client_weights[j] * max(0.0, gap)
    return total


def nearest_dist(inst, p, fset):
    return min(inst.metric.d(p, f) for f in fset)


def paper_two_phase(inst, f_star, rho, delta, est):
    """Sparsification existence construction, run with the optimum in hand.

    Phase one pre-selects overloaded optimal facilities; phase two removes
    closed balls around overloaded sites while pre-selecting the nearest
    optimal facility. Mirrors the argument establishing that some enumerated
    extended instance satisfies the sparsity and cost-split conditions.
    """
    f0: set[str] = set()
    cprime = set(inst.clients)
    kappa = {j: min(f_star, key=lambda f: (inst.metric.d(j, f), f)) for j in inst.clients}
    changed = True
    while changed:
        changed = False
        for i in sorted(set(f_star) - f0):
            load = sum(
                inst.client_weights[j] * max(inst.metric.d(i, j) - inst.discounts[j], 0.0)
                for j in cprime
                if kappa[j] == i
            )
            if load > rho * est + 1e-12:
                f0.add(i)
                changed = True
    sites = list(inst.facilities) + list(inst.clients)
    changed = True
    while changed:
        changed = False
        for p in sites:
            dp = nearest_dist(inst, p, f_star)
            ball = [j for j in cprime if inst.metric.d(j, p) <= delta * dp + 1e-12]
            load = sum(
                inst.client_weights[j] * max(dp - inst.discounts[j] / (1 - delta), 0.0)
                for j in ball
            )
            if load > rho * est + 1e-12:
                f0.add(min(f_star, key=lambda f: (inst.metric.d(p, f), f)))
                cprime -= set(ball)
                changed = True
    return tuple(sorted(f0)), tuple(sorted(cprime))


def assert_sparse_conditions(inst, f_star, f0, cprime, rho, delta, est):
    """Both per-site sparsity conditions plus the removed/kept cost split."""
    kappa = {j: min(f_star, key=lambda f: (inst.metric.d(j, f), f)) for j in cprime}
    for i in set(f_star) - set(f0):
        load = sum(
            inst.client_weights[j] * max(inst.metric.d(i, j) - inst.discounts[j], 0.0)
            for j in cprime
            if kappa[j] == i
        )
        assert load <= rho * est + 1e-9
    for p in list(inst.facilities) + list(inst.clients):
        dp = nearest_dist(inst, p, f_star)
        load = sum(
            inst.client_weights[j] * max(dp - inst.discounts[j] / (1 - delta), 0.0)
            for j in cprime
            if inst.metric.d(j, p) <= delta * dp + 1e-12
        )
        assert load <= rho * est + 1e-9
    removed_cost = (
        sum(
            inst.client_weights[j]
            * max(nearest_dist(inst, j, f0) - (1 + delta) / (1 - delta) * inst.discounts[j], 0.0)
            for j in set(inst.clients) - set(cprime)
        )
        if f0
        else 0.0
    )
    kept_cost = sum(
        inst.client_weights[j] * max(nearest_dist(inst, j, f_star) - inst.discounts[j], 0.0)
        for j in cprime
    )
    assert (1 - delta) / (1 + delta) * removed_cost + kept_cost <= est + 1e-9
