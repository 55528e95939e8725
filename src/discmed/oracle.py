"""Exact brute-force solvers used to certify the approximation guarantees.

These enumerate every feasible facility set (guarded by an explicit count
computed up front) and evaluate objectives straight from their definitions,
sharing no code with the solvers they certify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .instance import Cardinality, Instance, InstanceError, Knapsack, Matroid

ENUMERATION_GUARD = 1_000_000


class GuardExceeded(RuntimeError):
    """Raised when an exhaustive enumeration would be too large."""


@dataclass
class OracleResult:
    optimum: tuple[str, ...]
    value: float
    enumerated: int


def count_feasible_sets(inst: Instance) -> int:
    """Number of nonempty feasible facility sets, computed before enumerating."""
    nf = len(inst.facilities)
    con = inst.constraint
    if isinstance(con, Cardinality):
        return sum(math.comb(nf, s) for s in range(1, con.k + 1))
    if isinstance(con, Matroid):
        spec = con.spec
        from .instance import ExplicitMatroid, PartitionMatroid, UniformMatroid

        if isinstance(spec, UniformMatroid):
            top = min(spec.rank_bound, nf)
            return sum(math.comb(nf, s) for s in range(1, top + 1))
        if isinstance(spec, PartitionMatroid):
            total = 1
            for part, cap in zip(spec.parts, spec.caps):
                total *= sum(math.comb(len(part), s) for s in range(0, min(cap, len(part)) + 1))
            return total - 1  # drop the empty set
        if isinstance(spec, ExplicitMatroid):
            sizes = np.array([m.bit_count() for m in range(1 << nf)])
            indep = spec.rank_table == sizes
            return int(indep.sum()) - 1
        raise InstanceError(f"unknown matroid spec {type(spec).__name__}")
    if isinstance(con, Knapsack):
        if nf > 22:
            raise GuardExceeded(f"knapsack count needs 2^{nf} subset sums")
        w = np.array([con.weights[f] for f in inst.facilities])
        masks = np.arange(1, 1 << nf, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(nf)) & 1
        return int(np.sum(bits @ w <= con.budget + 1e-12))
    raise InstanceError(f"unknown constraint family {type(con).__name__}")


def feasible_sets(inst: Instance) -> Iterator[tuple[str, ...]]:
    """Nonempty feasible facility sets, in a deterministic order."""
    fids = inst.facilities
    nf = len(fids)
    con = inst.constraint
    if isinstance(con, Cardinality):
        for s in range(1, con.k + 1):
            yield from itertools.combinations(fids, s)
        return
    if isinstance(con, Matroid):
        spec = con.spec
        for s in range(1, nf + 1):
            for combo in itertools.combinations(fids, s):
                if spec.is_independent(combo):
                    yield combo
        return
    if isinstance(con, Knapsack):
        for s in range(1, nf + 1):
            for combo in itertools.combinations(fids, s):
                if sum(con.weights[f] for f in combo) <= con.budget + 1e-12:
                    yield combo
        return
    raise InstanceError(f"unknown constraint family {type(con).__name__}")


def _set_cost(dist_fc: np.ndarray, w: np.ndarray, r: np.ndarray, rows: list[int]) -> float:
    nearest = dist_fc[rows[0]]
    for k in rows[1:]:
        nearest = np.minimum(nearest, dist_fc[k])
    return float(np.sum(w * np.maximum(nearest - r, 0.0)))


def brute_opt(inst: Instance) -> OracleResult:
    """Exhaustive minimum of the discounted objective over feasible sets."""
    count = count_feasible_sets(inst)
    if count > ENUMERATION_GUARD:
        raise GuardExceeded(f"{count} feasible sets exceed the {ENUMERATION_GUARD} guard")
    if count == 0:
        raise InstanceError("no nonempty feasible facility set")
    dist_fc, w, r = inst.dist_fc, inst.w, inst.r
    pos = inst.fac_pos
    best: tuple[str, ...] | None = None
    best_val = math.inf
    n_seen = 0
    for combo in feasible_sets(inst):
        n_seen += 1
        val = _set_cost(dist_fc, w, r, [pos[f] for f in combo])
        if val < best_val - 1e-15 or (
            abs(val - best_val) <= 1e-15 and (best is None or tuple(sorted(combo)) < best)
        ):
            best, best_val = tuple(sorted(combo)), val
    assert best is not None
    return OracleResult(optimum=best, value=best_val, enumerated=n_seen)


def exact_expected_max(stoch, chosen: Iterable[str]) -> float:
    """E[max over realized points of distance-to-chosen], exactly: a DP over
    the points that carries the distribution of the running maximum, whose
    values are 0 and the clients' nearest distances."""
    base = stoch.base
    rows = [base.fac_pos[f] for f in sorted(set(chosen))]
    nearest = {
        j: float(min(base.dist_fc[k, base.cli_pos[j]] for k in rows)) for j in base.clients
    }
    outcomes = [(0.0, 1.0)]  # (current max, probability)
    for point in stoch.points:
        items = sorted(point.dist.items())
        none_p = 1.0 - sum(p for _, p in items)
        new: dict[float, float] = {}
        for cur, prob in outcomes:
            if none_p > 0:
                new[cur] = new.get(cur, 0.0) + prob * none_p
            for j, p in items:
                if p <= 0:
                    continue
                m = max(cur, nearest[j])
                new[m] = new.get(m, 0.0) + prob * p
        outcomes = list(new.items())
    return float(sum(m * p for m, p in outcomes))


def brute_stochastic_opt(stoch) -> OracleResult:
    """Exact optimum of the expected-max objective over feasible sets.

    The guard counts the updates of ``exact_expected_max``'s DP: per set and
    point, at most clients + 1 running maxima, each updated once per location
    of positive probability and once more for no location.
    """
    count = count_feasible_sets(stoch.base)
    steps = sum(
        (len(stoch.base.clients) + 1) * (sum(p > 0 for p in point.dist.values()) + 1)
        for point in stoch.points
    )
    work = count * steps
    if work > ENUMERATION_GUARD:
        raise GuardExceeded(f"{work} set/DP-update pairs exceed the {ENUMERATION_GUARD} guard")
    best: tuple[str, ...] | None = None
    best_val = math.inf
    n_seen = 0
    for combo in feasible_sets(stoch.base):
        n_seen += 1
        val = exact_expected_max(stoch, combo)
        if val < best_val - 1e-15 or (
            abs(val - best_val) <= 1e-15 and (best is None or tuple(sorted(combo)) < best)
        ):
            best, best_val = tuple(sorted(combo)), val
    assert best is not None
    return OracleResult(optimum=best, value=best_val, enumerated=n_seen)


def check_bicriteria(inst: Instance, solution: Iterable[str], alpha: float, beta: float) -> dict:
    """Certify cost(solution, alpha) <= beta * brute-force optimum + 1e-6."""
    chosen = sorted(set(solution))
    stray = set(chosen) - set(inst.facilities)
    if not chosen or stray:
        raise InstanceError(f"check_bicriteria: no facility or unknown facilities in {chosen}")
    res = brute_opt(inst)
    lhs = _set_cost(inst.dist_fc, inst.w, alpha * inst.r, [inst.fac_pos[f] for f in chosen])
    rhs = beta * res.value
    return {
        "opt": res.value,
        "optSet": list(res.optimum),
        "lhs": lhs,
        "rhs": rhs,
        "holds": bool(lhs <= rhs + 1e-6),
        "alpha": alpha,
        "beta": beta,
    }
