"""Stochastic center clustering through a uniform-discount sweep.

Independent stochastic points realize at client locations; the objective is
the expected maximum distance from a realized point to the chosen facilities.
The solver repeatedly runs the matching discount solver with a uniform
discount T (clients weighted by their realization probability), geometrically
decreasing T, and returns the output at the smallest T that still meets the
beta*T acceptance test, with T = 0 as the final fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .instance import (
    Instance,
    InstanceError,
    Knapsack,
    _real,
    check_arg,
    discounted_cost,
    from_json,
    generate,
    normalize,
    seeded_rng,
    to_json,
    validate,
)
from .iterround import aux_lp_memo
from .knapsack import solve

SWEEP_STEP_GUARD = 10_000  # sweep steps, about log(diameter) / -log(1 - epsilon)
# knapsack options of the sweep's solves; rho and delta keep the solver's defaults
SWEEP_KNAPSACK_OPTIONS = {"epsilon": 0.25}


@dataclass(frozen=True)
class StochasticPoint:
    pid: str
    dist: dict[str, float]  # client location -> realization probability

    def none_probability(self) -> float:
        return max(0.0, 1.0 - sum(self.dist.values()))


@dataclass(frozen=True, eq=False)
class StochasticInstance:
    base: Instance  # discounts must all be zero
    points: tuple[StochasticPoint, ...]


def validate_stochastic(stoch: StochasticInstance) -> list[str]:
    out = validate(stoch.base)
    if any(v != 0.0 for v in stoch.base.discounts.values()):
        out.append("base instance of a stochastic problem must have zero discounts")
    clients = set(stoch.base.clients)
    for pt in stoch.points:
        total = 0.0
        for loc, q in pt.dist.items():
            if loc not in clients:
                out.append(f"point {pt.pid} realizes at unknown location {loc}")
            if not 0.0 <= q <= 1.0:
                out.append(f"point {pt.pid} has probability {q} outside [0, 1]")
            total += q
        if total > 1.0 + 1e-9:
            out.append(f"point {pt.pid} has total probability {total} > 1")
    return out


def realization_probs(stoch: StochasticInstance) -> dict[str, float]:
    """p_j = chance that at least one point realizes at client j."""
    miss = {j: 1.0 for j in stoch.base.clients}
    for pt in stoch.points:
        for loc, q in pt.dist.items():
            miss[loc] *= 1.0 - q
    return {j: 1.0 - m for j, m in miss.items()}


def eval_expected_max(stoch: StochasticInstance, chosen) -> float:
    """Exact expected max distance of realized points to ``chosen``.

    A DP over the points whose state is the running maximum, which is always
    one of the distinct distances to ``chosen``: it costs points x (clients + 1)
    x (support + 1), however many realization outcomes there are.
    """
    base = stoch.base
    chosen = sorted(set(chosen))
    if not chosen:
        raise InstanceError("eval_expected_max: empty facility set")
    stray = set(chosen) - set(base.facilities)
    if stray:
        raise InstanceError(f"eval_expected_max: unknown facilities {sorted(stray)}")
    rows = [base.fac_pos[f] for f in chosen]
    nearest = {j: float(base.dist_fc[rows, base.cli_pos[j]].min()) for j in base.clients}
    dist = {0.0: 1.0}  # distribution of the running maximum
    for pt in stoch.points:
        none_p = pt.none_probability()
        nxt: dict[float, float] = {}
        for cur, prob in dist.items():
            if none_p > 0:
                nxt[cur] = nxt.get(cur, 0.0) + prob * none_p
            for loc, q in sorted(pt.dist.items()):
                if q > 0:
                    m = max(cur, nearest[loc])
                    nxt[m] = nxt.get(m, 0.0) + prob * q
        dist = nxt
    return float(sum(m * p for m, p in dist.items()))


@dataclass
class SweepStep:
    T: float
    solution: tuple[str, ...]
    cost: float  # weighted discounted cost against alpha*T
    passed: bool


@dataclass
class StochasticReport:
    tau: float  # base of the discount solves
    t_star: float
    alpha: float
    beta: float
    guarantee_constant: float
    flagged: bool
    sweep: list[SweepStep]
    expected_max: float

    def to_json(self) -> dict:
        return {
            "Tstar": self.t_star,
            "alpha": self.alpha,
            "beta": self.beta,
            "guaranteeConstant": self.guarantee_constant,
            "flagged": self.flagged,
            "expectedMax": self.expected_max,
            "sweep": [
                {"T": s.T, "solution": list(s.solution), "cost": s.cost, "passed": s.passed}
                for s in self.sweep
            ],
        }


def solve_stochastic_center(
    stoch: StochasticInstance,
    tau: float | None,
    epsilon: float,
    knap_options: dict | None = None,
) -> tuple[tuple[str, ...], StochasticReport]:
    """Discount sweep; returns the chosen set and a certified report.

    The sweep starts at the metric diameter and scales by (1 - epsilon) while
    T >= 1 (the normalized minimum distance), with a final T = 0 fallback;
    an epsilon that would take more than SWEEP_STEP_GUARD steps is refused.
    The returned set is the output at the smallest T passing the beta*T test,
    and its E[max], to certify against (alpha + beta) * T_star, is exact.
    Each step calls ``solve`` with ``tau`` (None: the family's default) and
    ``knap_options``; a knapsack base starts from SWEEP_KNAPSACK_OPTIONS.
    The steps share one ``aux_lp_memo``, so the sweep solves each distinct
    auxiliary LP once.
    """
    check_arg(epsilon, "epsilon", lambda e: 0.0 < e < 1.0, "lie in (0, 1)")
    base = normalize(stoch.base)
    problems = validate_stochastic(StochasticInstance(base, stoch.points))
    if problems:
        raise InstanceError("invalid stochastic instance: " + "; ".join(problems))

    probs = realization_probs(stoch)
    weighted = replace(base, client_weights=dict(probs))
    opts = dict(knap_options or {})
    if isinstance(base.constraint, Knapsack):
        opts = {**SWEEP_KNAPSACK_OPTIONS, **opts}

    diameter = float(base.metric.dist.max())
    shrink = 1.0 - epsilon  # 1.0 for epsilon below about 1.1e-16
    if diameter >= 1.0 and (
        shrink == 1.0 or math.log(diameter) / -math.log(shrink) > SWEEP_STEP_GUARD
    ):
        raise InstanceError(
            f"epsilon={epsilon!r} makes the sweep from T={diameter:.6g} down to 1 "
            f"longer than {SWEEP_STEP_GUARD} steps"
        )
    ts: list[float] = []
    t = diameter
    while t >= 1.0:
        ts.append(t)
        t *= shrink
    ts.append(0.0)

    sweep: list[SweepStep] = []
    best: SweepStep | None = None
    flagged = False
    with aux_lp_memo():
        for T in ts:
            inst_t = replace(weighted, discounts={j: T for j in base.clients})
            rep = solve(inst_t, tau, **opts)
            solution, alpha, beta = rep.solution, rep.alpha, rep.beta
            cost = discounted_cost(inst_t, solution, alpha if T > 0 else 1.0)
            passed = cost <= beta * T + 1e-9
            sweep.append(SweepStep(T=T, solution=solution, cost=cost, passed=passed))
            if passed:
                best = sweep[-1]
            else:
                if T == 0.0:
                    flagged = True  # criterion held down to the unit floor only
                break
    if best is None:
        raise InstanceError("the sweep acceptance test failed at the diameter")

    report = StochasticReport(
        tau=rep.tau,
        t_star=best.T,
        alpha=alpha,
        beta=beta,
        guarantee_constant=3.0 * (1.0 + 2.0 * epsilon) * (alpha + beta),
        flagged=flagged,
        sweep=sweep,
        expected_max=eval_expected_max(stoch, best.solution),
    )
    return best.solution, report


def generate_stochastic(
    n_facilities: int,
    n_points: int,
    kind: str = "uniform",
    seed: int = 0,
    prob_floor: float = 0.4,
    n_clients: int | None = None,
) -> StochasticInstance:
    """Random stochastic instance over a generated zero-discount base.

    Per-location probabilities are at least ``prob_floor`` so any instance
    with a nonzero optimum has optimum at least that floor; the sweep's unit
    stopping threshold then cannot void the certified constant; a floor above
    0.5 leaves a two-location point no room for its second probability.
    A point draws up to two distinct locations from the base clients, so a
    given ``n_clients`` must be at least 2; a drawn one is at least 2 too.
    """
    for what, n in (("n_facilities", n_facilities), ("n_points", n_points)):
        check_arg(n, f"generate_stochastic: {what}", lambda c: c >= 1, "be >= 1", count=True)
    if n_clients is not None:
        check_arg(
            n_clients, "generate_stochastic: n_clients", lambda c: c >= 2, "be >= 2", count=True
        )
    check_arg(
        seed, "generate_stochastic: seed", lambda s: s >= 0, "be a non-negative integer",
        count=True,
    )
    check_arg(
        prob_floor, "generate_stochastic: prob_floor", lambda q: 0.0 < q <= 0.5,
        "lie in (0, 0.5]",
    )
    rng = seeded_rng(seed)
    if n_clients is None:
        n_clients = max(2, n_points + int(rng.integers(0, 3)))
    base = generate(n_facilities, n_clients, kind=kind, discount_scale=0.0, seed=seed + 1)
    points = []
    for v in range(n_points):
        support = int(rng.integers(1, 3))
        locs = [str(x) for x in rng.choice(base.clients, size=support, replace=False)]
        if support == 1:
            qs = [float(rng.uniform(prob_floor, 1.0))]
        else:
            q1 = float(rng.uniform(prob_floor, 1.0 - prob_floor))
            qs = [q1, float(rng.uniform(prob_floor, 1.0 - q1))]
        points.append(StochasticPoint(f"v{v:02d}", dict(zip(locs, qs))))
    return StochasticInstance(base=base, points=tuple(points))


# ---------------------------------------------------------------------------
# JSON schema


def stochastic_to_json(stoch: StochasticInstance) -> dict:
    blob = to_json(stoch.base)
    blob["points"] = [{"id": pt.pid, "dist": dict(pt.dist)} for pt in stoch.points]
    return blob


def stochastic_from_json(obj: dict) -> StochasticInstance:
    if not isinstance(obj, dict):
        kind = type(obj).__name__
        raise InstanceError(f"malformed stochastic JSON: expected an object, got {kind}")
    base_blob = {k: v for k, v in obj.items() if k != "points"}
    base = from_json(base_blob)
    try:
        points = tuple(
            StochasticPoint(
                p["id"], {str(k): _real(v, "probability") for k, v in p["dist"].items()}
            )
            for p in obj["points"]
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InstanceError(f"malformed stochastic JSON: {exc}") from exc
    return StochasticInstance(base=base, points=points)
