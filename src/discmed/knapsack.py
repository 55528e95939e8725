"""Knapsack-constrained pipeline: estimate enumeration, sparsification,
strengthened relaxation, star-balanced duplication, rounding with virtual
clients, and selection among candidate solutions.

The naive knapsack relaxation has an unbounded integrality gap, so the solver
enumerates extended instances (a pre-selected facility set plus a pruned
client set) together with a geometric grid of objective estimates, solves a
strengthened LP on each, rounds with step size 1, and finally resolves the at
most two fractional coordinates a vertex can carry.
"""

from __future__ import annotations

import inspect
import itertools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .discretize import DiscretizedMetric, choose_offset
from .fractional import duplicate_star_balanced, solve_natural
from .instance import (
    Cardinality,
    Instance,
    InstanceError,
    Knapsack,
    Matroid,
    check_arg,
    checked,
    discounted_cost,
)
from .iterround import (
    Certificate,
    RoundingError,
    SolveReport,
    VirtualClient,
    check_tau,
    fractional_copies,
    iter_round,
    offset_support,
    solve_kmeddis,
    solve_matmeddis,
)
from .lpcore import FEAS_TOL, InfeasibleLP

DEFAULT_MAX_CANDIDATES = 200_000


class SparsifyGuard(RuntimeError):
    """Raised when the extended-instance enumeration would be too large."""


class OptionError(InstanceError):
    """Options that the solver of the instance's family does not take."""

    def __init__(self, family: str, names: list[str]):
        super().__init__(f"{family} instances take no option {', '.join(names)}")
        self.family, self.names = family, names


@dataclass
class ExtendedInstance:
    """Knapsack sub-instance with pre-selected facilities and pruned clients."""

    base: Instance
    f0: tuple[str, ...]
    cprime: tuple[str, ...]
    rho: float
    delta: float
    est: float
    # radius caps depend on (cprime, rho, delta, est) but not on f0, so the
    # cache can be shared across extended instances that differ only in f0
    rj: dict[str, float] = field(default_factory=dict, repr=False)
    # set by _task_table: the position in the task table, which breaks ties
    # among equal-cost candidates, and the grid estimates the task stands for
    index: int = 0
    ests: tuple[float, ...] = ()

    def __post_init__(self):
        self.f0 = tuple(sorted(self.f0))
        self.cprime = tuple(sorted(self.cprime))

    @cached_property
    def cols(self) -> list[int]:
        """Client positions of C', sorted."""
        return _positions(self.base, self.cprime)

    @cached_property
    def near_f0(self) -> np.ndarray:
        """Per facility position: within 1e-12 of some pre-selected facility."""
        inst = self.base
        if not self.f0:
            return np.zeros(len(inst.facilities), dtype=bool)
        return inst.metric.submatrix(inst.facilities, self.f0).min(axis=1) <= 1e-12

    @property
    def star_cap(self) -> float:
        """The 2*rho*EST cap on the star cost of a copy away from F0."""
        return 2.0 * self.rho * self.est

    def radius_cap(self, client: str) -> float:
        if client not in self.rj:
            self.rj[client] = compute_Rj(self, client)
        return self.rj[client]


def knapsack_sigma(tau: float) -> float:
    return tau * (3.0 * tau - 1.0) / (tau - 1.0)


def knapsack_alpha(tau: float, delta: float = 2.0 / 3.0) -> float:
    """Discount multiplier of the knapsack guarantee (3*sigma + 2 at delta=2/3)."""
    sigma = knapsack_sigma(tau)
    return max(
        sigma,
        2.0 * sigma / delta + 2.0,
        (sigma + delta) / (1.0 - delta),
        (1.0 + delta) / (1.0 - delta),
    )


def knapsack_est_coefficient(tau: float, rho: float, delta: float = 2.0 / 3.0) -> float:
    """Coefficient of EST in the certified objective bound."""
    sigma = knapsack_sigma(tau)
    reroute = 4.0 * sigma / delta + 4.0 + sigma + delta
    return max((1.0 + delta) / (1.0 - delta), (3.0 * tau - 1.0) / math.log(tau)) + rho * reroute


def theoretical_caps(rho: float, delta: float) -> tuple[int, int]:
    return math.ceil(1.0 / rho), math.ceil(1.0 / (rho * (1.0 - delta)))


def enumerate_estimates(
    inst: Instance, epsilon: float, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> list[tuple[float, float]]:
    """All (c0, EST) pairs: per-pair contributions crossed with a (1+eps) grid.

    The grid grows as 1/epsilon, so SparsifyGuard is raised, before any pair
    is built, if there would be more than ``max_candidates`` pairs.
    """
    check_arg(epsilon, "epsilon", lambda e: 0.0 < e < math.inf, "be finite and positive")
    values = sorted({float(v) for v in inst.contrib.ravel() if v > 0})
    pairs: list[tuple[float, float]] = [(0.0, 0.0)]
    n = max(1, len(inst.clients))
    growth = math.log(1.0 + epsilon)  # 0 once 1 + epsilon rounds to 1
    steps = 0 if n == 1 else math.ceil(math.log(n) / growth) if growth > 0 else math.inf
    count = 1 + len(values) * (steps + 1) if values else 1
    if count > max_candidates:
        raise SparsifyGuard(
            f"epsilon={epsilon!r} gives {count:.3g} estimate pairs, above the cap {max_candidates}"
        )
    for c0 in values:
        for s in range(steps + 1):
            pairs.append((c0, c0 * (1.0 + epsilon) ** s))
    return pairs


def _positions(inst: Instance, cprime: tuple[str, ...]) -> list[int]:
    """Client positions of C', sorted: the column order of every sum over C'."""
    return sorted(inst.cli_pos[j] for j in cprime)


def _ball_budget(inst: Instance, cols: list[int], cj: int, delta: float):
    """Client ``cj``'s per-ball budget g(R): w * (R - r/(1-delta))^+ summed
    over the C' columns ``cols`` within delta*R of it. Returns g with the
    distances, kinks and weights it sums over."""
    dists = inst.dist_cc[cj, cols]
    kinks = inst.r[cols] / (1.0 - delta)
    weights = inst.w[cols]

    def g(R: float) -> float:
        active = dists <= delta * R
        return float(np.sum(weights[active] * np.maximum(R - kinks[active], 0.0)))

    return g, dists, kinks, weights


def compute_Rj(ext: ExtendedInstance, client: str) -> float:
    """Largest radius whose pruning ball stays within the per-ball budget.

    The budget function R -> sum over close-by clients of weight * (R -
    discount/(1-delta))^+ is piecewise linear and nondecreasing with
    breakpoints at distance/delta and discount/(1-delta); the largest radius
    with value at most rho*EST is found on the critical segment. When a jump
    lands exactly on the budget the supremum is open and the largest float
    below it is returned, which keeps the budget property intact.
    """
    inst = ext.base
    g, dists, kinks, weights = _ball_budget(inst, ext.cols, inst.cli_pos[client], ext.delta)
    budget = ext.rho * ext.est
    cap = float(inst.metric.dist.max()) / ext.delta + ext.rho * ext.est + 1.0
    if g(cap) <= budget + 1e-12:
        return cap  # budget never binds at any relevant radius

    points = sorted({0.0} | {float(v) for v in dists / ext.delta} | {float(v) for v in kinks})
    points = [p for p in points if 0.0 <= p <= cap] + [cap]
    prev = 0.0
    g_prev = g(0.0)
    for p in points:
        if p <= prev:
            continue
        g_p = g(p)
        if g_p > budget + 1e-15:
            active = (dists <= ext.delta * prev) & (kinks <= prev + 1e-15)
            slope = float(weights[active].sum())
            if slope > 1e-15:
                r_star = prev + (budget - g_prev) / slope
                if r_star < p - 1e-15:
                    return max(0.0, r_star)
            return math.nextafter(p, -math.inf)  # jump exactly at the boundary
        prev, g_prev = p, g_p
    return cap


def _removal_ball_sets(inst: Instance, delta: float) -> list[frozenset[str]]:
    """Distinct client sets removable by one closed ball (center, radius)."""
    sites = list(inst.facilities) + list(inst.clients)
    d_site_cli = inst.metric.submatrix(sites, inst.clients)
    d_site_fac = inst.metric.submatrix(sites, inst.facilities)
    out: set[frozenset[str]] = set()
    for p in range(len(sites)):
        for fi in range(len(inst.facilities)):
            radius = delta * d_site_fac[p, fi]
            removed = frozenset(
                inst.clients[cj]
                for cj in range(len(inst.clients))
                if d_site_cli[p, cj] <= radius + 1e-12
            )
            if removed:
                out.add(removed)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def sparsify_structures(
    inst: Instance,
    rho: float,
    delta: float,
    caps: tuple[int, int] | None = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All (F0, C') pairs reachable with the given enumeration caps.

    F0 ranges over facility subsets of size at most cap1+cap2; C' is the
    client set minus any union of at most cap2 single-ball removals. The pair
    list is EST-independent, so callers reuse it across the estimate grid.
    """
    cap1, cap2 = caps if caps is not None else theoretical_caps(rho, delta)
    balls = _removal_ball_sets(inst, delta)
    unions: set[frozenset[str]] = {frozenset()}
    frontier: set[frozenset[str]] = {frozenset()}
    for _ in range(cap2):
        nxt: set[frozenset[str]] = set()
        for u in frontier:
            for ball in balls:
                merged = u | ball
                if merged not in unions:
                    unions.add(merged)
                    nxt.add(merged)
        if not nxt:
            break
        frontier = nxt
    f0_count = sum(
        math.comb(len(inst.facilities), s)
        for s in range(0, min(cap1 + cap2, len(inst.facilities)) + 1)
    )
    projected = f0_count * len(unions)
    if projected > max_candidates:
        raise SparsifyGuard(
            f"projected {projected} extended instances exceed the cap {max_candidates}"
        )
    all_clients = set(inst.clients)
    cprimes = sorted(
        {tuple(sorted(all_clients - u)) for u in unions}, key=lambda t: (len(t), t)
    )
    f0s: list[tuple[str, ...]] = []
    for s in range(0, min(cap1 + cap2, len(inst.facilities)) + 1):
        f0s.extend(itertools.combinations(inst.facilities, s))
    return [(f0, cp) for f0 in f0s for cp in cprimes if f0 or cp]


@dataclass
class KnapCandidate:
    extended: ExtendedInstance
    solution: tuple[str, ...]
    true_discounted_cost: float  # over all clients, at the alpha'' multiplier
    fractional_residual: int
    lp_objective: float
    certificates: list[Certificate] = field(default_factory=list)
    # set by solve_knapmeddis: the cost is within the EST bound of one of the
    # task's estimates; diagnostic only, guaranteed for the witness EST alone
    meets_own_est_bound: bool = False
    # the task was settled by the chain's carried vertex, with no LP solve
    reused: bool = False
    # the vertex and its rounding, carried to the chain's next task
    rounding: _Rounding | None = field(default=None, repr=False, compare=False)


@dataclass
class _Rounding:
    """The EST-free half of a task: its decoded LP vertex, the rounded set of
    that vertex's star-balanced split at ``tau``, and what the EST checks read
    of that split."""

    x: np.ndarray
    y: np.ndarray
    tau: float
    solution: tuple[str, ...]
    t: int
    total_w: float
    cost: float  # at the alpha'' multiplier
    worst_star: float  # the largest star cost of a copy away from F0, 0 if none
    worst_fac: str  # the facility of that copy
    closed_fac: str | None  # the closed copy's facility, if the copy lies away from F0
    rerouted: tuple[str, ...]  # C' clients whose final inner ball held that copy


def _resolve_fractional(
    y: np.ndarray, bs, weights: dict[str, float], state
) -> tuple[np.ndarray, int, int | None]:
    """Round the at most two fractional coordinates; returns (y*, t, closed copy).

    Of two fractional copies the lighter one (by facility ``weights``) opens.
    """
    frac = fractional_copies(y)
    t = len(frac)
    if t > 2:
        raise RoundingError(
            f"{t} fractional coordinates violate the basis counting bound\n" + state.dump()
        )
    y_star = np.rint(np.clip(y, 0.0, 1.0))
    closed: int | None = None
    if t == 1:
        closed = frac[0]
        y_star[closed] = 0.0
    elif t == 2:
        a, b = frac
        if abs(y[a] + y[b] - 1.0) > 1e-6:
            raise RoundingError(
                f"two fractional coordinates with mass {y[a] + y[b]} != 1\n" + state.dump()
            )
        wa, wb = float(weights[bs.orig[a]]), float(weights[bs.orig[b]])
        opened, closed = (a, b) if (wa, a) <= (wb, b) else (b, a)
        y_star[opened] = 1.0
        y_star[closed] = 0.0
    return y_star, t, closed


def solve_extended(
    ext: ExtendedInstance, tau: float, carry: KnapCandidate | None = None
) -> KnapCandidate | None:
    """Run the strengthened pipeline on one extended instance.

    Returns None when the relaxation is infeasible (the instance is then not
    the sparse one). Raises InstanceError if a copy away from F0 has star
    cost above 2*rho*EST, before any rounding. Raises RoundingError, naming
    the task's F0 and EST, if more than two coordinates stay fractional,
    which the basis structure rules out, or if the rounded set breaks the
    pre-selection or the budget. Only the LP, the star-cost cap and the
    certificates read EST; the split and the rounding do not.

    ``carry`` is the candidate of a task of the same (F0, C') pair and tau
    at an EST no lower, typically the chain's previous one. That task's LP
    relaxes this one with the same objective, so its vertex, when feasible
    here (``_carry_fits``), is an optimal vertex here too: the task then
    reuses its rounding, redoes only the star-cap check and the
    certificates, and builds and solves no LP. Otherwise, and without a
    carry, the LP is built, solved and rounded.
    """
    inst = ext.base
    con = inst.constraint
    assert isinstance(con, Knapsack)
    if sum(con.weights[f] for f in ext.f0) > con.budget + 1e-9:
        return None
    if not ext.f0 and not ext.cprime:
        return None
    reused = carry is not None and _carry_fits(ext, tau, carry)
    if reused:
        rnd, U = carry.rounding, carry.lp_objective
        _check_star_cap(ext, rnd.worst_star, rnd.worst_fac)
    else:
        try:
            frac_sol = solve_natural(inst, extended=ext)
        except InfeasibleLP:
            return None
        rnd = _round_vertex(frac_sol, ext, tau)
        if rnd is None:
            return None
        U = frac_sol.objective_value

    certs = [
        Certificate("fractional_residual", float(rnd.t), 2.0, rnd.t <= 2),
        Certificate.leq("solution_weight_le_budget", rnd.total_w, con.budget, tol=1e-7),
    ]
    if ext.cprime:
        certs.append(Certificate.leq("star_cost_le_2rhoEST", rnd.worst_star, ext.star_cap))
    if rnd.closed_fac is not None:
        # a closed copy co-located with a pre-selected facility reroutes at
        # distance zero; the star-cost cap (and hence these sums) only covers
        # copies away from the pre-selected set
        certs.extend(_reroute_certificates(ext, rnd, tau))

    return KnapCandidate(
        extended=ext,
        solution=rnd.solution,
        true_discounted_cost=rnd.cost,
        fractional_residual=rnd.t,
        lp_objective=U,
        certificates=certs,
        reused=reused,
        rounding=rnd,
    )


def _carry_fits(ext: ExtendedInstance, tau: float, carry: KnapCandidate) -> bool:
    """Whether ``carry``'s vertex is an optimal vertex of ``ext``'s LP.

    The carry must come from the same (F0, C') pair, rho, delta and tau at an
    EST no lower. Of the rows its vertex then meets already, only those that
    read EST can fail, and they are checked with the tests and tolerances of
    ``build_natural_lp`` and lpcore's audit: every support pair is within its
    client's radius cap and, away from F0, under the rho*EST pair cap, and
    every star row away from F0 holds within FEAS_TOL.
    """
    prev, rnd = carry.extended, carry.rounding
    if not (
        prev.base is ext.base
        and (prev.f0, prev.cprime, prev.rho, prev.delta) == (ext.f0, ext.cprime, ext.rho, ext.delta)
        and prev.est >= ext.est
        and rnd.tau == tau
    ):
        return False
    inst = ext.base
    rho_est = ext.rho * ext.est
    f0_pos = {inst.fac_pos[f] for f in ext.f0}
    for fi, cj in zip(*rnd.x.nonzero()):
        if inst.dist_fc[fi, cj] > ext.radius_cap(inst.clients[cj]):
            return False
        if fi not in f0_pos and inst.contrib[fi, cj] > rho_est + 1e-12:
            return False
    star = (inst.contrib * rnd.x).sum(axis=1) - rho_est * rnd.y
    return all(s <= FEAS_TOL for fi, s in enumerate(star.tolist()) if fi not in f0_pos)


def _check_star_cap(ext: ExtendedInstance, worst_star: float, worst_fac: str):
    """Raise InstanceError if the worst far copy's star cost exceeds 2*rho*EST."""
    if worst_star > ext.star_cap + 1e-6:
        raise InstanceError(
            f"copy of {worst_fac} has star cost {worst_star:.6g} above the 2*rho*EST cap"
        )


def _round_vertex(frac_sol, ext: ExtendedInstance, tau: float) -> _Rounding | None:
    """Split the vertex, check the star cap, then round; None if nothing opens."""
    inst = ext.base
    con = inst.constraint
    bs = duplicate_star_balanced(frac_sol, inst, ext)
    far = ~ext.near_f0[[inst.fac_pos[f] for f in bs.orig]]
    stars = np.where(far, bs.star, 0.0)
    worst = int(np.argmax(stars))
    worst_star, worst_fac = float(stars[worst]), bs.orig[worst]
    _check_star_cap(ext, worst_star, worst_fac)
    c_arr, r_arr, m_arr = offset_support(bs, inst, ext.cols)
    b, _ = choose_offset(c_arr, r_arr, m_arr, tau)
    dm = DiscretizedMetric(tau, b)
    virtuals = [
        VirtualClient(vid=f"~{f}", copies=frozenset(bs.copies_of(f))) for f in ext.f0
    ]
    try:
        y_raw, state = iter_round(bs, inst, dm, h=1, cols=ext.cols, virtuals=virtuals)
        y_star, t, closed = _resolve_fractional(y_raw, bs, con.weights, state)
        solution = bs.open_set(y_star)
        if not solution:
            return None
        if not set(ext.f0) <= set(solution):
            raise RoundingError(f"pre-selected facilities lost from {solution}")
        total_w = sum(con.weights[f] for f in solution)
        if total_w > con.budget + 1e-7:
            raise RoundingError(f"solution weight {total_w} exceeds the budget {con.budget}")
    except RoundingError as exc:
        raise RoundingError(f"knapsack task F0={list(ext.f0)} EST={ext.est!r}: {exc}") from exc
    cost = discounted_cost(inst, solution, knapsack_alpha(tau, ext.delta))
    closed_fac, rerouted = None, ()
    if closed is not None and far[closed]:
        closed_fac = bs.orig[closed]
        rerouted = tuple(j for j in ext.cprime if closed in state.B.get(j, ()))
    return _Rounding(
        frac_sol.x, frac_sol.y, tau, solution, t, total_w, cost, worst_star, worst_fac,
        closed_fac, rerouted,
    )


def _reroute_certificates(ext: ExtendedInstance, rnd: _Rounding, tau: float) -> list[Certificate]:
    """Rerouting audit for clients whose final inner ball held the closed copy."""
    inst = ext.base
    sigma = knapsack_sigma(tau)
    gamma = ext.delta / (2.0 * sigma + ext.delta)
    eta = sigma + ext.delta
    closed_orig, solution = rnd.closed_fac, rnd.solution
    d = min(inst.metric.d(closed_orig, f) for f in solution)
    out: list[Certificate] = []
    j1_sum = 0.0
    j2_sum = 0.0
    members_1 = members_2 = 0
    for j in rnd.rerouted:
        cj = inst.cli_pos[j]
        c_to_closed = inst.metric.d(j, closed_orig)
        c_to_open = min(inst.metric.d(j, f) for f in solution)
        wj, rj = inst.w[cj], inst.r[cj]
        if c_to_closed >= gamma * d - 1e-12:
            members_1 += 1
            out.append(
                Certificate.leq(
                    f"reroute_J1[{j}]", c_to_open, (1.0 + 1.0 / gamma) * c_to_closed
                )
            )
            j1_sum += wj * max(c_to_open - (1.0 + 1.0 / gamma) * rj, 0.0)
        else:
            members_2 += 1
            out.append(
                Certificate.leq(f"reroute_J2[{j}]", c_to_open, eta * ext.radius_cap(j))
            )
            j2_sum += wj * max(c_to_open - eta / (1.0 - ext.delta) * rj, 0.0)
    if members_1:
        out.append(
            Certificate.leq(
                "reroute_J1_total",
                j1_sum,
                (1.0 + gamma) / gamma * 2.0 * ext.rho * ext.est,
            )
        )
    if members_2:
        out.append(
            Certificate.leq("reroute_J2_total", j2_sum, eta * ext.rho * ext.est)
        )
    return out


def _upper_bound_cost(inst: Instance) -> float:
    """Cost of the cheapest feasible singleton: a sound cap on the optimum."""
    con = inst.constraint
    assert isinstance(con, Knapsack)
    best = math.inf
    for f in inst.facilities:
        if con.weights[f] <= con.budget + 1e-12:
            best = min(best, discounted_cost(inst, [f], 1.0))
    if not math.isfinite(best):
        raise InstanceError("knapsack admits no feasible singleton")
    return best


def _saturation_threshold(inst: Instance, cols: list[int], delta: float) -> float:
    """Smallest rho*EST at which the strengthened rows all go vacuous.

    Above it, no pair is capped out, every star row is implied by the
    coupling rows, and each radius cap clears the farthest facility, so the
    relaxation no longer depends on EST and one solve covers the whole upper
    tail of the estimate grid (per surviving-client set, whose sorted
    positions are ``cols``, and F0).
    """
    if not cols:
        return 0.0
    contrib = inst.contrib[:, cols]
    thr = max(float(contrib.max(initial=0.0)), float(contrib.sum(axis=1).max(initial=0.0)))
    for col in cols:
        g = _ball_budget(inst, cols, col, delta)[0]
        thr = max(thr, g(float(inst.dist_fc[:, col].max())))
    return thr


def _task_table(
    inst: Instance,
    rho: float,
    delta: float,
    epsilon: float,
    caps: tuple[int, int],
    max_candidates: int,
) -> list[list[ExtendedInstance]]:
    """The extended-instance tasks of a normalized knapsack instance, in chains.

    Each chain holds the tasks of one (F0, C') pair in descending EST. A
    task's ``index`` is its position in the table, whose order breaks ties
    among equal-cost candidates; its ``ests`` are the grid estimates it
    stands for.
    """
    ub = _upper_bound_cost(inst)
    kept_ests = dict.fromkeys(  # distinct, in first-seen order
        est
        for c0, est in enumerate_estimates(inst, epsilon, max_candidates)
        if c0 <= ub + 1e-9 and est <= (1.0 + epsilon) * ub + 1e-9
    )
    structures = sparsify_structures(inst, rho, delta, caps, max_candidates)

    # one task per (F0, C', EST) class: above the saturation threshold the LP
    # is EST-independent, so all saturated estimates share one task (key
    # None) solved at the lowest of them; insertion order is the task order
    thresholds = {
        cp: _saturation_threshold(inst, _positions(inst, cp), delta)
        for cp in {cp for _, cp in structures}
    }
    table: dict[tuple, list[float]] = {}
    for est in kept_ests:
        for f0, cprime in structures:
            saturated = rho * est >= thresholds[cprime] - 1e-12
            table.setdefault((f0, cprime, None if saturated else est), []).append(est)
    rj_caches: dict[tuple, dict[str, float]] = {}
    chains: dict[tuple, list[ExtendedInstance]] = {}
    for k, ((f0, cprime, _), ests) in enumerate(table.items()):
        est = min(ests)
        rj = rj_caches.setdefault((cprime, est), {})
        ext = ExtendedInstance(inst, f0, cprime, rho, delta, est, rj, index=k, ests=tuple(ests))
        chains.setdefault((f0, cprime), []).append(ext)
    return [sorted(c, key=lambda ext: ext.est, reverse=True) for c in chains.values()]


def _solve_chain(chain: list[ExtendedInstance], tau: float) -> list[KnapCandidate | None]:
    """Solve one (F0, C') chain in descending EST, up to its first None.

    For a fixed (F0, C') the strengthened relaxation only loosens as EST
    grows: the radius caps, the single-pair cap at rho*EST and the -rho*EST
    term of each star row all relax. So once a task's relaxation is
    infeasible, so is every lower estimate's. The other causes of None, an
    over-budget F0 and an empty task, do not depend on EST at all; the last,
    an empty rounded set, arose in no solve measured. Each task is passed
    the previous one's candidate as its carry, and a carried vertex that
    still fits settles the task with no LP solve.
    """
    out: list[KnapCandidate | None] = []
    for ext in chain:
        out.append(solve_extended(ext, tau, out[-1] if out else None))
        if out[-1] is None:
            break
    return out


def solve_knapmeddis(
    inst: Instance,
    tau: float = 1.9,
    rho: float = 1.0 / 3.0,
    delta: float = 2.0 / 3.0,
    epsilon: float = 0.1,
    caps: tuple[int | None, int | None] | None = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    jobs: int = 1,
) -> SolveReport:
    """Full knapsack pipeline; returns the best candidate's report.

    Candidates are the product of the estimate grid and the (F0, C')
    enumeration; estimate pairs provably above a feasible solution's cost are
    skipped, which cannot exclude the certified witness pair. Each (F0, C')
    chain is solved from its largest estimate down and stops at its first
    infeasible task; ``extras["skipped"]`` counts the tasks it settled
    without a solve. A task whose LP still admits the chain's carried
    vertex, the last feasible task's, reuses that task's split and rounding
    with no LP solve; ``extras["reused"]`` counts those tasks, all of them
    feasible. A missing entry of ``caps`` takes its theoretical value. The
    chains are spread over ``jobs`` worker processes, never more than there
    are chains; with one, they run here.
    """
    if not isinstance(inst.constraint, Knapsack):
        raise InstanceError("solve_knapmeddis needs a knapsack constraint")
    check_tau(tau)
    check_arg(rho, "rho", lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
    check_arg(delta, "delta", lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
    check_arg(epsilon, "epsilon", lambda e: 0.0 < e < math.inf, "be finite and positive")
    check_arg(max_candidates, "max_candidates", lambda c: c >= 0, "be non-negative", count=True)
    check_arg(jobs, "jobs", lambda j: j >= 1, "be at least 1", count=True)
    if caps is not None and not (isinstance(caps, (tuple, list)) and len(caps) == 2):
        raise InstanceError(f"caps must be a pair (cap1, cap2), got {caps!r}")
    for k, cap in enumerate(caps or (), start=1):
        if cap is None:
            continue
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral):
            raise InstanceError(f"caps must be ints or None: cap{k} = {cap!r}")
        if cap < 0:
            raise InstanceError(f"caps must be nonnegative: cap{k} = {cap}")
    original = inst
    inst = checked(inst)

    theo1, theo2 = theoretical_caps(rho, delta)
    cap1, cap2 = caps or (None, None)
    cap1, cap2 = theo1 if cap1 is None else cap1, theo2 if cap2 is None else cap2
    chains = _task_table(inst, rho, delta, epsilon, (cap1, cap2), max_candidates)
    n_tasks = sum(map(len, chains))

    workers = min(jobs, len(chains))  # a fork pool starts all its workers at the first task
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_solve_chain, chains, itertools.repeat(tau), chunksize=4))
    else:
        solved = [_solve_chain(chain, tau) for chain in chains]
    skipped = n_tasks - sum(map(len, solved))

    coef = knapsack_est_coefficient(tau, rho, delta)
    candidates = sorted(
        (cand for results in solved for cand in results if cand is not None),
        key=lambda cand: cand.extended.index,
    )
    for cand in candidates:
        cand.meets_own_est_bound = any(
            cand.true_discounted_cost <= coef * e + 1e-6 * max(1.0, coef * e)
            for e in cand.extended.ests
        )
    if not candidates:
        raise RoundingError(
            f"knapsack selection: none of the {n_tasks} extended instances "
            "produced a candidate"
        )
    best = min(candidates, key=lambda c: (c.true_discounted_cost, c.solution))

    alpha = knapsack_alpha(tau, delta)
    certs = list(best.certificates)
    witnessed = any(c.meets_own_est_bound for c in candidates)
    certs.append(
        Certificate("exists_candidate_within_est_bound", 0.0 if witnessed else 1.0, 0.0, witnessed)
    )
    below_theoretical = cap1 < theo1 or cap2 < theo2

    summaries = [
        {
            "f0": list(c.extended.f0),
            "removed": len(inst.clients) - len(c.extended.cprime),
            "est": c.extended.est,
            "cost": c.true_discounted_cost,
            "t": c.fractional_residual,
            "lpObjective": c.lp_objective,
            "withinEstBound": c.meets_own_est_bound,
        }
        for c in candidates
    ]
    return SolveReport(
        tau=tau,
        b=None,
        h=1,
        solution=best.solution,
        objective=discounted_cost(original, best.solution, alpha),
        alpha=alpha,
        beta=coef * (1.0 + epsilon),
        iterations=[],
        final_levels={},
        certificates=certs,
        lp_optimum=best.lp_objective / inst.scale * original.scale,
        initial_aux=None,
        extras={
            "rho": rho,
            "delta": delta,
            "epsilon": epsilon,
            "caps": [cap1, cap2],
            "capsBelowTheoretical": below_theoretical,
            "estCoefficient": coef,
            "bestEst": best.extended.est,
            "bestF0": list(best.extended.f0),
            "candidates": summaries,
            "scale": inst.scale,
            "evaluated": n_tasks,
            "feasible": len(candidates),
            "skipped": skipped,
            "reused": sum(c.reused for c in candidates),
        },
    )


def solve(inst: Instance, tau: float | None = None, **opts) -> SolveReport:
    """Solve ``inst`` with the solver of its constraint family.

    ``tau`` and ``opts`` go to ``solve_kmeddis``, ``solve_matmeddis`` or
    ``solve_knapmeddis`` unchanged; each solver's signature holds its
    defaults. An option the chosen solver does not take raises OptionError.
    """
    con = inst.constraint
    if isinstance(con, Cardinality):
        solver = solve_kmeddis
    elif isinstance(con, Matroid):
        solver = solve_matmeddis
    elif isinstance(con, Knapsack):
        solver = solve_knapmeddis
    else:
        raise InstanceError(f"unknown constraint family {type(con).__name__}")
    stray = sorted(set(opts) - set(inspect.signature(solver).parameters)) if opts else []
    if stray:
        raise OptionError(type(con).__name__.lower(), stray)
    if tau is not None:
        opts["tau"] = tau
    return solver(inst, **opts)
