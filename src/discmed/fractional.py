"""Natural relaxations and fractional-solution post-processing.

Builds the assignment LPs for all three constraint families, repairs
solutions to be distance-optimal, and splits facilities into co-located
copies so that every client's outer ball carries exactly unit opening mass.
The knapsack pipeline uses a star-cost-balanced variant of the splitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instance import (
    Cardinality,
    ExplicitMatroid,
    Instance,
    InstanceError,
    Knapsack,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
)
from .lpcore import BasicOptimal, LinearProgram, solve

SUPPORT_TOL = 1e-9


@dataclass
class FractionalSolution:
    """Assignment fractions x (facility x client) and opening fractions y."""

    x: np.ndarray
    y: np.ndarray
    objective_value: float


@dataclass
class NaturalLP:
    lp: LinearProgram  # variable fi is the opening of facility position fi
    # (facility pos, client pos) -> variable; pairs capped out have none
    x_index: dict[tuple[int, int], int]


def matroid_polytope_rows(spec, fac_ids, copies_of) -> list[tuple[dict, str, float]]:
    """Rank constraints over a (possibly duplicated) facility universe.

    ``copies_of`` maps each original facility id to the variable indices of
    its co-located copies. Together with per-copy [0,1] bounds these rows
    describe the exact polytope of the parallel-extension matroid: singleton
    rows cover every independent subset, so only dependent subsets need rows.
    """
    rows: list[tuple[dict, str, float]] = []
    if isinstance(spec, (UniformMatroid, PartitionMatroid)):
        for f in fac_ids:
            if len(copies_of[f]) > 1:
                rows.append(({v: 1.0 for v in copies_of[f]}, "<=", 1.0))
        if isinstance(spec, UniformMatroid):  # one part holding every facility
            parts = [(fac_ids, spec.rank_bound)]
        else:
            parts = zip(spec.parts, spec.caps)
        for part, cap in parts:
            coeffs = {v: 1.0 for f in part for v in copies_of[f]}
            if coeffs:
                rows.append((coeffs, "<=", float(cap)))
        return rows
    if isinstance(spec, ExplicitMatroid):
        n = len(spec.elements)
        for f in fac_ids:
            rank1 = spec.rank([f])
            if len(copies_of[f]) > 1 or rank1 == 0:
                rows.append(({v: 1.0 for v in copies_of[f]}, "<=", float(rank1)))
        table = spec.rank_table
        sizes = np.array([m.bit_count() for m in range(1 << n)])
        for mask in np.nonzero(table < sizes)[0]:
            members = [spec.elements[k] for k in range(n) if mask >> k & 1]
            if len(members) < 2:
                continue  # singleton loops already handled above
            coeffs = {v: 1.0 for f in members for v in copies_of[f]}
            rows.append((coeffs, "<=", float(table[mask])))
        return rows
    raise InstanceError(f"unknown matroid spec {type(spec).__name__}")


def family_rows(inst: Instance, orig) -> list[tuple[dict, str, float]]:
    """Rows of the constraint family over opening variables 0..len(orig)-1.

    ``orig[v]`` is the facility id of opening variable ``v``; co-located
    copies of one facility share its id and its knapsack weight.
    """
    con = inst.constraint
    if isinstance(con, Cardinality):
        return [({v: 1.0 for v in range(len(orig))}, "<=", float(con.k))]
    if isinstance(con, Matroid):
        copies_of: dict[str, list[int]] = {f: [] for f in inst.facilities}
        for v, f in enumerate(orig):
            copies_of[f].append(v)
        return matroid_polytope_rows(con.spec, inst.facilities, copies_of)
    if isinstance(con, Knapsack):
        return [({v: float(con.weights[f]) for v, f in enumerate(orig)}, "<=", float(con.budget))]
    raise InstanceError(f"unknown constraint family {type(con).__name__}")


def build_natural_lp(inst: Instance, extended=None) -> NaturalLP:
    """LP-k / matroid / knapsack relaxation; with ``extended`` the knapsack
    pre-selection, distance-cap, contribution-cap and star-cap rows are added
    and capped-out x variables are eliminated rather than merely bounded."""
    nf = len(inst.facilities)
    contrib = inst.contrib
    if extended is None:
        cols = list(range(len(inst.clients)))
        f0_pos: set[int] = set()
    else:
        cols = extended.cols
        f0_pos = {inst.fac_pos[f] for f in extended.f0}
        rho_est = extended.rho * extended.est

    x_index: dict[tuple[int, int], int] = {}
    for cj in cols:
        kept = range(nf)
        if extended is not None:
            rj_cap = extended.radius_cap(inst.clients[cj])
            kept = [
                fi
                for fi in kept
                if inst.dist_fc[fi, cj] <= rj_cap  # within the per-client radius
                and (fi in f0_pos or contrib[fi, cj] <= rho_est + 1e-12)  # pair under the cap
            ]
        for fi in kept:
            x_index[(fi, cj)] = nf + len(x_index)

    n_vars = nf + len(x_index)
    objective = np.zeros(n_vars)
    lo = np.zeros(n_vars)
    hi = np.ones(n_vars)
    for (fi, cj), v in x_index.items():
        objective[v] = contrib[fi, cj]
    if extended is not None:
        for fi in f0_pos:
            lo[fi] = 1.0  # pre-selected facilities stay fully open

    lp = LinearProgram(n_vars, objective=objective, lo=lo, hi=hi)
    for cj in cols:
        coeffs = {x_index[(fi, cj)]: 1.0 for fi in range(nf) if (fi, cj) in x_index}
        lp.add_row(coeffs, "=", 1.0)
    for coeffs, rel, rhs in family_rows(inst, inst.facilities):
        lp.add_row(coeffs, rel, rhs)
    for (fi, cj), v in x_index.items():
        lp.add_row({v: 1.0, fi: -1.0}, "<=", 0.0)
    if extended is not None:
        for fi in range(nf):
            if fi in f0_pos:
                continue
            coeffs = {
                x_index[(fi, cj)]: contrib[fi, cj]
                for cj in cols
                if (fi, cj) in x_index and contrib[fi, cj] > 0
            }
            coeffs[fi] = coeffs.get(fi, 0.0) - rho_est
            lp.add_row(coeffs, "<=", 0.0)  # per-facility star-cost cap
    return NaturalLP(lp, x_index)


def decode(nat: NaturalLP, inst: Instance, res: BasicOptimal) -> FractionalSolution:
    nf, nc = len(inst.facilities), len(inst.clients)
    x = np.zeros((nf, nc))
    y = res.values[:nf].copy()
    for (fi, cj), v in nat.x_index.items():
        x[fi, cj] = res.values[v]
    x[np.abs(x) < SUPPORT_TOL] = 0.0
    y[np.abs(y) < SUPPORT_TOL] = 0.0
    np.clip(x, 0.0, 1.0, out=x)
    np.clip(y, 0.0, 1.0, out=y)
    return FractionalSolution(x=x, y=y, objective_value=res.objective_value)


def greedy_open_set(inst: Instance) -> list[int]:
    """Facility positions picked greedily for the connection cost.

    Each step adds the facility that lowers sum_j min_{i in S} contrib[i, j]
    the most (the first by position on a tie) among those whose addition
    keeps every row of ``family_rows`` satisfied, and the greedy stops when
    no such addition lowers the cost (Jain, Mahdian and Saberi, STOC 2002).
    Empty when not even one facility fits.
    """
    family = LinearProgram(len(inst.facilities))
    for row in family_rows(inst, inst.facilities):
        family.add_row(*row)
    R = family.matrix()
    rhs = np.array(family.row_rhs)
    load = np.zeros(family.n_rows)
    nearest = np.full(len(inst.clients), np.inf)
    cost = np.inf
    chosen: list[int] = []
    while True:
        totals = np.minimum(nearest, inst.contrib).sum(axis=1)
        totals[chosen] = np.inf
        totals[((load[:, None] + R) > rhs[:, None]).any(axis=0)] = np.inf
        best = int(totals.argmin())
        if totals[best] >= cost:
            return chosen
        chosen.append(best)
        cost = totals[best]
        load += R[:, best]
        nearest = np.minimum(nearest, inst.contrib[best])


def greedy_start(nat: NaturalLP, inst: Instance):
    """A ``start`` point for ``solve`` at the integral vertex of
    ``greedy_open_set``, or None when that set is empty.

    The open facilities' y and each client's assignment to its nearest open
    facility (the first by position on a tie) are 1, every other variable 0.
    """
    opened = sorted(greedy_open_set(inst))
    if not opened:
        return None
    nearest = np.array(opened)[inst.dist_fc[opened].argmin(axis=0)].tolist()
    x0 = np.zeros(nat.lp.n_vars)
    x0[opened] = 1.0
    x0[[nat.x_index[(fi, cj)] for cj, fi in enumerate(nearest)]] = 1.0
    return x0


def solve_natural(inst: Instance, extended=None) -> FractionalSolution:
    """Optimal vertex of the natural LP, decoded.

    The plain LP starts from ``greedy_start``, so phase 1 is skipped; the
    strengthened (``extended``) LP is solved cold.
    """
    nat = build_natural_lp(inst, extended)
    start = greedy_start(nat, inst) if extended is None else None
    return decode(nat, inst, solve(nat.lp, start))


def make_distance_optimal(sol: FractionalSolution, inst: Instance) -> FractionalSolution:
    """Water-fill each client's unit of assignment onto nearest facilities.

    Ties are broken by facility id, so any facility strictly closer than a
    used one is filled to its full opening. The objective never increases and
    y is untouched.
    """
    nf, nc = sol.x.shape
    order_key = sorted(range(nf), key=lambda fi: inst.facilities[fi])
    x = np.zeros_like(sol.x)
    for cj in range(nc):
        if sol.x[:, cj].sum() <= SUPPORT_TOL:
            continue  # client not covered by this solution (knapsack prunes)
        order = sorted(order_key, key=lambda fi: inst.dist_fc[fi, cj])
        remaining = 1.0
        for fi in order:
            if remaining <= 1e-15:
                break
            take = min(float(sol.y[fi]), remaining)
            x[fi, cj] = take
            remaining -= take
        if remaining > 1e-7:
            raise InstanceError("water-filling ran out of opening mass")
    return FractionalSolution(x=x, y=sol.y.copy(), objective_value=float((inst.contrib * x).sum()))


@dataclass
class BallSystem:
    """Duplicated facility universe plus per-client outer balls.

    Copies are indexed densely; ``orig[c]`` is the original facility id of
    copy c, whose distances (and knapsack weight) it inherits. ``F[cj]`` is the
    outer ball (copy indices) of the client in column ``inst.clients[cj]``.
    """

    orig: list[str]
    y: np.ndarray
    dist: np.ndarray  # (n_copies, n_clients)
    F: list[set[int]]
    star: np.ndarray | None = None  # per-copy star costs, set by duplicate_star_balanced

    @property
    def n_copies(self) -> int:
        return len(self.orig)

    @cached_property
    def _copies(self) -> dict[str, list[int]]:
        """Facility id -> its copies in index order, built on first use."""
        out: dict[str, list[int]] = {}
        for c, f in enumerate(self.orig):
            out.setdefault(f, []).append(c)
        return out

    def copies_of(self, facility: str) -> list[int]:
        return list(self._copies.get(facility, ()))

    def ball_mass(self, cj: int) -> float:
        return float(sum(self.y[c] for c in self.F[cj]))

    def open_set(self, y_star: np.ndarray, tol: float = 1e-7) -> tuple[str, ...]:
        """Original ids of opened copies, co-located duplicates collapsed."""
        return tuple(sorted({self.orig[c] for c in np.nonzero(y_star > 1.0 - tol)[0]}))


def _normalized_columns(x: np.ndarray, cols: list[int]) -> np.ndarray:
    out = x.copy()
    for cj in cols:
        s = out[:, cj].sum()
        if s > SUPPORT_TOL:
            out[:, cj] /= s
    return out


def _ball_system(
    inst: Instance, copies: list[tuple[int, float, set[int]]], cols: list[int]
) -> BallSystem:
    """Ball system of ``copies`` in order: each is (facility position, mass,
    client positions whose outer ball holds the copy). Every outer ball of
    ``cols`` must carry unit mass."""
    F: list[set[int]] = [set() for _ in inst.clients]
    for c, (_, _, clients) in enumerate(copies):
        for cj in clients:
            F[cj].add(c)
    rows = [fi for fi, _, _ in copies]
    bs = BallSystem(
        orig=[inst.facilities[fi] for fi in rows],
        y=np.array([mass for _, mass, _ in copies]),
        dist=inst.dist_fc[rows, :],
        F=F,
    )
    for cj in cols:
        if abs(bs.ball_mass(cj) - 1.0) > 1e-9:
            raise InstanceError(f"outer ball of {inst.clients[cj]} has mass {bs.ball_mass(cj)}")
    return bs


def duplicate_facilities(sol: FractionalSolution, inst: Instance) -> BallSystem:
    """Split facilities so every positive assignment uses a copy fully.

    After splitting, x restricted to any client is 0 or the copy's full
    opening, outer balls carry unit mass, and per-original mass is preserved.
    """
    nf, nc = sol.x.shape
    cols = [cj for cj in range(nc) if sol.x[:, cj].sum() > SUPPORT_TOL]
    x = _normalized_columns(sol.x, cols)
    copies: list[tuple[int, float, set[int]]] = []
    for fi in range(nf):
        yi = float(sol.y[fi])
        levels = sorted({float(v) for v in x[fi, :] if v > SUPPORT_TOL})
        cuts: list[float] = []
        for v in levels:
            if not cuts or v - cuts[-1] > 1e-12:
                cuts.append(v)
        if not cuts or yi - cuts[-1] > 1e-12:
            cuts.append(max(yi, cuts[-1] if cuts else 0.0))
        # each served client's nearest cut: it uses every copy up to that one
        top = {
            cj: min(range(len(cuts)), key=lambda k: abs(cuts[k] - x[fi, cj]))
            for cj in range(nc)
            if x[fi, cj] > SUPPORT_TOL
        }
        prev = 0.0
        for k, v in enumerate(cuts):
            copies.append((fi, v - prev, {cj for cj, t in top.items() if t >= k}))
            prev = v
    return _ball_system(inst, copies, cols)


def duplicate_star_balanced(sol: FractionalSolution, inst: Instance, extended) -> BallSystem:
    """Facility splitting that also balances per-copy star costs.

    Copies are selected for each assignment in nondecreasing order of their
    current star cost, so every copy not co-located with a pre-selected
    facility ends with star cost at most twice the per-facility cap; the
    split reads no EST, and the caller checks that cap against ``bs.star``.
    """
    cprime_cols = extended.cols
    x = _normalized_columns(sol.x, [cj for cj in cprime_cols if sol.x[:, cj].sum() > SUPPORT_TOL])
    contrib = inst.contrib
    whole, parted = [], []  # copies of facilities never split, and of the others
    for fi in range(sol.x.shape[0]):
        members = [cj for cj in cprime_cols if x[fi, cj] > SUPPORT_TOL]
        # this facility's copies in creation order, [mass, star, clients],
        # None once split in two; a split copy's parts inherit its clients
        mine = [[float(sol.y[fi]), float(sum(contrib[fi, cj] for cj in members)), set()]]
        for cj in members:
            need = float(x[fi, cj])
            live = [c for c, entry in enumerate(mine) if entry is not None]
            selected: list[int] = []
            acc = 0.0
            for c in sorted(live, key=lambda c: (mine[c][1], c)):
                if acc >= need - 1e-12:
                    break
                room = need - acc
                mass, star, clients = mine[c]
                if mass <= room + 1e-12:
                    acc += mass
                else:  # split: the first part, of mass room, is selected
                    mine[c] = None
                    c = len(mine)
                    mine += [[room, star, set(clients)], [mass - room, star, set(clients)]]
                    acc = need
                selected.append(c)
            if abs(acc - need) > 1e-7:
                raise InstanceError("star-balanced split could not match assignment mass")
            gone = contrib[fi, cj]
            for c, entry in enumerate(mine):
                if entry is None:
                    continue
                if c in selected:
                    entry[2].add(cj)
                else:
                    entry[2].discard(cj)
                    entry[1] -= gone
        out = whole if len(mine) == 1 else parted
        out += [(fi, mass, clients) for mass, _, clients in filter(None, mine)]
    bs = _ball_system(inst, whole + parted, cprime_cols)
    bs.star = _audit_star_balance(bs, inst, extended, sol.objective_value)
    return bs


def _copy_contrib(bs: BallSystem, inst: Instance) -> np.ndarray:
    """Rows of ``inst.contrib`` for every copy (copies inherit distances)."""
    return inst.contrib[[inst.fac_pos[f] for f in bs.orig], :]


def star_costs(bs: BallSystem, inst: Instance, contrib: np.ndarray | None = None) -> np.ndarray:
    """Recompute per-copy star costs from the final outer balls.

    ``contrib`` holds the copies' rows of ``inst.contrib`` when the caller
    has them already.
    """
    if contrib is None:
        contrib = _copy_contrib(bs, inst)
    out = np.zeros(bs.n_copies)
    for cj, ball in enumerate(bs.F):
        for c in ball:
            out[c] += contrib[c, cj]
    return out


def _audit_star_balance(
    bs: BallSystem, inst: Instance, extended, lp_objective: float
) -> np.ndarray:
    """Check the split's budget, F0 copy masses and objective; returns the
    per-copy star costs."""
    con = inst.constraint
    total = float(np.sum(np.array([con.weights[f] for f in bs.orig]) * bs.y))
    if total > con.budget + 1e-7:
        raise InstanceError("duplication broke the knapsack budget")
    for f in extended.f0:
        mass = float(sum(bs.y[c] for c in bs.copies_of(f)))
        if abs(mass - 1.0) > 1e-7:
            raise InstanceError(f"pre-selected facility {f} has copy mass {mass}")
    contrib = _copy_contrib(bs, inst)
    obj = sum(float(sum(bs.y[c] * contrib[c, cj] for c in bs.F[cj])) for cj in extended.cols)
    if obj > lp_objective + 1e-6 * max(1.0, abs(lp_objective)):
        raise InstanceError("duplication increased the relaxation objective")
    return star_costs(bs, inst, contrib)
