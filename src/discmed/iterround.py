"""Iterative ball-shrinking rounding and the end-to-end discount solvers.

Each iteration re-solves an auxiliary LP over the duplicated facility
universe to an optimal vertex, then either promotes one pending client or
shrinks one saturated inner ball, maintaining a core client set whose outer
balls form one laminar family per step-size unit. With step size 2 and a
cardinality row the final vertex is integral; with step size 1 the same
holds for matroid rows, and a knapsack row leaves at most two fractional
coordinates for the caller to resolve.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .discretize import DiscretizedMetric, choose_offset, discretization_ratio
from .fractional import (
    BallSystem,
    duplicate_facilities,
    family_rows,
    make_distance_optimal,
    solve_natural,
)
from .instance import (
    Cardinality,
    Instance,
    InstanceError,
    Matroid,
    check_arg,
    checked,
    discounted_cost,
)
from .lpcore import LinearProgram, solve

SNAP_TOL = 1e-7
OBJ_TOL = 1e-7

# the auxiliary LPs solved so far in the active aux_lp_memo scope, None outside one
_aux_solved: ContextVar[dict | None] = ContextVar("aux_solved", default=None)


class RoundingError(RuntimeError):
    """Numerical degeneracy: a structural guarantee failed at runtime."""


class IntegralityError(RoundingError):
    def __init__(self, message: str, state: "RoundState"):
        super().__init__(message + "\n" + state.dump())
        self.state = state


@dataclass
class VirtualClient:
    """Zero-discount level(-1) client pinning unit mass on one facility's copies."""

    vid: str
    copies: frozenset[int]


@dataclass
class RoundState:
    bs: BallSystem
    dm: DiscretizedMetric
    inst: Instance  # client columns, weights and discounts
    h: int
    gain: np.ndarray  # rounded contributions w_j * (chat - tau * r_j)^+ per copy and client
    levels_mat: np.ndarray
    F: dict[str, set[int]]
    B: dict[str, set[int]]
    level: dict[str, int]
    C0: set[str]
    C1: set[str]
    Cstar: set[str]
    trace: list[dict] = field(default_factory=list)  # one record per iteration
    max_contribution_drift: float = 0.0
    cstar_violations: int = 0

    def where(self) -> str:
        """The rounding loop's position: iterations run and the last client acted on."""
        last = next((t["client"] for t in reversed(self.trace) if t["client"]), None)
        return f"rounding loop, iteration {len(self.trace)}, last client {last}"

    def dump(self) -> str:
        lines = [
            f"tau={self.dm.tau} h={self.h} b={self.dm.b}",
            f"C0={sorted(self.C0)} C1={sorted(self.C1)} Cstar={sorted(self.Cstar)}",
            f"levels={ {k: self.level[k] for k in sorted(self.level)} }",
        ]
        return "\n".join(lines)


def radial_factor(tau: float, h: int) -> float:
    """(3 tau^h - 1)/(tau^h - 1): a client's certified radius in units of D_level."""
    return (3.0 * tau**h - 1.0) / (tau**h - 1.0)


def bicriteria_factors(tau: float, h: int) -> tuple[float, float]:
    """(alpha, beta) of the discount-inflation guarantee at step size h."""
    radial = radial_factor(tau, h)
    return tau * radial, radial * discretization_ratio(tau)


def nearest_open_distance_bound(state: RoundState, key: str) -> float:
    """Certified radius radial_factor(tau, h) * D_level for a client."""
    return radial_factor(state.dm.tau, state.h) * state.dm.level_value(state.level[key])


def update_cstar(state: RoundState, key: str) -> bool:
    """Re-admit ``key`` into the core set; evict members it supersedes.

    Returns True when the client was admitted. The client itself is removed
    first, so membership is decided purely against the other members.
    """
    state.Cstar.discard(key)
    Fk = state.F[key]
    lk = state.level[key]
    for other in state.Cstar:
        if state.level[other] <= lk and Fk & state.F[other]:
            _check_cstar(state)
            return False
    state.Cstar.add(key)
    for other in sorted(state.Cstar - {key}):
        if state.level[other] >= lk + state.h and Fk & state.F[other]:
            state.Cstar.discard(other)
    _check_cstar(state)
    return True


def _check_cstar(state: RoundState) -> None:
    members = sorted(state.Cstar)
    for a_pos, a in enumerate(members):
        for b in members[a_pos + 1 :]:
            if state.F[a] & state.F[b] and abs(state.level[a] - state.level[b]) >= state.h:
                state.cstar_violations += 1


def _level_head(state: RoundState, key: str) -> float:
    """w_j * (D_level - tau * r_j)^+: the contribution of a client at its level value."""
    inst = state.inst
    cj = inst.cli_pos[key]
    level_value = state.dm.level_value(state.level[key])
    return inst.w[cj] * max(level_value - state.dm.tau * inst.r[cj], 0.0)


def _aux_lp(state: RoundState, rows) -> tuple[LinearProgram, float]:
    bs = state.bs
    coeff = np.zeros(bs.n_copies)
    const = 0.0
    for key in sorted(state.C0):
        cj = state.inst.cli_pos[key]
        for c in state.F[key]:
            coeff[c] += state.gain[c, cj]
    for key in sorted(state.C1):
        cj = state.inst.cli_pos[key]
        head = _level_head(state, key)
        const += head
        for c in state.B[key]:
            coeff[c] += state.gain[c, cj] - head
    lp = LinearProgram(bs.n_copies, objective=coeff)
    balls = [(frozenset(state.F[key]), "=") for key in sorted(state.C0)]
    balls += [(frozenset(state.B[key]), "<=") for key in sorted(state.C1) if state.B[key]]
    balls += [(frozenset(state.F[key]), "=") for key in sorted(state.Cstar)]
    for ball, rel in dict.fromkeys(balls):  # each distinct row once, where it first comes
        lp.add_row(dict.fromkeys(ball, 1.0), rel, 1.0)
    for coeffs, rel, rhs in rows:
        lp.add_row(coeffs, rel, rhs)
    return lp, const


@contextmanager
def aux_lp_memo():
    """Scope in which ``iter_round`` solves each distinct auxiliary LP once.

    ``solve`` is deterministic, so a repeat of an LP already solved in the
    scope reuses its ``BasicOptimal``, with ``values`` read-only; every output
    is the same as without the scope.
    """
    token = _aux_solved.set({})
    try:
        yield
    finally:
        _aux_solved.reset(token)


def _solve_aux(lp: LinearProgram):
    """``solve(lp)``, or the stored result of the same LP in an aux_lp_memo scope.

    The key is the exact content ``solve`` reads, floats by their bytes.
    """
    solved = _aux_solved.get()
    if solved is None:
        return solve(lp)
    key = (
        lp.n_vars,
        lp.objective.tobytes(),
        lp.lo.tobytes(),
        lp.hi.tobytes(),
        tuple(lp.row_rel),
        np.array(lp.row_rhs, float).tobytes(),
        tuple(lp.entry_row),
        tuple(lp.entry_var),
        np.array(lp.entry_coeff, float).tobytes(),
    )
    res = solved.get(key)
    if res is None:
        res = solve(lp)
        res.values.flags.writeable = False
        solved[key] = res
    return res


def _contribution(state: RoundState, key: str, y: np.ndarray) -> float:
    gain = state.gain[:, state.inst.cli_pos[key]]
    if key in state.C0:
        return float(sum(y[c] * gain[c] for c in state.F[key]))
    ball = float(sum(y[c] for c in state.B[key]))
    return float(
        sum(y[c] * gain[c] for c in state.B[key]) + (1.0 - ball) * _level_head(state, key)
    )


def _inner_ball(state: RoundState, key: str) -> set[int]:
    cj = state.inst.cli_pos[key]
    cap = state.level[key] - 1
    return {c for c in state.F[key] if state.levels_mat[c, cj] <= cap}


def iter_round(
    bs: BallSystem,
    inst: Instance,
    dm: DiscretizedMetric,
    h: int,
    cols: Sequence[int] | None = None,
    virtuals: Iterable[VirtualClient] = (),
) -> tuple[np.ndarray, RoundState]:
    """Run the rounding loop; returns the final vertex and the state.

    The vertex is *not* snapped here; use ``snap_integral`` (or the knapsack
    resolution) on the result. ``cols`` restricts the participating clients.
    """
    if h not in (1, 2):
        raise InstanceError("step size must be 1 or 2")
    if cols is None:
        cols = [cj for cj in range(len(inst.clients)) if bs.F[cj]]
    levels_mat = dm.levels_array(bs.dist)
    chat = dm.level_values(levels_mat)
    state = RoundState(
        bs=bs,
        dm=dm,
        inst=inst,
        h=h,
        gain=inst.w[None, :] * np.maximum(chat - dm.tau * inst.r[None, :], 0.0),
        levels_mat=levels_mat,
        F={},
        B={},
        level={},
        C0=set(),
        C1=set(),
        Cstar=set(),
    )
    for cj in cols:
        key = inst.clients[cj]
        if not bs.F[cj]:
            raise InstanceError(f"client {key} has an empty outer ball")
        state.F[key] = set(bs.F[cj])
        state.level[key] = max(int(levels_mat[c, cj]) for c in bs.F[cj])
        state.B[key] = set()
        state.C0.add(key)
    for v in sorted(virtuals, key=lambda v: v.vid):
        state.F[v.vid] = set(v.copies)
        state.level[v.vid] = -1
        state.B[v.vid] = set()
        if not update_cstar(state, v.vid):
            raise RoundingError(
                f"{state.where()}: virtual client {v.vid} blocked from the core set"
            )

    rows = family_rows(inst, bs.orig)
    max_level = max((state.level[k] for k in state.level), default=0)
    budget = len(cols) * (max_level + 3) + len(cols) + 4
    y = np.zeros(bs.n_copies)
    for _ in range(budget):
        lp, const = _aux_lp(state, rows)
        res = _solve_aux(lp)
        y = res.values
        aux = res.objective_value + const
        last = state.trace[-1]["objective"] if state.trace else None
        if last is not None and aux > last + OBJ_TOL * max(1.0, abs(aux)):
            raise RoundingError(f"{state.where()}: auxiliary objective increased: {last} -> {aux}")

        if state.C0:
            action, key = "move", min(state.C0)
        else:
            saturated = [
                k
                for k in state.C1
                if state.B[k] and sum(y[c] for c in state.B[k]) >= 1.0 - SNAP_TOL
            ]
            if not saturated:
                state.trace.append({"action": "stop", "client": "", "objective": aux})
                break
            action, key = "shrink", min(saturated)
        before = _contribution(state, key, y)
        if action == "move":
            state.C0.discard(key)
            state.C1.add(key)
        else:
            state.level[key] -= 1
            state.F[key] = set(state.B[key])
        state.B[key] = _inner_ball(state, key)
        update_cstar(state, key)
        after = _contribution(state, key, y)
        state.max_contribution_drift = max(state.max_contribution_drift, abs(after - before))
        state.trace.append({"action": action, "client": key, "objective": aux})
    else:
        raise RoundingError(f"{state.where()}: iteration budget exhausted without convergence")

    if state.max_contribution_drift > OBJ_TOL:
        raise RoundingError(
            f"{state.where()}: client contribution drifted by "
            f"{state.max_contribution_drift:.3g} on rebuild"
        )
    return y, state


def fractional_copies(y: np.ndarray, tol: float = SNAP_TOL) -> list[int]:
    return [int(c) for c in np.nonzero((y > tol) & (y < 1.0 - tol))[0]]


def snap_integral(y: np.ndarray, state: RoundState) -> np.ndarray:
    frac = fractional_copies(y)
    if frac:
        raise IntegralityError(
            f"integral snap: copies {frac} of facilities {[state.bs.orig[c] for c in frac]} "
            f"stay fractional: {[float(y[c]) for c in frac]}",
            state,
        )
    return np.rint(y)


# ---------------------------------------------------------------------------
# reports and the cardinality / matroid pipelines


@dataclass
class Certificate:
    name: str
    lhs: float
    rhs: float
    holds: bool

    @staticmethod
    def leq(name: str, lhs: float, rhs: float, tol: float = 1e-6) -> "Certificate":
        return Certificate(name, float(lhs), float(rhs), bool(lhs <= rhs + tol * max(1.0, abs(rhs))))


@dataclass
class SolveReport:
    tau: float
    b: float | None  # None where no single offset applies (knapsack)
    h: int
    solution: tuple[str, ...]
    objective: float  # discounted cost of the solution at multiplier alpha
    alpha: float
    beta: float
    iterations: list[dict]
    final_levels: dict[str, int]
    certificates: list[Certificate]
    lp_optimum: float
    initial_aux: float | None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "tau": self.tau,
            "b": self.b,
            "h": self.h,
            "solution": list(self.solution),
            "objective": self.objective,
            "alpha": self.alpha,
            "beta": self.beta,
            "iterations": self.iterations,
            "finalLevels": self.final_levels,
            "certificates": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "holds": c.holds}
                for c in self.certificates
            ],
            "lpOptimum": self.lp_optimum,
            "initialAux": self.initial_aux,
            **self.extras,
        }


def offset_support(bs: BallSystem, inst: Instance, cols: Sequence[int]):
    """(c, r, mass) triples of the duplicated support, for the offset search."""
    cs, rs, ms = [], [], []
    for cj in cols:
        for c in bs.F[cj]:
            cs.append(bs.dist[c, cj])
            rs.append(inst.r[cj])
            ms.append(bs.y[c] * inst.w[cj])
    return np.array(cs), np.array(rs), np.array(ms)


def _pipeline(inst: Instance, tau: float, h: int) -> SolveReport:
    original = inst
    inst = checked(inst)
    frac = solve_natural(inst)
    frac = make_distance_optimal(frac, inst)
    bs = duplicate_facilities(frac, inst)
    cols = [cj for cj in range(len(inst.clients)) if bs.F[cj]]
    c_arr, r_arr, m_arr = offset_support(bs, inst, cols)
    b, initial_aux = choose_offset(c_arr, r_arr, m_arr, tau)
    dm = DiscretizedMetric(tau, b)
    y_raw, state = iter_round(bs, inst, dm, h, cols=cols)
    y_star = snap_integral(y_raw, state)
    solution = bs.open_set(y_star)
    if not solution:
        raise RoundingError("pipeline output: rounding opened no facility")

    alpha, beta = bicriteria_factors(tau, h)
    certs: list[Certificate] = []
    certs.append(
        Certificate.leq(
            "initial_aux_le_discretized_lp",
            initial_aux,
            discretization_ratio(tau) * frac.objective_value,
        )
    )
    final_levels = {key: state.level[key] for key in map(inst.clients.__getitem__, cols)}
    level_obj = float(sum(_level_head(state, inst.clients[cj]) for cj in cols))
    certs.append(Certificate.leq("final_level_objective_le_initial_aux", level_obj, initial_aux))
    objectives = [t["objective"] for t in state.trace]
    worst_step = max((b2 - a2 for a2, b2 in zip(objectives, objectives[1:])), default=0.0)
    certs.append(Certificate.leq("aux_objective_nonincreasing", worst_step, 0.0, tol=OBJ_TOL))
    certs.append(
        Certificate.leq("contribution_preserved", state.max_contribution_drift, 0.0, tol=OBJ_TOL)
    )
    certs.append(Certificate("cstar_discipline", float(state.cstar_violations), 0.0, state.cstar_violations == 0))
    open_rows = [inst.fac_pos[f] for f in solution]
    for cj in cols:
        key = inst.clients[cj]
        actual = float(inst.dist_fc[open_rows, cj].min())
        certs.append(
            Certificate.leq(f"near_facility[{key}]", actual, nearest_open_distance_bound(state, key))
        )
    inner_mass = max((sum(y_star[c] for c in state.B[inst.clients[cj]]) for cj in cols), default=0.0)
    certs.append(Certificate.leq("final_inner_mass_zero", float(inner_mass), 0.0, tol=SNAP_TOL))
    scaled_cost = discounted_cost(inst, solution, alpha)
    certs.append(Certificate.leq("bicriteria_vs_lp", scaled_cost, beta * frac.objective_value))

    if isinstance(inst.constraint, Matroid):
        spec = inst.constraint.spec
        if not spec.is_independent(solution):
            raise RoundingError(f"pipeline output: {solution} is not independent in the matroid")
        rank_gap = len(solution) - spec.rank(solution)
        certs.append(Certificate.leq("independent_output", rank_gap, 0.0))
    elif isinstance(inst.constraint, Cardinality):
        if len(solution) > inst.constraint.k:
            raise RoundingError(
                f"pipeline output: {solution} exceeds the cardinality bound {inst.constraint.k}"
            )

    return SolveReport(
        tau=tau,
        b=b,
        h=h,
        solution=solution,
        objective=discounted_cost(original, solution, alpha),
        alpha=alpha,
        beta=beta,
        iterations=state.trace,
        final_levels=final_levels,
        certificates=certs,
        lp_optimum=frac.objective_value / inst.scale * original.scale,
        initial_aux=initial_aux,
        extras={"scale": inst.scale},
    )


def check_tau(tau) -> None:
    check_arg(tau, "tau", lambda t: 1.0 < t < math.inf, "be finite and exceed 1")


def solve_kmeddis(inst: Instance, tau: float = 1.91, h: int = 2) -> SolveReport:
    """Cardinality-constrained pipeline (step size 2 by default)."""
    if not isinstance(inst.constraint, Cardinality):
        raise InstanceError("solve_kmeddis needs a cardinality constraint")
    check_tau(tau)
    if isinstance(h, bool) or not isinstance(h, int) or h not in (1, 2):
        raise InstanceError(f"step size h must be the int 1 or 2, got {h!r}")
    return _pipeline(inst, tau, h)


def solve_matmeddis(inst: Instance, tau: float = 2.36) -> SolveReport:
    """Matroid-constrained pipeline (step size 1)."""
    if not isinstance(inst.constraint, Matroid):
        raise InstanceError("solve_matmeddis needs a matroid constraint")
    check_tau(tau)
    return _pipeline(inst, tau, 1)
