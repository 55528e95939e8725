"""LP solver whose optima are always vertices (basic feasible solutions).

Two-phase bounded-variable simplex over a dense float64 tableau with Bland's
rule, so the returned point is determined by ``n_vars`` linearly independent
tight constraints and re-solving the same program reproduces the same vertex.
Rows are sparse, each an equality or a "<=" inequality. Equality rows enter
the tableau directly; they are never split into two inequalities (that would
break the basis counting downstream rounding relies on).

One tableau serves both phases and the certificate. An artificial that phase
1 cannot pivot out marks a redundant row; it stays basic at zero, every
artificial is fixed at zero for phase 2, and a row is tight exactly when none
of its slack or artificial columns is basic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
RATIO_TIE = 1e-12
PIVOT_LIMIT = 100000  # per phase


class LPError(Exception):
    pass


class InfeasibleLP(LPError):
    pass


class UnboundedLP(LPError):
    pass


@dataclass
class LinearProgram:
    """min objective . x  subject to rows and finite per-variable bounds.

    Row i reads sum_j a_ij x_j ``row_rel[i]`` ``row_rhs[i]`` with relation
    "=" or "<="; its nonzero entries a_ij are kept as (row, var, coeff) lists.
    """

    n_vars: int
    objective: np.ndarray = None  # type: ignore[assignment]
    lo: np.ndarray = None  # type: ignore[assignment]
    hi: np.ndarray = None  # type: ignore[assignment]
    row_rel: list[str] = field(default_factory=list)
    row_rhs: list[float] = field(default_factory=list)
    entry_row: list[int] = field(default_factory=list)
    entry_var: list[int] = field(default_factory=list)
    entry_coeff: list[float] = field(default_factory=list)

    def __post_init__(self):
        n = self.n_vars
        self.objective = np.zeros(n) if self.objective is None else np.asarray(self.objective, float)
        self.lo = np.zeros(n) if self.lo is None else np.asarray(self.lo, float)
        self.hi = np.ones(n) if self.hi is None else np.asarray(self.hi, float)
        for name in ("objective", "lo", "hi"):
            values = getattr(self, name)
            if values.shape != (n,):
                raise LPError(f"{name} has {values.size} values for {n} variables")

    def add_row(self, coeffs: dict, rel: str, rhs: float) -> None:
        """Add the row sum of ``coeffs[var] * x[var]`` ``rel`` ``rhs``."""
        if rel not in ("=", "<="):
            raise LPError(f"relation {rel!r} is neither '=' nor '<='")
        self.entry_row += [len(self.row_rhs)] * len(coeffs)
        self.entry_var += coeffs
        self.entry_coeff += coeffs.values()
        self.row_rel.append(rel)
        self.row_rhs.append(float(rhs))

    @property
    def n_rows(self) -> int:
        return len(self.row_rhs)

    def matrix(self) -> np.ndarray:
        """The rows as a dense n_rows x n_vars array.

        LPError when a row names a variable outside 0 .. n_vars - 1.
        """
        var, n = self.entry_var, self.n_vars
        if var and (min(var) < 0 or max(var) >= n):
            k = next(k for k, j in enumerate(var) if not 0 <= j < n)
            raise LPError(
                f"row {self.entry_row[k]} names variable {var[k]} of an LP over {n} variables"
            )
        A = np.zeros((self.n_rows, n))
        A[self.entry_row, var] = self.entry_coeff
        return A


@dataclass
class BasicOptimal:
    """An optimal vertex plus the equalities that pin it down.

    ``basis_certificate`` lists exactly ``n_vars`` linearly independent tight
    conditions: ("row", r) for a constraint satisfied with equality, or
    ("lo", j) / ("hi", j) for a variable at a bound.

    ``pivots`` counts the basis changes of phase 1 and of phase 2; bound
    flips and phase-1 drive-out pivots are not counted.
    """

    values: np.ndarray
    objective_value: float
    basis_certificate: list[tuple[str, int]]
    pivots: tuple[int, int] = (0, 0)


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Make ``col`` the unit column of ``row`` by in-place row operations.

    After dividing the pivot row, only the block where the rows with a
    nonzero in ``col`` meet the columns with a nonzero in the pivot row
    changes, in one vectorised update. Each entry of the block gets the same
    ``T[i, j] - colv[i] * prow[j]`` as a dense outer-product update. Every
    entry left out has ``colv[i] == 0`` or ``prow[j] == ±0``, where the dense
    update subtracts a zero: a nonzero entry keeps its value, and a zero
    entry can at most change its sign, which no ratio test, eligibility
    test, bound comparison or audit reads.
    """
    prow = T[row]
    prow /= prow[col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    rows = colv.nonzero()[0]
    cols = prow.nonzero()[0]
    T[rows[:, None], cols] -= colv[rows, None] * prow[cols]


def _tableau(A, b, lo, hi, slack_of_row, start=None):
    """Reduced tableau, basis, sides, basic values, column bounds and
    artificial rows of the first basis.

    Cold, every structural sits at the bound nearest zero, and every row takes
    its slack when the slack's value is feasible and an artificial column
    (after the slacks) otherwise. A ``start`` point gives every structural its
    value instead; each "=" row makes basic the first structural in it, by
    index, at its upper bound with lo < hi, pivoted in by ``_pivot`` in row
    order, and every "<=" row keeps its slack. A start is refused (None) when
    a value lies off both its bounds, an "=" row has no structural at its
    upper bound, a pivot is no larger than PIVOT_TOL or a basic value lies off
    its bounds by more than FEAS_TOL; a started set-up has no artificial.
    """
    m, n = A.shape
    N = n + len(slack_of_row)
    if start is None:
        x0 = np.where(np.abs(lo) <= np.abs(hi), lo, hi)
        eq, chosen = [], []
    else:
        x0 = np.array(start, float)
        if not ((x0 == lo) | (x0 == hi)).all():
            return None
        eq = [i for i in range(m) if i not in slack_of_row]
        picks = (A[eq] != 0.0) & (x0 == hi) & (lo < hi)
        if not picks.any(axis=1).all():
            return None
        chosen = picks.argmax(axis=1).tolist()  # the first by index in each row
    side = np.where(x0 == lo, 1.0, -1.0)  # +1 at the lower bound, -1 at the upper, 0 basic
    if chosen:
        x0[chosen] = 0.0
    resid = b - A @ x0 if m else np.zeros(0)
    # cold, a row needs an artificial when it has no slack or a negative one;
    # a start's slacks are checked below
    art = [i for i in range(m) if start is None and (i not in slack_of_row or resid[i] < 0.0)]

    # columns: structurals, one slack per inequality row, artificials, right-hand side
    T = np.zeros((m, N + len(art) + 1))
    T[:, :n] = A
    T[:, -1] = resid  # carried through the pivots: becomes the basic values
    basis = np.empty(m, dtype=np.int64)
    for i, s in slack_of_row.items():
        T[i, s] = 1.0
        basis[i] = s
    for k, i in enumerate(art):
        T[i, N + k] = 1.0 if resid[i] >= 0 else -1.0
        basis[i] = N + k
    for i, j in zip(eq, chosen):
        if abs(T[i, j]) <= PIVOT_TOL:
            return None  # singular, as the simplex's own pivot test judges it
        _pivot(T, i, j)
        basis[i] = j
    for i in range(m):
        piv = T[i, basis[i]]
        if piv != 1.0:
            T[i, :] /= piv  # reduced form needs +1 on the basic column
    xB = T[:, -1].copy()
    for i in art:
        xB[i] = abs(resid[i])  # +0.0 for a residual of -0.0 too
    T = T[:, :-1]  # a view: no second m x N tableau

    n_extra = N - n + len(art)  # slacks and artificials: at 0, unbounded above
    side = np.concatenate([side, np.ones(n_extra)])
    side[basis] = 0.0
    lob = np.concatenate([lo, np.zeros(n_extra)])
    upb = np.concatenate([hi, np.full(n_extra, np.inf)])
    if start is not None and (
        (xB < lob[basis] - FEAS_TOL).any() or (xB > upb[basis] + FEAS_TOL).any()
    ):
        return None
    return T, basis, side, xB, lob, upb, art


def solve(lp: LinearProgram, start=None) -> BasicOptimal:
    """Optimal vertex of ``lp``; raises InfeasibleLP / UnboundedLP otherwise.

    ``start`` is a point: ``n_vars`` values, each at one of its bounds
    (LPError for another length). When the basis ``_tableau`` derives from
    it is primal feasible, phase 1 is skipped and phase 2 starts from it;
    otherwise the solve is cold, exactly as without a start.
    """
    n = lp.n_vars
    if start is not None and np.shape(start) != (n,):
        raise LPError(f"start has {np.size(start)} values for {n} variables")
    lo = np.asarray(lp.lo, float).copy()
    hi = np.asarray(lp.hi, float).copy()
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise LPError("variable bounds must be finite")
    if not np.isfinite(lp.objective).all():
        j = int(np.isfinite(lp.objective).argmin())
        raise LPError(f"objective entry {j} is {float(lp.objective[j])}, not finite")
    if np.any(lo > hi + 1e-15):
        raise InfeasibleLP("variable with lo > hi")
    hi = np.maximum(hi, lo)

    A = lp.matrix()
    b = np.asarray(lp.row_rhs, float)
    rels = list(lp.row_rel)
    m = len(rels)
    # one slack per "<=" row, after the n structural columns in row order
    ineq = [i for i, rel in enumerate(rels) if rel == "<="]
    slack_of_row = dict(zip(ineq, range(n, n + len(ineq))))
    n_slack = len(slack_of_row)

    begun = _tableau(A, b, lo, hi, slack_of_row, start)
    if begun is None:  # the start was refused
        begun = _tableau(A, b, lo, hi, slack_of_row)
    T, basis, side, xB, lob, upb, need_art = begun
    n_art = len(need_art)
    N = n + n_slack + n_art

    def run(cost: np.ndarray, phase: int) -> int:
        """Bland pivoting until optimal/unbounded; returns the basis changes.

        The reduced costs ``zrow`` are updated by one row operation per basis
        change (a bound flip leaves them unchanged) and computed afresh from
        ``cost`` before optimality is declared, so the optimality test is as
        strong as pricing every pivot from scratch.
        """
        movable = lob < upb
        zrow = cost - cost[basis] @ T
        fresh = True
        pivots = 0
        for _ in range(PIVOT_LIMIT):
            eligible = movable & (side * zrow < -FEAS_TOL)
            if not eligible.any():
                if fresh:
                    return pivots
                zrow = cost - cost[basis] @ T
                fresh = True
                continue
            enter = int(eligible.argmax())  # Bland: smallest eligible index
            direction = side[enter]
            ci = direction * T[:, enter]
            # ratio test: a row blocks when its basic variable would hit a bound
            t = np.full(m, np.inf)
            np.divide(xB - lob[basis], ci, out=t, where=ci > PIVOT_TOL)
            np.divide(upb[basis] - xB, -ci, out=t, where=ci < -PIVOT_TOL)
            np.maximum(t, 0.0, out=t)
            t_rows = float(t.min()) if m else np.inf
            limit = upb[enter] - lob[enter]
            if t_rows == np.inf and not np.isfinite(limit):
                raise UnboundedLP("objective unbounded below")
            cand = np.nonzero(t <= t_rows + RATIO_TIE)[0]
            cand_vars = basis[cand]
            # bound flip, basis unchanged: the entering variable reaches its
            # other bound first, or ties the rows and has the smaller index
            if limit < t_rows - RATIO_TIE or (
                limit <= t_rows + RATIO_TIE and enter < cand_vars.min()
            ):
                xB[:] -= ci * limit
                side[enter] = -direction
                continue
            leave_row = int(cand[cand_vars.argmin()])
            step = t_rows
            out_var = int(basis[leave_row])
            xB[:] -= ci * step
            enter_val = (lob[enter] if direction > 0 else upb[enter]) + direction * step
            _pivot(T, leave_row, enter)
            zrow -= zrow[enter] * T[leave_row]
            fresh = False
            pivots += 1
            basis[leave_row] = enter
            side[enter] = 0.0
            side[out_var] = 1.0 if ci[leave_row] > 0 else -1.0
            xB[leave_row] = enter_val
        raise LPError(
            f"pivot limit exceeded in phase {phase} on a {T.shape[0]}x{T.shape[1]} tableau"
        )

    # phase 1: drive artificials to zero
    owner = ineq + need_art  # the row of each slack and artificial column
    phase1 = 0
    if n_art:
        cost1 = np.zeros(N)
        cost1[n + n_slack :] = 1.0
        phase1 = run(cost1, 1)
        art_basic = basis >= n + n_slack
        residual = float(xB[art_basic].sum())
        if residual > FEAS_TOL * max(1.0, abs(b).max() if m else 1.0):
            i = int(np.where(art_basic, xB, -np.inf).argmax())
            r = owner[basis[i] - n]
            raise InfeasibleLP(
                f"phase-1 optimum is positive ({residual:.3g}): the artificial of row {r} "
                f"({rels[r]}) stays basic at {float(xB[i]):.3g} on a {m}x{N} tableau"
            )
        # pivot each basic artificial out at the first nonbasic real column of its row;
        # a row with none is redundant, and its artificial stays basic at zero
        for i in np.nonzero(art_basic)[0].tolist():
            real = T[i, : n + n_slack]
            cols = np.nonzero((side[: n + n_slack] != 0.0) & (np.abs(real) > PIVOT_TOL))[0]
            if not len(cols):
                real[:] = 0.0  # so no later pivot touches the row
                continue
            pivcol = int(cols[0])
            side[basis[i]] = 1.0
            _pivot(T, i, pivcol)
            basis[i] = pivcol
            xB[i] = lob[pivcol] if side[pivcol] > 0 else upb[pivcol]
            side[pivcol] = 0.0
        upb[n + n_slack :] = 0.0  # fixed: phase 2 never prices an artificial

    # phase 2
    cost2 = np.zeros(N)
    cost2[:n] = lp.objective
    phase2 = run(cost2, 2)

    x = np.where(side < 0, upb, lob)
    x[basis] = xB
    values = x[:n].copy()

    # post-hoc feasibility audit against the original data
    if m:
        lhs = A @ values
        for i in range(m):
            scale = max(1.0, abs(b[i]))
            err = lhs[i] - b[i]
            if not (abs(err) if rels[i] == "=" else err) <= FEAS_TOL * scale:
                raise LPError(f"post-hoc feasibility failed on row {i}: residual {err:.3g}")
    outside = np.nonzero((values < lo - FEAS_TOL) | (values > hi + FEAS_TOL))[0]
    if len(outside):
        j = int(outside[0])
        raise LPError(
            f"post-hoc bound check failed: x[{j}] = {float(values[j])} "
            f"outside [{float(lo[j])}, {float(hi[j])}]"
        )

    # tight rows: those owning no basic slack or artificial
    owned = {owner[j - n] for j in basis.tolist() if j >= n}
    cert: list[tuple[str, int]] = [("row", i) for i in range(m) if i not in owned]
    cert += [("lo" if s > 0 else "hi", j) for j, s in enumerate(side[:n].tolist()) if s]
    if len(cert) != n:
        raise LPError(
            f"basis certificate has {len(cert)} conditions for {n} variables on a {m}x{N} tableau"
        )

    return BasicOptimal(
        values=values,
        objective_value=float(lp.objective @ values),
        basis_certificate=cert,
        pivots=(phase1, phase2),
    )
