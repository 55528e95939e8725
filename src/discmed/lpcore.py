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

The tableau takes one of two forms, by size: a numpy array, or, at most
LIST_CELLS entries, a list of row lists of Python floats, where the fixed
cost of a numpy call would outweigh the arithmetic. Both forms make the same
IEEE operations on the same entries in the same order, so they return the
same bits and raise the same errors. Input validation, slack numbering, the
audits and the certificate are one code; so are ``b - A @ x0``, ``A @ x`` and
``objective @ x``, numpy products on both forms, whose BLAS summation order
reaches the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
RATIO_TIE = 1e-12
PIVOT_LIMIT = 100000  # per phase
# the largest tableau, m x (structurals + slacks + artificials) entries, kept
# as row lists. Replaying seed-1 bench LPs on a 2-core x86 VM (Python 3.11.7,
# numpy 2.4.6), the list form took 0.55x the array form's time up to 200
# entries, 0.74x at 400-600, 0.90x at 800-1,000 and 1.09x at 1,000-1,300, on
# cold and started solves alike: it loses from about 1,000 entries on
LIST_CELLS = 800


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
    entry can at most change its sign.
    """
    prow = T[row]
    prow /= prow[col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    rows = colv.nonzero()[0]
    cols = prow.nonzero()[0]
    T[rows[:, None], cols] -= colv[rows, None] * prow[cols]


def _pivot_rows(T: list[list[float]], row: int, col: int) -> None:
    """``_pivot`` on a tableau of row lists, entry for entry: the same
    division of the pivot row, and the same ``T[i][j] - colv[i] * prow[j]``
    on the same block, so that every entry, a zero's sign included, gets the
    bits ``_pivot`` gives it."""
    piv = T[row][col]
    prow = T[row] = [v / piv for v in T[row]]
    for i, Ti in enumerate(T):
        c = Ti[col]
        if c and i != row:
            T[i] = [a - c * p if p else a for a, p in zip(Ti, prow)]


def _tableau(A, b, lo, hi, slack_of_row, start, list_cells):
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

    A tableau of at most ``list_cells`` entries is built as row lists by
    ``_rows_tableau``, a larger one as an array by ``_array_tableau``; the
    basis, sides, basic values and bounds are lists or arrays with it.
    """
    m, n = A.shape
    N = n + len(slack_of_row)
    if start is None:
        lo_l, hi_l = lo.tolist(), hi.tolist()
        x0 = [low if abs(low) <= abs(high) else high for low, high in zip(lo_l, hi_l)]
        side = [1.0 if x == low else -1.0 for x, low in zip(x0, lo_l)]
        x0 = np.array(x0)
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
        side = np.where(x0 == lo, 1.0, -1.0).tolist()
        x0[chosen] = 0.0
    # side: +1 at the lower bound, -1 at the upper, 0 once basic
    resid = (b - A @ x0).tolist() if m else []
    # cold, a row needs an artificial when it has no slack or a negative one;
    # a start's slacks are checked below
    art = [i for i in range(m) if start is None and (i not in slack_of_row or resid[i] < 0.0)]
    build = _rows_tableau if m * (N + len(art)) <= list_cells else _array_tableau
    return build(A, resid, side, lo, hi, slack_of_row, art, zip(eq, chosen), start is not None)


def _array_tableau(A, resid, side, lo, hi, slack_of_row, art, picks, started):
    """``_tableau``'s results in the array form, from the structurals'
    ``side`` list and the residuals ``resid`` of their first values: slacks
    and artificials placed, ``picks`` (row, column) pivoted in, and each row
    divided by its basic entry. None when a pick's pivot is no larger than
    PIVOT_TOL or, ``started``, a basic value lies off its bounds."""
    m, n = A.shape
    N = n + len(slack_of_row)
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
    for i, j in picks:
        if abs(T[i, j]) <= PIVOT_TOL:
            return None
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
    side = np.array(side + [1.0] * n_extra)
    side[basis] = 0.0
    lob = np.concatenate([lo, np.zeros(n_extra)])
    upb = np.concatenate([hi, np.full(n_extra, np.inf)])
    if started and ((xB < lob[basis] - FEAS_TOL).any() or (xB > upb[basis] + FEAS_TOL).any()):
        return None
    return T, basis, side, xB, lob, upb, art


def _rows_tableau(A, resid, side, lo, hi, slack_of_row, art, picks, started):
    """``_array_tableau`` on row lists, entry for entry."""
    m, n = A.shape
    N = n + len(slack_of_row)
    pad = [0.0] * (N - n + len(art))
    T = [row + pad + [r] for row, r in zip(A.tolist(), resid)]
    basis = [0] * m
    for i, s in slack_of_row.items():
        T[i][s] = 1.0
        basis[i] = s
    for k, i in enumerate(art):
        T[i][N + k] = 1.0 if resid[i] >= 0 else -1.0
        basis[i] = N + k
    for i, j in picks:
        if abs(T[i][j]) <= PIVOT_TOL:
            return None
        _pivot_rows(T, i, j)
        basis[i] = j
    for i, j in enumerate(basis):
        piv = T[i][j]
        if piv != 1.0:
            T[i] = [v / piv for v in T[i]]
    xB = [row.pop() for row in T]
    for i in art:
        xB[i] = abs(resid[i])

    n_extra = N - n + len(art)
    side += [1.0] * n_extra
    for j in basis:
        side[j] = 0.0
    lob = lo.tolist() + [0.0] * n_extra
    upb = hi.tolist() + [math.inf] * n_extra
    if started and any(x < lob[j] - FEAS_TOL or x > upb[j] + FEAS_TOL for x, j in zip(xB, basis)):
        return None
    return T, basis, side, xB, lob, upb, art


def _phase1_error(residual: float, value: float, row: int, rels, width: int) -> InfeasibleLP:
    return InfeasibleLP(
        f"phase-1 optimum is positive ({residual:.3g}): the artificial of row {row} "
        f"({rels[row]}) stays basic at {value:.3g} on a {len(rels)}x{width} tableau"
    )


def _pivot_limit_error(phase: int, m: int, width: int) -> LPError:
    return LPError(f"pivot limit exceeded in phase {phase} on a {m}x{width} tableau")


def _simplex_arrays(T, basis, side, xB, lob, upb, objective, n_real, arts, rels, b):
    """Phases 1 and 2 on the array form; ``arts`` holds the row of each
    artificial column, which starts at ``n_real``. Returns the basis and the
    sides as lists, the values of all columns as an array, and the basis
    changes of each phase."""
    m, N = T.shape

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
        raise _pivot_limit_error(phase, m, N)

    # phase 1: drive artificials to zero
    phase1 = 0
    if N > n_real:
        cost1 = np.zeros(N)
        cost1[n_real:] = 1.0
        phase1 = run(cost1, 1)
        art_basic = basis >= n_real
        residual = float(xB[art_basic].sum())
        if residual > FEAS_TOL * max(1.0, abs(b).max() if m else 1.0):
            i = int(np.where(art_basic, xB, -np.inf).argmax())
            raise _phase1_error(residual, float(xB[i]), arts[basis[i] - n_real], rels, N)
        # pivot each basic artificial out at the first nonbasic real column of its row;
        # a row with none is redundant, and its artificial stays basic at zero
        for i in np.nonzero(art_basic)[0].tolist():
            real = T[i, :n_real]
            cols = np.nonzero((side[:n_real] != 0.0) & (np.abs(real) > PIVOT_TOL))[0]
            if not len(cols):
                real[:] = 0.0  # so no later pivot touches the row
                continue
            pivcol = int(cols[0])
            side[basis[i]] = 1.0
            _pivot(T, i, pivcol)
            basis[i] = pivcol
            xB[i] = lob[pivcol] if side[pivcol] > 0 else upb[pivcol]
            side[pivcol] = 0.0
        upb[n_real:] = 0.0  # fixed: phase 2 never prices an artificial

    # phase 2
    cost2 = np.zeros(N)
    cost2[: len(objective)] = objective
    phase2 = run(cost2, 2)

    x = np.where(side < 0, upb, lob)
    x[basis] = xB
    return basis.tolist(), side.tolist(), x, (phase1, phase2)


def _reduced_costs(T: list[list[float]], basis: list[int], cost: list[float]) -> list[float]:
    """``cost - cost[basis] @ T`` on row lists. It is summed in row order, not
    in BLAS's order, so it may differ from the array form's in the last bits;
    only the comparisons with -FEAS_TOL read it."""
    z = cost
    for row, j in zip(T, basis):
        c = cost[j]
        if c:
            z = [a - c * v for a, v in zip(z, row)]
    return list(z)


def _simplex_rows(T, basis, side, xB, lob, upb, objective, n_real, arts, rels, b):
    """``_simplex_arrays`` on the row-list form: the same pivots, bound flips
    and drive-out, operation for operation; ``b`` is a list here."""
    m, N = len(T), len(side)
    inf = math.inf

    def run(cost: list[float], phase: int) -> int:
        movable = [low < high for low, high in zip(lob, upb)]
        zrow = _reduced_costs(T, basis, cost)
        fresh = True
        pivots = 0
        tol = -FEAS_TOL
        for _ in range(PIVOT_LIMIT):
            for enter in range(N):
                if side[enter] * zrow[enter] < tol and movable[enter]:
                    break
            else:
                if fresh:
                    return pivots
                zrow = _reduced_costs(T, basis, cost)
                fresh = True
                continue
            direction = side[enter]
            ci = [direction * row[enter] for row in T]
            # a row at or past its bound blocks at +0.0, as np.maximum(t, 0.0)
            # gives it in the array form, for a quotient of -0.0 too
            t = [
                ((x - lob[j]) / c if x > lob[j] else 0.0) if c > PIVOT_TOL
                else ((upb[j] - x) / -c if upb[j] > x else 0.0) if c < -PIVOT_TOL
                else inf
                for c, x, j in zip(ci, xB, basis)
            ]
            t_rows = min(t) if m else inf
            limit = upb[enter] - lob[enter]
            if t_rows == inf and not math.isfinite(limit):
                raise UnboundedLP("objective unbounded below")
            cut = t_rows + RATIO_TIE
            # the candidate row whose basic variable has the smallest index
            leave_row = min(
                (i for i, r in enumerate(t) if r <= cut), key=basis.__getitem__, default=-1
            )
            if limit < t_rows - RATIO_TIE or (limit <= cut and enter < basis[leave_row]):
                xB[:] = [x - c * limit for x, c in zip(xB, ci)]
                side[enter] = -direction
                continue
            step = t_rows
            out_var = basis[leave_row]
            xB[:] = [x - c * step for x, c in zip(xB, ci)]
            enter_val = (lob[enter] if direction > 0 else upb[enter]) + direction * step
            _pivot_rows(T, leave_row, enter)
            ze = zrow[enter]
            zrow = [z - ze * p for z, p in zip(zrow, T[leave_row])]
            fresh = False
            pivots += 1
            basis[leave_row] = enter
            side[enter] = 0.0
            side[out_var] = 1.0 if ci[leave_row] > 0 else -1.0
            xB[leave_row] = enter_val
        raise _pivot_limit_error(phase, m, N)

    phase1 = 0
    if N > n_real:
        phase1 = run([0.0] * n_real + [1.0] * (N - n_real), 1)
        art_rows = [i for i, j in enumerate(basis) if j >= n_real]
        # numpy's own summation, as the array form sums
        residual = float(np.add.reduce([xB[i] for i in art_rows]))
        if residual > FEAS_TOL * max(1.0, max(map(abs, b), default=1.0)):
            i = max(art_rows, key=xB.__getitem__)
            raise _phase1_error(residual, xB[i], arts[basis[i] - n_real], rels, N)
        for i in art_rows:
            row = T[i]
            for pivcol in range(n_real):
                if side[pivcol] != 0.0 and abs(row[pivcol]) > PIVOT_TOL:
                    break
            else:
                row[:n_real] = [0.0] * n_real
                continue
            side[basis[i]] = 1.0
            _pivot_rows(T, i, pivcol)
            basis[i] = pivcol
            xB[i] = lob[pivcol] if side[pivcol] > 0 else upb[pivcol]
            side[pivcol] = 0.0
        upb[n_real:] = [0.0] * (N - n_real)

    phase2 = run(objective.tolist() + [0.0] * (N - len(objective)), 2)

    x = [high if s < 0 else low for s, low, high in zip(side, lob, upb)]
    for i, j in enumerate(basis):
        x[j] = xB[i]
    return basis, side, np.array(x), (phase1, phase2)


def solve(lp: LinearProgram, start=None) -> BasicOptimal:
    """Optimal vertex of ``lp``; raises InfeasibleLP / UnboundedLP otherwise.

    ``start`` is a point: ``n_vars`` values, each at one of its bounds
    (LPError for another length). When the basis ``_tableau`` derives from
    it is primal feasible, phase 1 is skipped and phase 2 starts from it;
    otherwise the solve is cold, exactly as without a start. Row data must
    be finite (LPError naming the row otherwise).
    """
    return _solve(lp, start, LIST_CELLS)


def _solve(lp: LinearProgram, start, list_cells) -> BasicOptimal:
    """``solve`` with tableaus of at most ``list_cells`` entries as row lists."""
    n = lp.n_vars
    if start is not None and np.shape(start) != (n,):
        raise LPError(f"start has {np.size(start)} values for {n} variables")
    # checked on Python floats: a numpy call costs more than a tiny LP's loop
    lo = np.asarray(lp.lo, float)
    hi = np.asarray(lp.hi, float)
    lo_l, hi_l = lo.tolist(), hi.tolist()
    if not all(map(math.isfinite, lo_l + hi_l)):
        raise LPError("variable bounds must be finite")
    for j, c in enumerate(lp.objective.tolist()):
        if not math.isfinite(c):
            raise LPError(f"objective entry {j} is {c}, not finite")
    if any(low > high + 1e-15 for low, high in zip(lo_l, hi_l)):
        raise InfeasibleLP("variable with lo > hi")
    hi = np.maximum(hi, lo)

    A = lp.matrix()
    for i, j, a in zip(lp.entry_row, lp.entry_var, lp.entry_coeff):
        if not math.isfinite(a):
            raise LPError(f"row {i} coefficient of variable {j} is {a}, not finite")
    for i, rhs in enumerate(lp.row_rhs):
        if not math.isfinite(rhs):
            raise LPError(f"row {i} right-hand side is {rhs}, not finite")
    b = np.asarray(lp.row_rhs, float)
    rels = list(lp.row_rel)
    m = len(rels)
    # one slack per "<=" row, after the n structural columns in row order
    ineq = [i for i, rel in enumerate(rels) if rel == "<="]
    slack_of_row = dict(zip(ineq, range(n, n + len(ineq))))
    n_real = n + len(ineq)

    begun = _tableau(A, b, lo, hi, slack_of_row, start, list_cells)
    if begun is None:  # the start was refused
        begun = _tableau(A, b, lo, hi, slack_of_row, None, list_cells)
    T, basis, side, xB, lob, upb, need_art = begun
    owner = ineq + need_art  # the row of each slack and artificial column
    N = n_real + len(need_art)
    if isinstance(T, list):
        simplex, rhs = _simplex_rows, b.tolist()
    else:
        simplex, rhs = _simplex_arrays, b
    basis, side, x, pivots = simplex(
        T, basis, side, xB, lob, upb, lp.objective, n_real, need_art, rels, rhs
    )
    values = x[:n].copy()

    # post-hoc feasibility audit against the original data
    if m:
        for i, (lhs, rhs, rel) in enumerate(zip((A @ values).tolist(), b.tolist(), rels)):
            err = lhs - rhs
            if not (abs(err) if rel == "=" else err) <= FEAS_TOL * max(1.0, abs(rhs)):
                raise LPError(f"post-hoc feasibility failed on row {i}: residual {err:.3g}")
    for j, (v, low, high) in enumerate(zip(values.tolist(), lo.tolist(), hi.tolist())):
        if v < low - FEAS_TOL or v > high + FEAS_TOL:
            raise LPError(f"post-hoc bound check failed: x[{j}] = {v} outside [{low}, {high}]")

    # tight rows: those owning no basic slack or artificial
    owned = {owner[j - n] for j in basis if j >= n}
    cert: list[tuple[str, int]] = [("row", i) for i in range(m) if i not in owned]
    cert += [("lo" if s > 0 else "hi", j) for j, s in enumerate(side[:n]) if s]
    if len(cert) != n:
        raise LPError(
            f"basis certificate has {len(cert)} conditions for {n} variables on a {m}x{N} tableau"
        )

    return BasicOptimal(
        values=values,
        objective_value=float(lp.objective @ values),
        basis_certificate=cert,
        pivots=pivots,
    )
