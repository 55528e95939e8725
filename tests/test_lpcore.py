import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discmed import fractional, generate, iterround, knapsack, lpcore, stochastic
from discmed.fractional import build_natural_lp, solve_natural
from discmed.knapsack import ExtendedInstance
from discmed.lpcore import InfeasibleLP, LinearProgram, LPError, UnboundedLP, solve

from .helpers import (
    add_dense_row,
    certificate_matrix,
    left_out_equalities,
    random_feasible_lp,
    vertex_enum_optimum,
)

try:
    from scipy.optimize import linprog  # test-only yardstick; never a runtime dependency
except ImportError:
    linprog = None

# the largest tableau each form is given: every tableau an array, or every
# tableau row lists; ``solve`` picks by size, these tests pick the form, and
# those that match a message or patch a hook run on both
FORMS = {"arrays": -1, "lists": math.inf}


def solver(form: str):
    """``solve`` with every tableau in ``form``."""
    return lambda lp, start=None: lpcore._solve(lp, start, FORMS[form])


FORM_SOLVES = [solver(form) for form in sorted(FORMS)]


def test_single_variable_lower_bound():
    lp = LinearProgram(1, objective=[1.0], lo=[0.0], hi=[10.0])
    lp.add_row({0: -1.0}, "<=", -3.0)  # x0 >= 3
    res = solve(lp)
    assert res.values[0] == pytest.approx(3.0, abs=1e-9)
    assert res.objective_value == pytest.approx(3.0, abs=1e-9)


def test_unit_square_corner():
    lp = LinearProgram(2, objective=[1.0, 1.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
    res = solve(lp)
    assert np.allclose(res.values, [0.0, 0.0], atol=1e-9)


def test_equality_row_enters_directly():
    lp = LinearProgram(2, objective=[1.0, 2.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
    lp.add_row({0: 1.0, 1: 1.0}, "=", 1.0)
    res = solve(lp)
    assert res.objective_value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.values, [1.0, 0.0], atol=1e-7)
    assert ("row", 0) in res.basis_certificate


def test_infeasible_detected():
    lp = LinearProgram(1, lo=[0.0], hi=[10.0])
    lp.add_row({0: -1.0}, "<=", -2.0)  # x0 >= 2
    lp.add_row({0: 1.0}, "<=", 1.0)
    message = (
        r"phase-1 optimum is positive \(1\): the artificial of row 0 \(<=\) stays basic at 1 "
        r"on a 2x4 tableau"
    )
    for solve in FORM_SOLVES:
        with pytest.raises(InfeasibleLP, match=message):
            solve(lp)


def test_infeasible_names_the_row_owning_the_largest_artificial():
    # A strengthened natural LP of the knapsack_enum corpus. Phase 1 ends with
    # row 1's artificial basic in tableau row 1 at 1.1e-16 and row 0's in
    # tableau row 5 at 0.662: the message names the row owning the larger one.
    lp = LinearProgram(5)
    lp.add_row({2: 1.0, 3: 1.0}, "=", 1.0)
    lp.add_row({4: 1.0}, "=", 1.0)
    lp.add_row({0: 3.155, 1: 3.093}, "<=", 3.389)
    lp.add_row({0: -1.0, 2: 1.0}, "<=", 0.0)
    lp.add_row({1: -1.0, 3: 1.0}, "<=", 0.0)
    lp.add_row({1: -1.0, 4: 1.0}, "<=", 0.0)
    lp.add_row({0: -4.863842527091406, 2: 3.5340422931115425}, "<=", 0.0)
    lp.add_row({1: -4.863842527091406, 3: 3.9844597981932797, 4: 3.8889903820656317}, "<=", 0.0)
    message = (
        r"phase-1 optimum is positive \(0\.662\): the artificial of row 0 \(=\) stays basic "
        r"at 0\.662 on a 8x13 tableau$"
    )
    for solve in FORM_SOLVES:
        with pytest.raises(InfeasibleLP, match=message):
            solve(lp)


def test_matches_vertex_enumeration_on_random_lps():
    rng = np.random.default_rng(20240601)
    solved = 0
    for _ in range(50):
        lp = random_feasible_lp(rng)
        expected = vertex_enum_optimum(lp)
        assert expected is not None  # feasible by construction
        res = solve(lp)
        assert res.objective_value == pytest.approx(expected, abs=1e-6)
        solved += 1
    assert solved == 50


def test_returned_point_is_a_vertex():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lp = random_feasible_lp(rng)
        res = solve(lp)
        mat = certificate_matrix(lp, res.basis_certificate)
        assert mat.shape[0] == lp.n_vars
        assert np.linalg.matrix_rank(mat, tol=1e-8) == lp.n_vars
        # the certificate's equations really are tight at the solution
        for kind, idx in res.basis_certificate:
            if kind == "row":
                lhs = float(lp.matrix()[idx] @ res.values)
                assert lhs == pytest.approx(lp.row_rhs[idx], abs=1e-6)
            elif kind == "lo":
                assert res.values[idx] == pytest.approx(lp.lo[idx], abs=1e-6)
            else:
                assert res.values[idx] == pytest.approx(lp.hi[idx], abs=1e-6)


def test_deterministic_resolve():
    rng = np.random.default_rng(99)
    for _ in range(10):
        lp = random_feasible_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert np.array_equal(a.values, b.values)
        assert a.basis_certificate == b.basis_certificate


def test_feasibility_of_returned_point():
    rng = np.random.default_rng(13)
    for _ in range(25):
        lp = random_feasible_lp(rng)
        res = solve(lp)
        A = lp.matrix()
        lhs = A @ res.values
        for i, rel in enumerate(lp.row_rel):
            scale = max(1.0, abs(lp.row_rhs[i]))
            if rel == "=":
                assert abs(lhs[i] - lp.row_rhs[i]) <= 1e-7 * scale
            else:
                assert lhs[i] <= lp.row_rhs[i] + 1e-7 * scale
        assert np.all(res.values >= lp.lo - 1e-7)
        assert np.all(res.values <= lp.hi + 1e-7)


def test_redundant_equalities_are_tolerated():
    lp = LinearProgram(2, objective=[1.0, 0.0], lo=[0.0, 0.0], hi=[2.0, 2.0])
    lp.add_row({0: 1.0, 1: 1.0}, "=", 2.0)
    lp.add_row({0: 2.0, 1: 2.0}, "=", 4.0)  # same hyperplane
    res = solve(lp)
    assert res.objective_value == pytest.approx(0.0, abs=1e-9)


def test_certificate_count_error_names_tableau_and_dropped_rows(monkeypatch):
    # artificials that name no original row leave the redundant row's equality
    # in the certificate: one condition too many
    tableau = lpcore._tableau

    def unnamed(*args):
        *setup, art = tableau(*args)
        return (*setup, [-1] * len(art))

    monkeypatch.setattr(lpcore, "_tableau", unnamed)
    lp = LinearProgram(2, objective=[1.0, 0.0], lo=[0.0, 0.0], hi=[2.0, 2.0])
    lp.add_row({0: 1.0, 1: 1.0}, "=", 2.0)
    lp.add_row({0: 2.0, 1: 2.0}, "=", 4.0)
    message = r"basis certificate has 3 conditions for 2 variables on a 2x4 tableau$"
    for solve in FORM_SOLVES:
        with pytest.raises(LPError, match=message):
            solve(lp)


def test_fixed_variable_bounds():
    lp = LinearProgram(2, objective=[-1.0, -1.0], lo=[1.0, 0.0], hi=[1.0, 1.0])
    lp.add_row({0: 1.0, 1: 1.0}, "<=", 1.5)
    res = solve(lp)
    assert res.values[0] == pytest.approx(1.0)
    assert res.values[1] == pytest.approx(0.5, abs=1e-9)


def test_certificate_after_dropping_a_redundant_row():
    # Identical "= 1" rows plus a "<= 1" row over the same pair (x6, x7), as
    # auxiliary LPs held while each client stated its own ball. Phase 1 ends
    # with an artificial that cannot leave the basis; the certificate must
    # still list n linearly independent tight conditions.
    rows = [
        ((1, 4), "=", 1), ((0, 1), "=", 1), ((2, 11), "=", 1), ((6, 7), "=", 1),
        ((5, 8), "=", 1), ((0, 9), "=", 1), ((6, 7), "=", 1), ((2, 8), "=", 1),
        ((1, 3, 4), "=", 1), ((2, 11), "=", 1), ((0, 9), "=", 1), ((5, 11), "=", 1),
        ((6, 7), "=", 1), ((3, 4), "<=", 1), ((6, 7), "<=", 1),
        ((0, 2, 3, 4, 6, 7), "<=", 3), ((1, 5, 10), "<=", 1), ((8, 9, 11), "<=", 1),
    ]
    lp = LinearProgram(12)
    for support, rel, rhs in rows:
        lp.add_row({v: 1.0 for v in support}, rel, rhs)
    res = solve(lp)
    mat = certificate_matrix(lp, res.basis_certificate)
    assert mat.shape[0] == lp.n_vars
    assert np.linalg.matrix_rank(mat, tol=1e-8) == lp.n_vars
    for kind, idx in res.basis_certificate:
        if kind == "row":
            assert float(lp.matrix()[idx] @ res.values) == pytest.approx(lp.row_rhs[idx])


def knapsack_extended_instance():
    inst = generate(4, 8, kind="knapsack", seed=3)
    return inst, ExtendedInstance(inst, ("f00",), inst.clients, 1 / 3, 2 / 3, 100.0)


# sha1 of values.tobytes() + repr(basis_certificate), recorded before the
# tableau update became row-sparse and kept when it came to skip the pivot
# row's zero columns too: the pivot may get cheaper, never move the vertex
@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: (generate(8, 20, kind="cardinality", seed=1), None),
         "d911a956766a7cb0e7bf188d69d387b0f6da0147"),
        (lambda: (generate(8, 20, kind="cardinality", seed=2), None),
         "f53cc7128fe4f8e3d4a72663ad5e7f8d977ba8d3"),
        (lambda: (generate(8, 20, kind="partition", seed=1), None),
         "e01de191e5fd39235fc3ac6d6348a5a5e116b9cc"),
        (lambda: (generate(8, 20, kind="partition", seed=2), None),
         "0abd5b7e2b35f3fc973d7a1621829cc69831f1e5"),
        (knapsack_extended_instance, "10b15900f7c873bf38d09d80f55be23b8410052b"),
    ],
    ids=["cardinality-1", "cardinality-2", "partition-1", "partition-2", "knapsack-extended"],
)
def test_natural_lp_vertex_is_pinned(build, digest):
    res = solve(build_natural_lp(*build()).lp)
    got = hashlib.sha1(res.values.tobytes() + repr(res.basis_certificate).encode()).hexdigest()
    assert got == digest


# a small tableau: integer entries, signed zeros and whole zero columns
PIVOT_ENTRIES = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0])


@st.composite
def pivot_cases(draw):
    """A small tableau and a (row, col) whose entry is larger than PIVOT_TOL."""
    m, N = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    T = np.array(draw(st.lists(PIVOT_ENTRIES, min_size=m * N, max_size=m * N))).reshape(m, N)
    for j in draw(st.sets(st.integers(0, N - 1))):
        T[:, j] = np.copysign(0.0, T[:, j])  # a zero column, keeping each entry's sign
    row, col = draw(st.integers(0, m - 1)), draw(st.integers(0, N - 1))
    T[row, col] = draw(st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]))
    return T, row, col


@given(case=pivot_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_pivot_matches_the_dense_update(case):
    T0, row, col = case
    T = T0.copy()
    lpcore._pivot(T, row, col)
    assert_dense_pivot(T0, row, col, T)
    rows = T0.tolist()
    lpcore._pivot_rows(rows, row, col)
    assert_dense_pivot(T0, row, col, np.array(rows))


def assert_dense_pivot(T0, row, col, T):
    """``T`` is ``T0`` pivoted on (row, col) as a dense update does it, and
    keeps the bits of every entry the block update leaves out."""
    assert abs(T0[row, col]) > lpcore.PIVOT_TOL
    prow = T0[row] / T0[row, col]
    colv = T0[:, col].copy()
    colv[row] = 0.0
    ref = T0.copy()
    ref[row] = prow
    ref -= np.outer(colv, prow)  # the independent dense reference

    assert np.array_equal(T, ref)
    assert T[row].tobytes() == prow.tobytes()
    touched = colv != 0.0
    # in the rows the update touches, a column with a nonzero in the pivot row
    # is bitwise the reference, and every other column keeps its bits
    nz = prow != 0.0
    assert T[touched][:, nz].tobytes() == ref[touched][:, nz].tobytes()
    assert T[touched][:, ~nz].tobytes() == T0[touched][:, ~nz].tobytes()
    untouched = ~touched
    untouched[row] = False
    assert T[untouched].tobytes() == T0[untouched].tobytes()


def degenerate_lp(rng: np.random.Generator, n: int, m: int) -> LinearProgram:
    """Small integer LP with tied costs, rows through one integer point and
    about 30% repeated rows (each repeat takes a fresh relation)."""
    lo = rng.choice([-1.0, 0.0], size=n)
    hi = lo + rng.choice([0.0, 1.0, 2.0], size=n, p=[0.1, 0.6, 0.3])
    lp = LinearProgram(n, objective=rng.choice([-1.0, 0.0, 1.0], size=n), lo=lo, hi=hi)
    point = lo + rng.integers(0, hi - lo + 1)
    drawn = []
    for _ in range(m):
        if drawn and rng.random() < 0.3:
            a, rhs = drawn[int(rng.integers(len(drawn)))]
        else:
            a = rng.integers(-2, 3, size=n).astype(float)
            rhs = float(a @ point) + float(rng.choice([0.0, 0.0, 0.0, 1.0, -1.0]))
        drawn.append((a, rhs))
        add_dense_row(lp, a, str(rng.choice(["<=", "=", ">="])), rhs)
    return lp


def highs(lp: LinearProgram):
    A, b = lp.matrix(), np.asarray(lp.row_rhs)
    ub = np.array(lp.row_rel) == "<="
    return linprog(
        lp.objective,
        A_ub=A[ub] if ub.any() else None,
        b_ub=b[ub] if ub.any() else None,
        A_eq=A[~ub] if (~ub).any() else None,
        b_eq=b[~ub] if (~ub).any() else None,
        bounds=list(zip(lp.lo, lp.hi)),
        method="highs-ds",
    )


def assert_certified(lp: LinearProgram, res) -> None:
    """The certificate lists n independent conditions, each tight at the values."""
    n = lp.n_vars
    mat = certificate_matrix(lp, res.basis_certificate)
    assert mat.shape[0] == n
    assert np.linalg.matrix_rank(mat, tol=1e-8) == n
    bound = {"lo": lp.lo, "hi": lp.hi}
    A = lp.matrix()
    for kind, idx in res.basis_certificate:
        if kind == "row":
            assert A[idx] @ res.values == pytest.approx(lp.row_rhs[idx], abs=1e-7)
        else:
            assert res.values[idx] == pytest.approx(bound[kind][idx], abs=1e-7)


@given(
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_degenerate_lps_return_certified_vertices(n, m, seed):
    for solve in FORM_SOLVES:
        rng = np.random.default_rng(seed)
        lp = degenerate_lp(rng, n, m)
        try:
            res = solve(lp)
        except InfeasibleLP:
            res = None
        else:
            assert_certified(lp, res)
            start = random_start(rng, lp)
            started, refused = solve_noting_refusal(lp, start, solve)
            if refused:
                assert same_result(started, res)
            else:
                assert started.pivots[0] == 0
                assert_certified(lp, started)
    if linprog is None:
        return
    ref = highs(lp)
    assert ref.status == (2 if res is None else 0), ref.message
    if res is not None:
        assert res.objective_value == pytest.approx(ref.fun, abs=1e-7)
        assert started.objective_value == pytest.approx(ref.fun, abs=1e-7)


def random_start(rng: np.random.Generator, lp: LinearProgram) -> np.ndarray:
    """A random start point: each structural at its lower or upper bound."""
    return np.where(rng.random(lp.n_vars) < 0.5, lp.lo, lp.hi)


def solve_noting_refusal(lp: LinearProgram, start, solve=solve):
    """``solve(lp, start)`` and whether the start was refused (a cold solve)."""
    tableau, setups = lpcore._tableau, []

    def noting(*args):
        setups.append(tableau(*args))
        return setups[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpcore, "_tableau", noting)
        res = solve(lp, start)
    return res, setups[0] is None


def same_result(a, b) -> bool:
    """Byte-identical values and objective, and the same certificate and pivots."""
    return (
        a.values.tobytes() == b.values.tobytes()
        and float(a.objective_value).hex() == float(b.objective_value).hex()
        and a.basis_certificate == b.basis_certificate
        and a.pivots == b.pivots
    )


def parity_lp(rng: np.random.Generator, n: int, m: int) -> LinearProgram:
    """Small LP of "=" and "<=" rows, some variables fixed, its rows through
    an integer point or off it. One in four has coefficients of 1e10 and
    2e-10 and costs of 1e4, which reach the unbounded exit and the audits."""
    wild = rng.random() < 0.25
    costs = [-1e4, -1.0, 0.0, 1.0, 1e4] if wild else [-2.0, -1.0, 0.0, 1.0, 3.0]
    coeffs = [-1e10, -1.0, 0.0, 2e-10, 1.0, 1e10] if wild else [-2.0, -1.0, 0.0, 0.0, 1.0, 2.0]
    lo = rng.choice([-1.0, 0.0], size=n)
    hi = lo + rng.choice([0.0, 1.0, 2.0], size=n, p=[0.2, 0.5, 0.3])
    lp = LinearProgram(n, objective=rng.choice(costs, size=n), lo=lo, hi=hi)
    point = lo + rng.integers(0, hi - lo + 1)
    for _ in range(m):
        a = rng.choice(coeffs, size=n)
        rhs = float(a @ point) + float(rng.choice([0.0, 0.0, 0.0, 1.0, -1.0]))
        add_dense_row(lp, a, str(rng.choice(["=", "<="])), rhs)
    return lp


def outcome(solve, lp: LinearProgram, start=None):
    """The bits ``solve`` returns, or the type and message of what it raises."""
    try:
        res = solve(lp, start)
    except LPError as exc:
        return type(exc), str(exc)
    return res.values.tobytes(), float(res.objective_value).hex(), res.basis_certificate, res.pivots


def forms_outcomes(lp: LinearProgram, start=None, pivot_limit=None) -> list:
    """``outcome`` on each form, at ``pivot_limit`` pivots a phase when it is given."""
    with pytest.MonkeyPatch.context() as mp:
        if pivot_limit is not None:
            mp.setattr(lpcore, "PIVOT_LIMIT", pivot_limit)
        return [outcome(solve, lp, start) for solve in FORM_SOLVES]


# the two examples reach the unbounded exit and the pivot limit; draws also
# end infeasible, fail an audit or have their start refused
@given(
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pivot_limit=st.sampled_from([None, None, 0, 1, 3]),
)
@example(n=3, m=4, seed=3, pivot_limit=None)
@example(n=3, m=4, seed=0, pivot_limit=1)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_forms_agree_bit_for_bit(n, m, seed, pivot_limit):
    rng = np.random.default_rng(seed)
    lp = parity_lp(rng, n, m)
    start = random_start(rng, lp) if rng.random() < 0.5 else None
    arrays, lists = forms_outcomes(lp, start, pivot_limit)
    assert arrays == lists
    if (n, m, seed) == (3, 4, 3):
        assert arrays == (UnboundedLP, "objective unbounded below")
    elif (n, m, seed, pivot_limit) == (3, 4, 0, 1):
        assert arrays[0] is LPError and arrays[1].startswith("pivot limit exceeded")


def solved_lps(run) -> list:
    """Every natural and auxiliary LP ``run`` solves, with its start."""
    seen = []

    def recording_solve(lp, start=None):
        seen.append((lp, None if start is None else np.array(start)))
        return solve(lp, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fractional, "solve", recording_solve)
        mp.setattr(iterround, "solve", recording_solve)
        run()
    return seen


@pytest.mark.parametrize(
    "run",
    [
        lambda: iterround.solve_kmeddis(generate(4, 8, kind="cardinality", seed=1), tau=1.91),
        lambda: iterround.solve_matmeddis(generate(4, 8, kind="partition", seed=1), tau=2.36),
        lambda: knapsack.solve_knapmeddis(
            generate(2, 2, kind="knapsack", discount_scale=0.4, seed=1),
            tau=1.9, rho=0.5, delta=2 / 3, epsilon=0.25,
        ),
        lambda: stochastic.solve_stochastic_center(
            stochastic.generate_stochastic(4, 3, kind="cardinality", seed=1),
            tau=1.91, epsilon=0.2,
        ),
    ],
    ids=["cardinality", "partition", "knapsack", "stochastic-sweep"],
)
def test_forms_agree_on_every_lp_of_a_solve(run):
    lps = solved_lps(run)
    assert len(lps) > 1
    for lp, start in lps:
        arrays, lists = forms_outcomes(lp, start)
        assert arrays == lists


def solve_noting_left_out(lp: LinearProgram):
    """``solve(lp)`` and the rows it left out of the certificate: the
    equality rows absent from it."""
    res = solve(lp)
    return res, left_out_equalities(lp, res.basis_certificate)


def assert_left_out_implied(lp: LinearProgram, left_out) -> None:
    """The equality rows left out of the certificate are implied by those in it."""
    eq = [i for i, rel in enumerate(lp.row_rel) if rel == "="]
    assert np.linalg.matrix_rank(lp.matrix()[eq]) == len(eq) - len(left_out)


def test_certificate_leaves_out_the_row_of_an_artificial_off_its_own_row():
    # An auxiliary LP of the seed-1 lp_heavy corpus, with the repeated ball
    # rows each client stated while it had its own row. Phase 1 ends with
    # artificials basic in redundant tableau rows that are not their own; the
    # equalities they belong to are the ones left out of the certificate. Values,
    # objective and pivots were recorded before the rule changed; only the
    # certificate moved.
    objective = [
        -39.06524371379125, 0.0, -30.0840525413536, 0.0, 9.822435668538002, 9.822435668538002,
        0.0, -17.153602309195946, 0.0, 27.7208985512135, 0.0,
    ]
    rows = [
        ((2, 9), "=", 1), ((7, 9), "=", 1), ((4, 5), "=", 1), ((0, 9), "=", 1),
        ((4, 5), "=", 1), ((0, 9), "=", 1), ((2, 9), "=", 1), ((7, 9), "=", 1),
        ((2, 9), "=", 1), ((0, 2), "=", 1), ((2, 7), "=", 1), ((7,), "<=", 1),
        ((9,), "<=", 1), ((9,), "<=", 1), ((0,), "<=", 1), ((2,), "<=", 1),
        ((9,), "<=", 1), ((2,), "<=", 1), ((0,), "<=", 1), ((0,), "<=", 1),
        ((0, 9), "=", 1), ((4, 5), "=", 1), ((2, 7), "=", 1), ((4, 5), "<=", 1),
        (tuple(range(11)), "<=", 3),
    ]
    lp = LinearProgram(11, objective=objective)
    for support, rel, rhs in rows:
        lp.add_row({v: 1.0 for v in support}, rel, rhs)
    res, left_out = solve_noting_left_out(lp)
    assert res.values.tolist() == [0.5, 0.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.0]
    assert float(res.objective_value).hex() == "-0x1.377f3d51be45dp+4"
    assert res.pivots == (8, 0)
    assert res.basis_certificate == [
        ("row", 0), ("row", 1), ("row", 2), ("row", 3), ("row", 9), ("row", 24),
        ("lo", 3), ("lo", 5), ("lo", 6), ("lo", 8), ("lo", 10),
    ]
    assert sorted(left_out) == [4, 5, 6, 7, 8, 10, 20, 21, 22]
    assert_left_out_implied(lp, left_out)
    assert_certified(lp, res)


def laminar_lp(rng: np.random.Generator, n: int, m: int) -> LinearProgram:
    """Small LP through one integer point whose equality rows include sums
    of earlier equality rows and repeats of them, as an auxiliary LP's
    laminar ball rows do (and its client rows did, before each ball had one row)."""
    lo = rng.choice([-1.0, 0.0], size=n)
    hi = lo + rng.choice([1.0, 2.0], size=n)
    lp = LinearProgram(n, objective=rng.choice([-1.0, 0.0, 1.0], size=n), lo=lo, hi=hi)
    point = lo + rng.integers(0, hi - lo + 1)
    eqs = []
    for _ in range(m):
        kind = rng.random()
        if eqs and kind < 0.5:  # a sum of earlier equality rows, or a repeat of one
            picked = rng.choice(len(eqs), size=int(rng.integers(1, min(3, len(eqs)) + 1)))
            a = sum(eqs[k] for k in picked)
            rel = "="
        else:
            a = rng.integers(0, 2, size=n).astype(float)
            rel = "=" if kind < 0.8 else str(rng.choice(["<=", ">="]))
        if rel == "=":
            eqs.append(a)
        add_dense_row(lp, a, rel, float(a @ point))
    return lp


@given(
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_dependent_equality_rows_give_certified_vertices(n, m, seed):
    lp = laminar_lp(np.random.default_rng(seed), n, m)
    res, left_out = solve_noting_left_out(lp)
    assert_certified(lp, res)
    assert_left_out_implied(lp, left_out)
    if linprog is not None:
        ref = highs(lp)
        assert ref.status == 0, ref.message
        assert res.objective_value == pytest.approx(ref.fun, abs=1e-7)


def two_row_lp(rel0: str, rel1: str, row1=(-1.0, -1.0)) -> LinearProgram:
    """x0 + x1 ``rel0`` 1 (row 0) and ``row1`` @ x ``rel1`` -1 (row 1)."""
    lp = LinearProgram(2, objective=[-1.0, -2.0])
    lp.add_row({0: 1.0, 1: 1.0}, rel0, 1.0)
    lp.add_row({0: row1[0], 1: row1[1]}, rel1, -1.0)
    return lp


@pytest.mark.parametrize(
    "rels, row1, start",
    [
        (("<=", "<="), (-1.0, -1.0), [0.5, 0.0]),  # x0 = 0.5 lies off both its bounds
        (("=", "<="), (-1.0, -1.0), [0.0, 0.0]),  # row 0 has no structural at its upper bound
        # rows 0 and 1 both make x0 basic: its second pivot is 0, the only way
        # a started basis is singular, as the first column at its upper bound
        # of each "=" row gives a triangular one otherwise. Here the rows are
        # independent (their vertex is x = (2/3, 1/3)), yet x0 is chosen twice ...
        (("=", "="), (-2.0, 1.0), [1.0, 0.0]),
        # ... and here the rows are dependent, so every start chooses one
        # column twice and no started basis is nonsingular
        (("=", "="), (-1.0, -1.0), [1.0, 0.0]),
        (("<=", "<="), (-1.0, -1.0), [1.0, 1.0]),  # row 0's slack is -1
    ],
    ids=["off-bounds", "short-basis", "repeated", "singular", "infeasible"],
)
def test_unusable_start_solves_cold(rels, row1, start):
    lp = two_row_lp(*rels, row1=row1)
    for solve in FORM_SOLVES:
        cold = solve(lp)
        assert cold.pivots[0] > 0  # row 0 or row 1 needs an artificial, so phase 1 runs
        res, refused = solve_noting_refusal(lp, np.array(start), solve)
        assert refused and same_result(res, cold)


def test_ill_conditioned_start_solves_cold():
    # x = (1, 1) is feasible with x0 basic, but row 0 pivots on 1e-12
    lp = LinearProgram(2, objective=[-1.0, -2.0])
    lp.add_row({0: 1e-12, 1: 1.0}, "=", 1.0)
    for solve in FORM_SOLVES:
        res, refused = solve_noting_refusal(lp, np.array([1.0, 1.0]), solve)
        assert refused and same_result(res, solve(lp))


@pytest.mark.parametrize("start", [[1.0, 0.0], [1.0], [1.0, 0.0, 0.0, 1.0]], ids=len)
def test_start_of_another_length_is_an_lp_error(start):
    lp = LinearProgram(3, objective=[-1.0, -2.0, 0.0])
    lp.add_row({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 1.0)
    for solve in FORM_SOLVES:
        with pytest.raises(LPError, match=rf"^start has {len(start)} values for 3 variables$"):
            solve(lp, np.array(start))


def natural_lp_solved(inst):
    """The natural LP that ``solve_natural(inst)`` builds and the result it gets."""
    seen = []

    def recording_solve(lp, start=None):
        seen.append((lp, solve(lp, start)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fractional, "solve", recording_solve)
        solve_natural(inst)
    ((lp, res),) = seen
    return lp, res


def assert_greedy_start_matches_cold(inst):
    lp, res = natural_lp_solved(inst)
    assert res.pivots[0] == 0  # the greedy vertex was taken as the start
    assert res.objective_value == pytest.approx(solve(lp).objective_value, rel=1e-9)
    assert_certified(lp, res)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["cardinality", "uniform", "partition", "explicit"])
def test_natural_lp_starts_at_a_greedy_vertex(kind, seed):
    assert_greedy_start_matches_cold(generate(6, 12, kind=kind, seed=seed))


@given(
    kind=st.sampled_from(["cardinality", "uniform", "partition", "explicit"]),
    nf=st.integers(min_value=1, max_value=6),
    nc=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_natural_lp_starts_at_a_greedy_vertex_on_random_instances(kind, nf, nc, seed):
    assert_greedy_start_matches_cold(generate(nf, nc, kind=kind, seed=seed))


def test_infeasible_greedy_start_solves_cold(monkeypatch):
    greedy_start = fractional.greedy_start

    def closed(nat, inst):
        x0 = greedy_start(nat, inst)
        x0[: len(inst.facilities)] = 0.0  # every y at 0: each x at 1 breaks its x <= y row
        return x0

    monkeypatch.setattr(fractional, "greedy_start", closed)
    lp, res = natural_lp_solved(generate(8, 20, kind="cardinality", seed=1))
    assert res.pivots[0] > 0
    assert same_result(res, solve(lp))


def test_greedy_point_starts_the_natural_lp_with_rows_permuted():
    inst = generate(8, 20, kind="partition", seed=1)
    nat = build_natural_lp(inst)
    x0 = fractional.greedy_start(nat, inst)
    lp = nat.lp
    shuffled = LinearProgram(lp.n_vars, objective=lp.objective, lo=lp.lo, hi=lp.hi)
    A = lp.matrix()
    for i in np.random.default_rng(1).permutation(lp.n_rows).tolist():
        add_dense_row(shuffled, A[i], lp.row_rel[i], lp.row_rhs[i])
    res = solve(shuffled, x0)
    assert res.pivots[0] == 0
    # the same vertex; the permuted pivots may round its values differently
    np.testing.assert_allclose(res.values, solve(lp, x0).values, rtol=0.0, atol=1e-12)
    assert_certified(shuffled, res)


# sha1 of values.tobytes() + repr(basis_certificate) + repr(pivots) of the
# crash-started natural LP, recorded while the start was a (basis, side) pair
# rebuilt by its own set-up: the one set-up may not move its vertex or path
@pytest.mark.parametrize(
    "kind, digest",
    [
        ("cardinality", "9bad77163725b59e6c472565cc9d3ddfd349a8fa"),
        ("uniform", "9bad77163725b59e6c472565cc9d3ddfd349a8fa"),
        ("partition", "ec573db320a4f4362b6f7e8116d2f4d9ae2c363c"),
        ("explicit", "ad3613eafb6583a7bf9e4b3630904d2bf55f1cd0"),
    ],
)
def test_crash_started_natural_lp_is_pinned(kind, digest):
    _, res = natural_lp_solved(generate(8, 20, kind=kind, seed=1))
    assert res.pivots[0] == 0
    blob = res.values.tobytes() + repr(res.basis_certificate).encode() + repr(res.pivots).encode()
    assert hashlib.sha1(blob).hexdigest() == digest


# sha1 as above, of a natural LP where most pivot rows are sparse (961 rows,
# 915 variables, 1,211 phase-2 pivots), recorded while the tableau update
# still subtracted whole rows
def test_crash_started_15x60_natural_lp_is_pinned():
    _, res = natural_lp_solved(generate(15, 60, kind="cardinality", seed=0))
    assert res.pivots == (0, 1211)
    blob = res.values.tobytes() + repr(res.basis_certificate).encode() + repr(res.pivots).encode()
    assert hashlib.sha1(blob).hexdigest() == "87c1d91345d2d8f5f8b813678f7056753aa357b7"


@pytest.mark.parametrize(
    "sign, message",
    [
        (-1.0, r"pivot limit exceeded in phase 1 on a 1x4 tableau"),  # slack and artificial
        (1.0, r"pivot limit exceeded in phase 2 on a 1x3 tableau"),  # slack only
    ],
    ids=["phase-1", "phase-2"],
)
def test_pivot_limit_names_phase_and_tableau(monkeypatch, sign, message):
    monkeypatch.setattr(lpcore, "PIVOT_LIMIT", 0)
    lp = LinearProgram(2, objective=[-1.0, -1.0])
    lp.add_row({0: sign, 1: sign}, "<=", sign)  # x0 + x1 >= 1, or x0 + x1 <= 1
    for solve in FORM_SOLVES:
        with pytest.raises(LPError, match=message):
            solve(lp)


def test_bound_audit_names_the_variable(monkeypatch):
    # a negative tolerance fails every value at its bound, so the audit
    # must report the first one: the row-free LP keeps x0 at its lower bound
    monkeypatch.setattr(lpcore, "FEAS_TOL", -1.0)
    lp = LinearProgram(2, objective=[1.0, 1.0], lo=[0.25, 0.0], hi=[1.0, 1.0])
    message = r"post-hoc bound check failed: x\[0\] = 0.25 outside \[0.25, 1.0\]"
    for solve in FORM_SOLVES:
        with pytest.raises(LPError, match=message):
            solve(lp)


def test_row_audit_names_the_first_failing_row(monkeypatch):
    # the start (1, 0) makes x0 basic in row 1, at 0.5; moved off by 0.5 to x0 = 1,
    # it breaks rows 1 and 2 and keeps row 0, and phase 2 has no pivot to make
    tableau = lpcore._tableau

    def off(*args):
        begun = tableau(*args)
        begun[3][1] += 0.5  # the basic value of row 1
        return begun

    monkeypatch.setattr(lpcore, "_tableau", off)
    lp = LinearProgram(2)
    lp.add_row({0: 1.0, 1: 1.0}, "<=", 1.5)
    lp.add_row({0: 1.0}, "=", 0.5)
    lp.add_row({0: 1.0}, "<=", 0.75)
    for solve in FORM_SOLVES:
        with pytest.raises(LPError, match=r"post-hoc feasibility failed on row 1: residual 0.5$"):
            solve(lp, np.array([1.0, 0.0]))


@pytest.mark.parametrize("rel", [">=", "<", "=="])
def test_add_row_refuses_other_relations(rel):
    lp = LinearProgram(2)
    with pytest.raises(LPError, match=f"relation '{rel}' is neither '=' nor '<='"):
        lp.add_row({0: 1.0}, rel, 1.0)
    assert lp.n_rows == 0
    assert lp.matrix().shape == (0, 2)


def lp_with_row(coeffs: dict) -> LinearProgram:
    """x0 <= 1 (row 0) and the row ``coeffs`` = 1 (row 1) over two variables."""
    lp = LinearProgram(2, objective=[1.0, 1.0])
    lp.add_row({0: 1.0}, "<=", 1.0)
    lp.add_row(coeffs, "=", 1.0)
    return lp


def lp_with_rhs(rhs: float) -> LinearProgram:
    """x0 <= 1 (row 0) and x0 + x1 <= ``rhs`` (row 1) over two variables."""
    lp = LinearProgram(2, objective=[1.0, 1.0])
    lp.add_row({0: 1.0}, "<=", 1.0)
    lp.add_row({0: 1.0, 1: 1.0}, "<=", rhs)
    return lp


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: lp_with_row({-1: 1.0}), "row 1 names variable -1 of an LP over 2 variables"),
        (lambda: lp_with_row({0: 1.0, 5: 1.0}), "row 1 names variable 5 of an LP over 2 variables"),
        (lambda: LinearProgram(3, objective=np.ones(2)), "objective has 2 values for 3 variables"),
        (lambda: LinearProgram(3, lo=np.zeros(2)), "lo has 2 values for 3 variables"),
        (lambda: LinearProgram(3, hi=np.ones(4)), "hi has 4 values for 3 variables"),
        (lambda: LinearProgram(2, objective=[np.nan, 1.0]), "objective entry 0 is nan, not finite"),
        (lambda: LinearProgram(2, objective=[1, -np.inf]), "objective entry 1 is -inf, not finite"),
        (lambda: lp_with_row({0: 1.0, 1: np.nan}),
         r"row 1 coefficient of variable 1 is nan, not finite"),
        (lambda: lp_with_row({0: np.inf}), r"row 1 coefficient of variable 0 is inf, not finite"),
        (lambda: lp_with_row({1: -np.inf}),
         r"row 1 coefficient of variable 1 is -inf, not finite"),
        (lambda: lp_with_rhs(np.nan), r"row 1 right-hand side is nan, not finite"),
        (lambda: lp_with_rhs(-np.inf), r"row 1 right-hand side is -inf, not finite"),
        (lambda: lp_with_rhs(np.inf), r"row 1 right-hand side is inf, not finite"),
    ],
    ids=[
        "negative-variable", "variable-past-the-end", "short-objective", "short-lo", "long-hi",
        "nan-objective", "infinite-objective", "nan-coefficient", "infinite-coefficient",
        "negative-infinite-coefficient", "nan-rhs", "negative-infinite-rhs", "infinite-rhs",
    ],
)
def test_malformed_lp_is_an_lp_error(build, message):
    for solve in FORM_SOLVES:
        with pytest.raises(LPError, match=f"^{message}$"):
            solve(build())


def _aux_lps(monkeypatch, run) -> tuple[str, str, int]:
    """For every auxiliary LP ``run`` solves: the sha1 of the values and
    objectives, the sha1 of the values and certificates, and the number of
    LPs that hold two identical rows."""
    vertices, certificates = hashlib.sha1(), hashlib.sha1()
    repeating = 0

    def recording_solve(lp):
        nonlocal repeating
        res = solve(lp)
        vertices.update(res.values.tobytes() + float(res.objective_value).hex().encode())
        certificates.update(res.values.tobytes() + repr(res.basis_certificate).encode())
        rows = zip(lp.row_rel, lp.row_rhs, map(bytes, lp.matrix()))
        repeating += len(set(rows)) < lp.n_rows
        return res

    monkeypatch.setattr(iterround, "solve", recording_solve)
    run()
    return vertices.hexdigest(), certificates.hexdigest(), repeating


def _knapsack_rounding_every_task():
    # a task settled by its chain's carried vertex reuses that vertex's
    # rounding and solves no auxiliary LP; solving each task without the
    # carry rounds every feasible task, so the digest keeps covering all
    # their LPs
    solve_extended = knapsack.solve_extended

    def fresh(ext, tau, carry=None):
        return solve_extended(ext, tau)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knapsack, "solve_extended", fresh)
        knapsack.solve_knapmeddis(
            generate(2, 2, kind="knapsack", discount_scale=0.4, seed=1),
            tau=1.9, rho=0.5, delta=2 / 3, epsilon=0.25,
        )


# the auxiliary LPs of these solves drive artificials out and flip bounds;
# the vertex digests were recorded before the rounding loop stated each ball
# once, and the certificate digests before the simplex kept one signed
# bound-side array, re-pinned where the ball rows were renumbered
@pytest.mark.parametrize(
    "run, vertices, certificates",
    [
        (lambda: iterround.solve_kmeddis(generate(8, 20, kind="cardinality", seed=1), tau=1.91),
         "c245a307ad9e2882cd58fd370adb23c8762492e2", "70d261166943d07944b71786c294a5cabd0c7ae7"),
        (lambda: iterround.solve_matmeddis(generate(8, 20, kind="partition", seed=1), tau=2.36),
         "ea2cbc9768e1a5199cd1ffd67505436c34973036", "cc1a7061c8a3f7eef0bbc5259bb996229a716240"),
        (_knapsack_rounding_every_task,
         "910fb873358b998c04ac85587ffb612e2da71fe0", "486a990ae56d18cfc5b854c19d1fd4f97612bf91"),
    ],
    ids=["cardinality", "partition", "knapsack"],
)
def test_auxiliary_lp_vertices_are_pinned(monkeypatch, run, vertices, certificates):
    got_vertices, got_certificates, repeating = _aux_lps(monkeypatch, run)
    assert got_vertices == vertices
    assert repeating == 0  # no auxiliary LP holds two identical rows
    assert got_certificates == certificates
