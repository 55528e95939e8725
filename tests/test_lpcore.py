import numpy as np
import pytest

from discmed.lpcore import InfeasibleLP, LinearProgram, solve

from .helpers import certificate_matrix, random_feasible_lp, vertex_enum_optimum


def test_single_variable_lower_bound():
    lp = LinearProgram(1, objective=[1.0], lo=[0.0], hi=[10.0])
    lp.add_row([1.0], ">=", 3.0)
    res = solve(lp)
    assert res.values[0] == pytest.approx(3.0, abs=1e-9)
    assert res.objective_value == pytest.approx(3.0, abs=1e-9)


def test_unit_square_corner():
    lp = LinearProgram(2, objective=[1.0, 1.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
    res = solve(lp)
    assert np.allclose(res.values, [0.0, 0.0], atol=1e-9)


def test_equality_row_enters_directly():
    lp = LinearProgram(2, objective=[1.0, 2.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
    lp.add_row([1.0, 1.0], "=", 1.0)
    res = solve(lp)
    assert res.objective_value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.values, [1.0, 0.0], atol=1e-7)
    assert ("row", 0) in res.basis_certificate


def test_infeasible_detected():
    lp = LinearProgram(1, lo=[0.0], hi=[10.0])
    lp.add_row([1.0], ">=", 2.0)
    lp.add_row([1.0], "<=", 1.0)
    with pytest.raises(InfeasibleLP):
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
                lhs = float(lp.row_coeffs[idx] @ res.values)
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
            elif rel == "<=":
                assert lhs[i] <= lp.row_rhs[i] + 1e-7 * scale
            else:
                assert lhs[i] >= lp.row_rhs[i] - 1e-7 * scale
        assert np.all(res.values >= lp.lo - 1e-7)
        assert np.all(res.values <= lp.hi + 1e-7)


def test_redundant_equalities_are_tolerated():
    lp = LinearProgram(2, objective=[1.0, 0.0], lo=[0.0, 0.0], hi=[2.0, 2.0])
    lp.add_row([1.0, 1.0], "=", 2.0)
    lp.add_row([2.0, 2.0], "=", 4.0)  # same hyperplane
    res = solve(lp)
    assert res.objective_value == pytest.approx(0.0, abs=1e-9)


def test_fixed_variable_bounds():
    lp = LinearProgram(2, objective=[-1.0, -1.0], lo=[1.0, 0.0], hi=[1.0, 1.0])
    lp.add_row([1.0, 1.0], "<=", 1.5)
    res = solve(lp)
    assert res.values[0] == pytest.approx(1.0)
    assert res.values[1] == pytest.approx(0.5, abs=1e-9)


def test_certificate_after_dropping_a_redundant_row():
    # Identical "= 1" rows plus a "<= 1" row over the same pair (x6, x7), as
    # in an auxiliary LP whose ball row repeats an outer-ball row. Phase 1
    # drops a tableau row whose artificial cannot leave; the certificate must
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
            assert float(lp.row_coeffs[idx] @ res.values) == pytest.approx(lp.row_rhs[idx])
