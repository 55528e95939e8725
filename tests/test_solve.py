"""Properties of ``discmed.solve``: every family's output is certified.

Random valid tiny instances of all three constraint families are solved
through the family dispatch, and each output is checked against the
brute-force oracle: every certificate holds, the set is feasible, and the
bi-criteria bound holds against the exhaustive optimum. Examples are
derandomized so the suite is reproducible.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmed import (
    InstanceError,
    check_bicriteria,
    generate,
    generate_stochastic,
    iterround,
    solve,
    solve_kmeddis,
    solve_knapmeddis,
    solve_matmeddis,
    solve_stochastic_center,
)
from discmed.oracle import feasible_sets

from .helpers import gap_instance

# criterion-5 knapsack parameters
KNAPSACK_OPTIONS = dict(tau=1.9, rho=0.5, delta=2.0 / 3.0, epsilon=0.25)
KNAPSACK_DISCOUNT_SCALE = 0.4
# one option per family that the family's solver does not take
FOREIGN_OPTION = {"cardinality": {"rho": 0.5}, "matroid": {"h": 2}, "knapsack": {"h": 1}}

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def assert_certified(inst, rep):
    assert all(c.holds for c in rep.certificates), [c.name for c in rep.certificates if not c.holds]
    assert tuple(sorted(rep.solution)) in {tuple(sorted(s)) for s in feasible_sets(inst)}
    verdict = check_bicriteria(inst, rep.solution, rep.alpha, rep.beta)
    assert verdict["holds"], verdict


@given(
    kind=st.sampled_from(["cardinality", "uniform", "partition", "explicit"]),
    n_fac=st.integers(min_value=1, max_value=5),
    n_cli=st.integers(min_value=1, max_value=8),
    discount_scale=st.floats(min_value=0.0, max_value=1.0),
    seed=seeds,
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cardinality_and_matroid_solves_are_certified(kind, n_fac, n_cli, discount_scale, seed):
    inst = generate(n_fac, n_cli, kind=kind, discount_scale=discount_scale, seed=seed)
    assert_certified(inst, solve(inst))
    family = "cardinality" if kind == "cardinality" else "matroid"
    with pytest.raises(InstanceError):
        solve(inst, **FOREIGN_OPTION[family])


@given(n_cli=st.integers(min_value=2, max_value=3), seed=seeds)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_knapsack_solves_are_certified(n_cli, seed):
    inst = generate(
        2, n_cli, kind="knapsack", discount_scale=KNAPSACK_DISCOUNT_SCALE, seed=seed
    )
    assert_certified(inst, solve(inst, **KNAPSACK_OPTIONS))
    with pytest.raises(InstanceError):
        solve(inst, **FOREIGN_OPTION["knapsack"])


@given(
    n=st.integers(min_value=4, max_value=6),
    family=st.sampled_from(["cardinality", "uniform", "partition"]),
    seed=seeds,
    jitter=st.sampled_from([0.0, 0.5]),
)
@settings(max_examples=18, deadline=None, derandomize=True)
def test_gap_family_solves_are_certified(n, family, seed, jitter):
    # the gap family's natural LP is fractional, so these solves round
    inst = gap_instance(n, family, seed, jitter)
    assert_certified(inst, solve(inst))


@pytest.mark.parametrize("h", [True, 2.0, 3], ids=["bool", "float", "three"])
def test_step_size_must_be_the_int_1_or_2(monkeypatch, h):
    def no_lp(*args):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(iterround, "solve_natural", no_lp)
    inst = generate(3, 4, kind="cardinality", seed=1)
    for run in (solve_kmeddis, solve):
        with pytest.raises(InstanceError, match=f"step size h must be the int 1 or 2, got {h!r}"):
            run(inst, h=h)


ENTRIES = {
    "solve_kmeddis": lambda **kw: solve_kmeddis(generate(3, 4, seed=1), **kw),
    "solve": lambda **kw: solve(generate(3, 4, seed=1), **kw),
    "solve_matmeddis": lambda **kw: solve_matmeddis(generate(3, 4, "partition", seed=1), **kw),
    "solve_knapmeddis": lambda **kw: solve_knapmeddis(generate(2, 3, "knapsack", seed=1), **kw),
    "solve_stochastic_center": lambda **kw: solve_stochastic_center(
        generate_stochastic(3, 3, seed=1), **{"tau": None, "epsilon": 0.2, **kw}
    ),
    "generate": lambda **kw: generate(**{"n_facilities": 3, "n_clients": 4, **kw}),
}


@pytest.mark.parametrize(
    "entry, kwargs, message",
    [
        ("solve_kmeddis", {"tau": "2"}, "tau must be a number, got '2'"),
        ("solve", {"tau": "2"}, "tau must be a number, got '2'"),
        ("solve_matmeddis", {"tau": None}, "tau must be a number, got None"),
        ("solve_matmeddis", {"tau": 1.0}, "tau must be finite and exceed 1, got 1.0"),
        ("solve_knapmeddis", {"rho": "0.5"}, "rho must be a number, got '0.5'"),
        ("solve_knapmeddis", {"delta": 1.0}, "delta must lie in (0, 1), got 1.0"),
        ("solve_knapmeddis", {"epsilon": True}, "epsilon must be a number, got True"),
        ("solve_knapmeddis", {"jobs": 1.5}, "jobs must be an integer, got 1.5"),
        ("solve_knapmeddis", {"jobs": True}, "jobs must be an integer, got True"),
        ("solve_knapmeddis", {"max_candidates": "9"}, "max_candidates must be an integer, got '9'"),
        ("solve_knapmeddis", {"max_candidates": -1}, "max_candidates must be non-negative, got -1"),
        ("solve_knapmeddis", {"max_candidates": 0.5}, "max_candidates must be an integer, got 0.5"),
        ("solve_stochastic_center", {"tau": "2"}, "tau must be a number, got '2'"),
        ("solve_stochastic_center", {"epsilon": "0.2"}, "epsilon must be a number, got '0.2'"),
        ("solve_stochastic_center", {"epsilon": 1.0}, "epsilon must lie in (0, 1), got 1.0"),
        ("generate", {"n_facilities": 2.5}, "generate: counts must be an integer, got 2.5"),
        ("generate", {"n_facilities": True}, "generate: counts must be an integer, got True"),
        ("generate", {"n_clients": 0}, "generate: counts must be >= 1, got 0"),
        (
            "generate", {"discount_scale": "1"},
            "generate: discount scale must be a number, got '1'",
        ),
    ],
)
def test_public_entries_refuse_malformed_arguments(entry, kwargs, message):
    with pytest.raises(InstanceError, match=re.escape(message) + "$"):
        ENTRIES[entry](**kwargs)
