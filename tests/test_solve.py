"""Properties of ``discmed.solve``: every family's output is certified.

Random valid tiny instances of all three constraint families are solved
through the family dispatch, and each output is checked against the
brute-force oracle: every certificate holds, the set is feasible, and the
bi-criteria bound holds against the exhaustive optimum. Examples are
derandomized so the suite is reproducible.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmed import InstanceError, check_bicriteria, generate, solve
from discmed.oracle import feasible_sets

# criterion-5 knapsack parameters
KNAPSACK_OPTIONS = dict(tau=1.9, rho=0.5, delta=2.0 / 3.0, epsilon=0.25)
KNAPSACK_DISCOUNT_SCALE = 0.4
# one option per family that the family's solver does not take
FOREIGN_OPTION = {"cardinality": {"rho": 0.5}, "matroid": {"h": 2}, "knapsack": {"h": 1}}

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def assert_certified(inst, rep):
    assert rep.all_hold, [c.name for c in rep.certificates if not c.holds]
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
