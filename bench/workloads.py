"""Seeded corpora, public solve calls and oracle checks of the benchmark workloads.

Every function here receives ``lib``, the namespace of freshly imported
discmed modules, and reaches the solvers through module attributes at call
time, so the wrappers a traced run installs see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 1

# criterion-5 knapsack parameters
KNAP_OPTS = dict(tau=1.9, rho=0.5, delta=2.0 / 3.0, epsilon=0.25)
KNAP_DISCOUNT_SCALE = 0.4
# (generator kind, tau) of each family
LP_FAMILIES = (("cardinality", 1.91), ("partition", 2.36))
# stochastic sweep families and the sweep step
STOCH_FAMILIES = (("cardinality", 1.91), ("uniform", 1.985))
STOCH_EPSILON = 0.2

# Corpus sizes: (facilities, clients or points, instances per family) for a
# 40 s run; the runner scales the counts with --seconds. At these sizes one
# pass takes about 30 s on a 2-core x86 VM with Python 3.11 and numpy 2.4.
REFERENCE_SECONDS = 40.0
LP_LADDER = ((8, 20, 3), (10, 30, 18), (12, 40, 1))
KNAP_SIZES = ((2, 2, 576),)
STOCH_SIZES = ((4, 3, 48), (4, 4, 48), (4, 5, 48), (4, 6, 48))


@dataclass(frozen=True)
class Case:
    case_id: str
    family: str
    inst: Any  # Instance or StochasticInstance
    tau: float = 0.0


@dataclass
class Checked:
    """Oracle verdict on one solve: true cost, optimum and certified ratio."""

    cost: float
    opt: float
    ratio: float  # certified lhs / rhs; at most 1 when the guarantee holds
    problems: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[tuple[int, int, int], ...]
    build: Callable[[Any, int, tuple], list[Case]]
    warm_up: Callable[[Any], None]
    solve: Callable[[Any, Case], Any]
    key: Callable[[Any], str]  # exact rendering of the outputs, for the digest
    check: Callable[[Any, Case, Any], Checked]
    counters: Callable[[Any], dict[str, int]]  # work counts read from one output


def sub_seed(seed: int, *path: int) -> int:
    """Independent generator seed for one instance of the corpus."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _shuffled(cases: list[Case], seed: int) -> list[Case]:
    """Seeded order, so every size and family spreads over the whole pass."""
    order = np.random.default_rng(sub_seed(seed, 0xC0)).permutation(len(cases))
    return [cases[i] for i in order]


def _is_feasible(lib, inst, solution) -> bool:
    return tuple(sorted(solution)) in {
        tuple(sorted(s)) for s in lib.oracle.feasible_sets(inst)
    }


# ---------------------------------------------------------------------------
# cardinality / matroid / knapsack: the deterministic families


def _solve_report(lib, case: Case):
    if case.family == "cardinality":
        return lib.iterround.solve_kmeddis(case.inst, tau=case.tau, h=2)
    if case.family == "partition":
        return lib.iterround.solve_matmeddis(case.inst, tau=case.tau)
    return lib.knapsack.solve_knapmeddis(case.inst, **KNAP_OPTS)


def _report_key(rep) -> str:
    return f"{','.join(sorted(rep.solution))}|{float(rep.lp_optimum).hex()}"


def _check_report(lib, case: Case, rep) -> Checked:
    inst = case.inst
    problems = [f"certificate {c.name} failed" for c in rep.certificates if not c.holds]
    if not _is_feasible(lib, inst, rep.solution):
        problems.append(f"output {rep.solution} is not a feasible set")
    verdict = lib.oracle.check_bicriteria(inst, rep.solution, rep.alpha, rep.beta)
    if not verdict["holds"]:
        problems.append(f"bicriteria bound failed: {verdict['lhs']} > {verdict['rhs']}")
    return Checked(
        cost=lib.instance.discounted_cost(inst, rep.solution, 1.0),
        opt=verdict["opt"],
        ratio=_ratio(verdict["lhs"], verdict["rhs"]),
        problems=problems,
    )


def _ratio(lhs: float, rhs: float) -> float:
    if rhs > 0:
        return lhs / rhs
    return 0.0 if lhs <= 1e-6 else math.inf


def _build_lp(lib, seed: int, sizes) -> list[Case]:
    cases = []
    for rung, (n_fac, n_cli, count) in enumerate(sizes):
        for k in range(count):
            for kind_no, (family, tau) in enumerate(LP_FAMILIES):
                inst = lib.instance.generate(
                    n_fac, n_cli, kind=family, seed=sub_seed(seed, rung, k, kind_no)
                )
                cases.append(Case(f"{family}-{n_fac}x{n_cli}-{k}", family, inst, tau))
    return _shuffled(cases, seed)


def _warm_up_lp(lib) -> None:
    lib.iterround.solve_kmeddis(lib.instance.generate(4, 8, kind="cardinality", seed=0), tau=1.91)
    lib.iterround.solve_matmeddis(lib.instance.generate(4, 8, kind="partition", seed=0), tau=2.36)


def _build_knap(lib, seed: int, sizes) -> list[Case]:
    cases = []
    for rung, (n_fac, n_cli, count) in enumerate(sizes):
        for k in range(count):
            inst = lib.instance.generate(
                n_fac,
                n_cli,
                kind="knapsack",
                discount_scale=KNAP_DISCOUNT_SCALE,
                seed=sub_seed(seed, rung, k),
            )
            cases.append(Case(f"knapsack-{n_fac}x{n_cli}-{k}", "knapsack", inst, KNAP_OPTS["tau"]))
    return _shuffled(cases, seed)


def _warm_up_knap(lib) -> None:
    inst = lib.instance.generate(2, 2, kind="knapsack", discount_scale=KNAP_DISCOUNT_SCALE, seed=0)
    lib.knapsack.solve_knapmeddis(inst, **KNAP_OPTS)


def _knap_counters(rep) -> dict[str, int]:
    return {
        "knapsack.tasks": int(rep.extras["evaluated"]),
        "knapsack.feasible": int(rep.extras["feasible"]),
    }


# ---------------------------------------------------------------------------
# stochastic center sweep


def _build_stoch(lib, seed: int, sizes) -> list[Case]:
    cases = []
    for rung, (n_fac, n_pts, count) in enumerate(sizes):
        for k in range(count):
            for kind_no, (kind, tau) in enumerate(STOCH_FAMILIES):
                st = lib.stochastic.generate_stochastic(
                    n_fac, n_pts, kind=kind, seed=sub_seed(seed, rung, k, kind_no)
                )
                cases.append(Case(f"stochastic-{kind}-{n_fac}x{n_pts}-{k}", kind, st, tau))
    return _shuffled(cases, seed)


def _warm_up_stoch(lib) -> None:
    st = lib.stochastic.generate_stochastic(3, 2, kind="cardinality", seed=0)
    lib.stochastic.solve_stochastic_center(st, tau=1.91, epsilon=STOCH_EPSILON)


def _solve_stoch(lib, case: Case):
    return lib.stochastic.solve_stochastic_center(case.inst, tau=case.tau, epsilon=STOCH_EPSILON)


def _stoch_key(out) -> str:
    solution, rep = out
    sweep = ";".join(f"{s.T.hex()}:{','.join(sorted(s.solution))}" for s in rep.sweep)
    return f"{','.join(sorted(solution))}|{rep.t_star.hex()}|{sweep}"


def _check_stoch(lib, case: Case, out) -> Checked:
    solution, rep = out
    st = case.inst
    problems = []
    if not _is_feasible(lib, st.base, solution):
        problems.append(f"output {solution} is not a feasible set")
    opt = lib.oracle.brute_stochastic_opt(st)
    value = lib.oracle.exact_expected_max(st, solution)
    if rep.expected_max is not None and abs(rep.expected_max - value) > 1e-9 * max(1.0, value):
        problems.append(f"reported E[max] {rep.expected_max} differs from exact {value}")
    rhs = rep.guarantee_constant * opt.value
    if value > rhs + 1e-9:
        problems.append(f"E[max] {value} exceeds the certified bound {rhs}")
    return Checked(cost=value, opt=opt.value, ratio=_ratio(value, rhs), problems=problems)


def _stoch_counters(out) -> dict[str, int]:
    return {"stochastic.sweep_steps": len(out[1].sweep), "stochastic.sweeps": 1}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lp_heavy", LP_LADDER, _build_lp, _warm_up_lp, _solve_report,
            _report_key, _check_report, lambda rep: {},
        ),
        Workload(
            "stochastic_sweep", STOCH_SIZES, _build_stoch, _warm_up_stoch,
            _solve_stoch, _stoch_key, _check_stoch, _stoch_counters,
        ),
        Workload(
            "knapsack_enum", KNAP_SIZES, _build_knap, _warm_up_knap,
            _solve_report, _report_key, _check_report, _knap_counters,
        ),
    )
}


def scaled_sizes(sizes, seconds: float):
    """Instance counts for a run of ``seconds``; at least one per size, so
    ``--seconds 0`` gives the smallest corpus."""
    return tuple(
        (a, b, max(1, round(count * seconds / REFERENCE_SECONDS))) for a, b, count in sizes
    )


def input_digest(lib, cases: list[Case]) -> str:
    """sha1 of the corpus in the library's own JSON schema."""
    h = hashlib.sha1()
    for case in cases:
        if hasattr(case.inst, "points"):
            blob = lib.stochastic.stochastic_to_json(case.inst)
        else:
            blob = lib.instance.to_json(case.inst)
        h.update(json.dumps([case.case_id, case.tau, blob], sort_keys=True).encode())
    return h.hexdigest()
