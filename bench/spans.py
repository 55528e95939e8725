"""Outside-in tracing: spans around the public functions of discmed's modules.

The tracer replaces module attributes (``discmed.fractional.solve``,
``discmed.iterround.iter_round``, ...) with wrappers that record one span per
call: name, start, end, parent span, corpus instance id and how the call
ended. Spans stay in memory in flat arrays; ``save`` writes them out once the
run is over. Nothing under ``src/`` is modified, and ``installed`` restores
every attribute it replaced.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (defining module, function): spans are named "module.function", and the
# function is wrapped under every module attribute that binds it
TARGETS = (
    ("instance", "generate"),
    ("instance", "normalize"),
    ("instance", "validate"),
    ("lpcore", "solve"),
    ("fractional", "solve_natural"),
    ("fractional", "build_natural_lp"),
    ("fractional", "make_distance_optimal"),
    ("fractional", "duplicate_facilities"),
    ("fractional", "duplicate_star_balanced"),
    ("discretize", "choose_offset"),
    ("iterround", "iter_round"),
    ("iterround", "solve_kmeddis"),
    ("iterround", "solve_matmeddis"),
    ("knapsack", "solve_knapmeddis"),
    ("knapsack", "solve_extended"),
    ("knapsack", "compute_Rj"),
    ("knapsack", "sparsify_structures"),
    ("stochastic", "solve_stochastic_center"),
    ("stochastic", "eval_expected_max"),
)
# the LP core is told apart by the module that calls it: fractional solves
# the natural relaxation, iterround the auxiliary LPs of the rounding loop
BINDING_NAMES = {
    ("fractional", "solve"): "lpcore.natural",
    ("iterround", "solve"): "lpcore.aux",
}

OK, INFEASIBLE, RAISED = 0, 1, 2

# name, unit, better, definition. Times and counts are per corpus pass;
# "busy" is inclusive wall time inside the wrapped calls, "self" is busy
# time minus the child spans.
PER_LAYER = (
    ("instance.generate_s", "s", "lower", "busy in generate while the corpus is built"),
    ("instance.validate_s", "s", "lower", "busy in normalize and validate during solves"),
    ("lpcore.natural.calls", "count", "lower", "natural-relaxation LP solves"),
    ("lpcore.natural.busy_s", "s", "lower", "busy in natural-relaxation LP solves"),
    ("lpcore.natural.solve_s.p50", "s", "lower", "median natural LP solve time"),
    ("lpcore.aux.calls", "count", "lower", "auxiliary LP solves of the rounding loop"),
    ("lpcore.aux.busy_s", "s", "lower", "busy in auxiliary LP solves"),
    ("lpcore.rows.max", "count", "lower", "most rows of an LP passed in"),
    ("lpcore.vars.max", "count", "lower", "most variables of an LP passed in"),
    ("lpcore.tableau_mb.max", "MB", "lower",
     "computed, not measured: rows x (variables + slacks) x 8 B of the largest LP"),
    ("lpcore.infeasible", "count", "lower", "LP solves that raised InfeasibleLP"),
    ("fractional.build_natural_lp_s", "s", "lower", "busy in build_natural_lp"),
    ("fractional.water_fill_s", "s", "lower", "busy in make_distance_optimal"),
    ("fractional.duplicate_s", "s", "lower", "busy in facility duplication"),
    ("fractional.self_s", "s", "lower", "self time of the fractional spans"),
    ("discretize.choose_offset.calls", "count", "lower", "offset searches"),
    ("discretize.choose_offset_s", "s", "lower", "busy in choose_offset"),
    ("iterround.iter_round_s", "s", "lower", "busy in the rounding loop"),
    ("iterround.self_s", "s", "lower", "self time of iter_round (aux LPs excluded)"),
    ("iterround.rounds", "count", "lower", "rounding iterations, summed len(state.trace)"),
    ("iterround.pipeline_self_s", "s", "lower",
     "self time of solve_kmeddis/solve_matmeddis: certification and snapping"),
    ("knapsack.tasks", "count", "lower", "extended instances evaluated"),
    ("knapsack.feasible", "count", "higher", "extended instances giving a candidate"),
    ("knapsack.feasible_ratio", "ratio", "higher", "feasible / tasks"),
    ("knapsack.lp_solves", "count", "lower", "natural LP solves inside solve_extended"),
    ("knapsack.lp_feasible_ratio", "ratio", "higher",
     "natural LP solves inside solve_extended that were feasible / lp_solves"),
    ("knapsack.solve_extended_s", "s", "lower", "busy in solve_extended"),
    ("knapsack.compute_Rj_s", "s", "lower", "busy in compute_Rj"),
    ("knapsack.sparsify_s", "s", "lower", "busy in sparsify_structures"),
    ("knapsack.self_s", "s", "lower", "self time of the knapsack spans"),
    ("stochastic.sweep_steps", "count", "lower", "discount values solved, summed len(report.sweep)"),
    ("stochastic.steps_per_sweep", "count", "lower", "sweep_steps / sweeps"),
    ("stochastic.core_solve_s", "s", "lower", "busy in the solves the sweep makes"),
    ("stochastic.eval_expected_max_s", "s", "lower", "busy in eval_expected_max"),
    ("stochastic.self_s", "s", "lower", "self time of the stochastic spans"),
    ("oracle.check_s", "s", "lower", "the benchmark's own oracle checks of one pass"),
    ("trace.overhead_s", "s", "lower", "traced pass time minus untraced pass time"),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.instance = array("q")
        self.status = array("b")
        self.instance_id = -1  # corpus instance the spans belong to
        self.counts: dict[str, int] = {}
        self.maxima = {"lpcore.rows": 0, "lpcore.vars": 0, "lpcore.tableau_mb": 0.0}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _wrap(self, fn, name: str, on_call=None, on_return=None):
        idx = self._intern(name)
        infeasible = self.lib.lpcore.InfeasibleLP
        stack = self._stack

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            sid = len(self.start)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.instance.append(self.instance_id)
            self.status.append(OK)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except infeasible:
                self.status[sid] = INFEASIBLE
                raise
            except BaseException:
                self.status[sid] = RAISED
                raise
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _lp_sizes(self, args, kwargs) -> None:
        lp = args[0] if args else kwargs["lp"]
        rows = lp.n_rows
        slacks = sum(1 for rel in lp.row_rel if rel != "=")
        m = self.maxima
        m["lpcore.rows"] = max(m["lpcore.rows"], rows)
        m["lpcore.vars"] = max(m["lpcore.vars"], lp.n_vars)
        m["lpcore.tableau_mb"] = max(m["lpcore.tableau_mb"], rows * (lp.n_vars + slacks) * 8 / 1e6)

    def _count_rounds(self, result) -> None:
        _, state = result
        self.counts["iterround.rounds"] = self.counts.get("iterround.rounds", 0) + len(state.trace)

    @contextmanager
    def installed(self):
        """Wrap every binding of the target functions; restore them on exit."""
        modules = [
            (name.rpartition(".")[2], mod)
            for name, mod in list(sys.modules.items())
            if name == "discmed" or name.startswith("discmed.")
        ]
        replaced = []
        try:
            for defining, func in TARGETS:
                original = getattr(getattr(self.lib, defining), func, None)
                if original is None:
                    print(f"trace: discmed.{defining}.{func} not found; not traced", file=sys.stderr)
                    continue
                on_call = self._lp_sizes if defining == "lpcore" else None
                on_return = self._count_rounds if func == "iter_round" else None
                for short, mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            name = BINDING_NAMES.get((short, attr), f"{defining}.{func}")
                            setattr(mod, attr, self._wrap(original, name, on_call, on_return))
                            replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "instance": np.array(self.instance, dtype=np.int64),
            "status": np.array(self.status, dtype=np.int8),
        }

    def save(self, path) -> None:
        """Write every span (parent is an index into the same arrays)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanView:
    """Durations, self times and ancestry of every span recorded."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.status = a["status"]
        self.instance = a["instance"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def prefix(self, prefix: str) -> np.ndarray:
        return np.isin(self.name, [i for i, n in enumerate(self.names) if n.startswith(prefix)])

    def under(self, names: tuple[str, ...], ancestors: tuple[str, ...]) -> np.ndarray:
        """Spans named ``names`` with an ancestor named in ``ancestors``."""
        anc = self.mask(*ancestors)
        inside = np.zeros(len(self.dur), dtype=bool)
        for i, p in enumerate(self.parent.tolist()):  # parents precede children
            if p >= 0:
                inside[i] = inside[p] or anc[p]
        return inside & self.mask(*names)

    def child_of(self, names: tuple[str, ...], parents: tuple[str, ...]) -> np.ndarray:
        has_parent = self.parent >= 0
        out = np.zeros(len(self.dur), dtype=bool)
        out[has_parent] = self.mask(*parents)[self.parent[has_parent]]
        return out & self.mask(*names)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counters: dict[str, int]) -> dict[str, float]:
    """Every PER_LAYER metric except the oracle and overhead figures.

    The traced pass builds its corpus (spans with instance id -1) and then
    solves it; ``counters`` are output counts summed over the pass.
    """
    v = SpanView(tracer)
    solving = v.instance >= 0

    def busy(m):
        return float(v.dur[m & solving].sum())

    def own(m):
        return float(v.self_time[m & solving].sum())

    def calls(m):
        return float((m & solving).sum())

    natural = v.mask("lpcore.natural")
    aux = v.mask("lpcore.aux")
    lps = v.mask("lpcore.natural", "lpcore.aux", "lpcore.solve")
    knap_lps = v.under(("lpcore.natural",), ("knapsack.solve_extended",))
    knap_lp_ok = knap_lps & (v.status == OK)
    tasks = counters.get("knapsack.tasks", 0)
    feasible = counters.get("knapsack.feasible", 0)
    sweeps = counters.get("stochastic.sweeps", 0)
    steps = counters.get("stochastic.sweep_steps", 0)
    core = v.child_of(
        ("iterround.solve_kmeddis", "iterround.solve_matmeddis", "knapsack.solve_knapmeddis"),
        ("stochastic.solve_stochastic_center",),
    )
    return {
        "instance.generate_s": float(v.dur[v.mask("instance.generate") & ~solving].sum()),
        "instance.validate_s": busy(v.mask("instance.normalize", "instance.validate")),
        "lpcore.natural.calls": calls(natural),
        "lpcore.natural.busy_s": busy(natural),
        "lpcore.natural.solve_s.p50": float(np.median(v.dur[natural])) if natural.any() else 0.0,
        "lpcore.aux.calls": calls(aux),
        "lpcore.aux.busy_s": busy(aux),
        "lpcore.rows.max": float(tracer.maxima["lpcore.rows"]),
        "lpcore.vars.max": float(tracer.maxima["lpcore.vars"]),
        "lpcore.tableau_mb.max": float(tracer.maxima["lpcore.tableau_mb"]),
        "lpcore.infeasible": calls(lps & (v.status == INFEASIBLE)),
        "fractional.build_natural_lp_s": busy(v.mask("fractional.build_natural_lp")),
        "fractional.water_fill_s": busy(v.mask("fractional.make_distance_optimal")),
        "fractional.duplicate_s": busy(
            v.mask("fractional.duplicate_facilities", "fractional.duplicate_star_balanced")
        ),
        "fractional.self_s": own(v.prefix("fractional.")),
        "discretize.choose_offset.calls": calls(v.mask("discretize.choose_offset")),
        "discretize.choose_offset_s": busy(v.mask("discretize.choose_offset")),
        "iterround.iter_round_s": busy(v.mask("iterround.iter_round")),
        "iterround.self_s": own(v.mask("iterround.iter_round")),
        "iterround.rounds": float(tracer.counts.get("iterround.rounds", 0)),
        "iterround.pipeline_self_s": own(
            v.mask("iterround.solve_kmeddis", "iterround.solve_matmeddis")
        ),
        "knapsack.tasks": tasks,
        "knapsack.feasible": feasible,
        "knapsack.feasible_ratio": _share(feasible, tasks),
        "knapsack.lp_solves": calls(knap_lps),
        "knapsack.lp_feasible_ratio": _share(float(knap_lp_ok.sum()), float(knap_lps.sum())),
        "knapsack.solve_extended_s": busy(v.mask("knapsack.solve_extended")),
        "knapsack.compute_Rj_s": busy(v.mask("knapsack.compute_Rj")),
        "knapsack.sparsify_s": busy(v.mask("knapsack.sparsify_structures")),
        "knapsack.self_s": own(v.prefix("knapsack.")),
        "stochastic.sweep_steps": steps,
        "stochastic.steps_per_sweep": _share(steps, sweeps),
        "stochastic.core_solve_s": busy(core),
        "stochastic.eval_expected_max_s": busy(v.mask("stochastic.eval_expected_max")),
        "stochastic.self_s": own(v.prefix("stochastic.")),
    }
