"""discmed benchmark: solve a seeded corpus, time it, and check every output.

Usage, from the repository root:

    python3 bench/run.py --workload lp_heavy --seed 1 --seconds 40 --trace 0

One run sets up (imports discmed from ``src/``, generates the corpus, warms
up), then solves the corpus one instance at a time, timing each public solve
call. ``--seconds`` scales the corpus so that the pass takes about four fifths
of that long, leaving the rest for set-up and checks. Set-up is repeated
before and after the pass, so its median samples the host over the whole run.
Every output is then checked outside the timed region with its certificates
and the brute-force oracle. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it makes one untraced pass and one traced pass
over a freshly generated copy of the corpus, and reports the per-layer
metrics. The last line of standard output is one JSON object; the exit code
is 1 when any check failed and 2 when discmed cannot be imported.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark is a closed loop of one caller, and on a
# small shared machine a second BLAS thread measures the scheduler
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from spans import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, input_digest, scaled_sizes  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MODULES = (
    "instance", "lpcore", "fractional", "discretize", "iterround", "knapsack", "stochastic",
    "oracle",
)
SETUP_REPEATS = 6  # before the timed pass, and as many again after it
TAIL_BEYOND = 10  # instances of a pass the tail percentile leaves above it

# name, unit: the end-to-end metrics of the JSON result
END_TO_END = (
    ("solve_s.p50", "s"),
    ("solve_s.tail", "s"),
    ("instances_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cost_vs_opt", "ratio"),
)
# printed with them but left out of the JSON result: on a correct run the
# first is always 0 and the second can be, and any failure exits non-zero
REPORTED_ONLY = (("fail_share", "ratio"), ("guarantee_ratio.max", "ratio"))


@dataclass
class Attempt:
    seconds: float
    key: str | None  # exact rendering of the outputs; None when the solve raised
    counters: dict[str, int]


def import_discmed() -> SimpleNamespace:
    """Import discmed from this checkout's ``src/``, afresh."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "discmed" or m.startswith("discmed.")]:
        del sys.modules[name]
    importlib.import_module("discmed")
    lib = SimpleNamespace(**{m: importlib.import_module(f"discmed.{m}") for m in MODULES})
    if not Path(lib.instance.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"discmed was imported from {lib.instance.__file__}, not {src}")
    return lib


def set_up(workload, seed: int, sizes):
    """Import, build the corpus and warm up, SETUP_REPEATS times; wall times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = import_discmed()
        cases = workload.build(lib, seed, sizes)
        workload.warm_up(lib)
        times.append(perf_counter() - t0)
    return lib, cases, times


def solve_pass(workload, lib, cases, tracer=None, outputs=None) -> list[Attempt]:
    """Solve every case once; full outputs go to ``outputs`` when it is given."""
    attempts = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.instance_id = i
        t0 = perf_counter()
        try:
            result = workload.solve(lib, case)
        except Exception:  # a failed solve is counted, and the run goes on
            attempts.append(Attempt(perf_counter() - t0, None, {}))
            print(f"solve of {case.case_id} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            result = None
        else:
            took = perf_counter() - t0
            attempts.append(Attempt(took, workload.key(result), workload.counters(result)))
        if outputs is not None:
            outputs.append(result)
    return attempts


def outputs_digest(cases, attempts: list[Attempt]) -> str:
    h = hashlib.sha1()
    for case, a in zip(cases, attempts):
        h.update(f"{case.case_id}:{'raised' if a.key is None else a.key}\n".encode())
    return h.hexdigest()


def verify(workload, lib, cases, outputs, passes: list[list[Attempt]]):
    """Oracle-check the first pass's outputs; a later pass must repeat them exactly.

    Returns (per-case verdicts, None where the solve raised; failed attempts;
    oracle seconds).
    """
    t0 = perf_counter()
    verdicts, failed = [], 0
    for i, case in enumerate(cases):
        verdict = None if outputs[i] is None else workload.check(lib, case, outputs[i])
        verdicts.append(verdict)
        for problem in verdict.problems if verdict else ():
            print(f"check of {case.case_id} failed: {problem}", file=sys.stderr)
        ref = passes[0][i].key
        for p in passes:
            if verdict is None or verdict.problems or p[i].key != ref:
                failed += 1
            if verdict is not None and p[i].key != ref:
                print(f"outputs of {case.case_id} differ between passes", file=sys.stderr)
    return verdicts, failed, perf_counter() - t0


def nearest_rank(sorted_values, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def tail_percentile(n_cases: int) -> int:
    """Highest whole percentile that leaves TAIL_BEYOND instances above it."""
    return max(50, math.floor(100 * (n_cases - TAIL_BEYOND) / n_cases))


def end_to_end(attempts, verdicts, failed: int, setup_s: float, tail_pct: int) -> dict[str, float]:
    times = sorted(a.seconds for a in attempts)
    checked = [v for v in verdicts if v is not None]
    sum_cost = sum(v.cost for v in checked)
    sum_opt = sum(v.opt for v in checked)
    return {
        "solve_s.p50": statistics.median(times),
        "solve_s.tail": nearest_rank(times, tail_pct),
        "instances_per_s": len(times) / sum(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cost_vs_opt": sum_cost / sum_opt if sum_opt > 0 else (1.0 if sum_cost == 0 else math.inf),
        "fail_share": failed / len(attempts),
        "guarantee_ratio.max": max((v.ratio for v in checked), default=0.0),
    }


def run_plain(workload, lib, cases, set_up_again, tail_pct):
    outputs = []
    attempts = solve_pass(workload, lib, cases, outputs=outputs)
    verdicts, failed, _ = verify(workload, lib, cases, outputs, [attempts])
    # set-up times from before the pass and as many again from after it
    setup_s = statistics.median(set_up_again())
    e2e = end_to_end(attempts, verdicts, failed, setup_s, tail_pct)
    print(f"outputs sha1 {outputs_digest(cases, attempts)}")
    print(f"{len(attempts)} solves, {failed} failed")
    units = dict(END_TO_END + REPORTED_ONLY)
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = failed == 0 and e2e["guarantee_ratio.max"] <= 1.0 and math.isfinite(e2e["cost_vs_opt"])
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return correct, len(attempts), failed, metrics


def run_traced(workload, lib, cases, build, spans_path):
    outputs = []
    untraced = solve_pass(workload, lib, cases, outputs=outputs)
    tracer = Tracer(lib)
    with tracer.installed():
        traced = solve_pass(workload, lib, build(), tracer)
    _, failed, check_s = verify(workload, lib, cases, outputs, [untraced, traced])
    digest, traced_digest = outputs_digest(cases, untraced), outputs_digest(cases, traced)
    print(f"outputs sha1 {digest} untraced, {traced_digest} traced")
    print(f"{2 * len(cases)} solves, {failed} failed")
    counters: dict[str, int] = {}
    for a in traced:
        for k, n in a.counters.items():
            counters[k] = counters.get(k, 0) + n
    layers = layer_metrics(tracer, counters)
    layers["oracle.check_s"] = check_s
    layers["trace.overhead_s"] = sum(a.seconds for a in traced) - sum(a.seconds for a in untraced)
    for name, unit, _, _ in PER_LAYER:
        print(f"{name} {layers[name]:.6g} {unit}")
    spans_path.parent.mkdir(exist_ok=True)
    tracer.save(spans_path)
    print(f"{len(tracer)} spans written to {spans_path.relative_to(ROOT)}")
    correct = failed == 0 and digest == traced_digest
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
    return correct, 2 * len(cases), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0, help="scales the corpus")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    workload = WORKLOADS[args.workload]
    sizes = scaled_sizes(workload.sizes, args.seconds)
    try:
        lib, cases, setup_times = set_up(workload, args.seed, sizes)
    except ImportError as exc:
        print(f"cannot import discmed: {exc}", file=sys.stderr)
        return 2
    tail_pct = tail_percentile(len(cases))
    print(f"workload {workload.name}: seed {args.seed}, {len(cases)} instances, tail = p{tail_pct}")
    print(f"inputs sha1 {input_digest(lib, cases)}")

    if args.trace:
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
        result = run_traced(
            workload, lib, cases, lambda: workload.build(lib, args.seed, sizes), spans_path
        )
    else:
        result = run_plain(
            workload, lib, cases,
            lambda: setup_times + set_up(workload, args.seed, sizes)[2], tail_pct,
        )
    correct, attempted, failed, metrics = result
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
