"""Command line: solve / gen / verify / stochastic with JSON reports.

Exit status: 0 on success with every certificate holding, 2 when a
certificate fails (the report is still written), 1 on input and usage errors
and on a rounding or LP failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .instance import (
    Instance,
    InstanceError,
    _real,
    checked,
    dump,
    from_json,
    generate,
    to_json,
)
from .iterround import RoundingError
from .knapsack import OptionError, SparsifyGuard, solve
from .lpcore import LPError
from .oracle import GuardExceeded, check_bicriteria
from .stochastic import solve_stochastic_center, stochastic_from_json


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed JSON in {path}: {exc}") from exc


def _load_instance(path: str) -> Instance:
    inst = from_json(_load_json(path))
    checked(inst)  # reports stay in the file's units, so the original is returned
    return inst


def _emit(blob: dict, out: str | None) -> None:
    text = json.dumps(blob, indent=1, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# solver parameters set by a flag of another name
_FLAGS = {"h": "--step", "caps": "--cap1/--cap2"}


def _family_options(args, names) -> dict:
    """Family-only flags the user set, keyed by solver parameter name."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    opts = _family_options(args, ("h", "rho", "delta", "epsilon", "max_candidates", "jobs"))
    if args.cap1 is not None or args.cap2 is not None:
        opts["caps"] = (args.cap1, args.cap2)
    rep = solve(inst, args.tau, **opts)

    blob = rep.to_json()
    blob["version"] = __version__
    blob["config"] = {
        "command": "solve",
        "instance": args.instance,
        "tau": rep.tau,
        "step": args.h,
        "rho": args.rho,
        "delta": args.delta,
        "epsilon": args.epsilon,
        "cap1": args.cap1,
        "cap2": args.cap2,
        "maxCandidates": args.max_candidates,
        "jobs": args.jobs,
    }
    if args.oracle:
        cert = check_bicriteria(inst, rep.solution, rep.alpha, rep.beta)
        blob["oracle"] = cert
        blob["certificates"].append(
            {
                "name": "bicriteria_vs_bruteforce",
                "lhs": cert["lhs"],
                "rhs": cert["rhs"],
                "holds": cert["holds"],
            }
        )
    _emit(blob, args.out)
    return 0 if all(c["holds"] for c in blob["certificates"]) else 2


def _cmd_gen(args) -> int:
    inst = generate(
        args.facilities,
        args.clients,
        kind=args.kind,
        discount_scale=args.discount_scale,
        seed=args.seed,
    )
    if args.out:
        dump(inst, args.out)
    else:
        print(json.dumps(to_json(inst), indent=1, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    report = _load_json(args.report)
    try:
        solution = report["solution"]
        alpha = _real(report["alpha"], "report alpha")
        beta = _real(report["beta"], "report beta")
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"malformed report: {exc}") from exc
    if not (isinstance(solution, list) and all(isinstance(f, str) for f in solution)):
        raise InstanceError(f"report solution must be a list of ids, got {json.dumps(solution)}")
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(value):  # the verdict is strict JSON, which has no nan or inf
            raise InstanceError(f"report {name} must be finite, got {value}")
    cert = check_bicriteria(inst, solution, alpha, beta)
    _emit(cert, args.out)
    return 0 if cert["holds"] else 2


def _cmd_stochastic(args) -> int:
    stoch = stochastic_from_json(_load_json(args.instance))
    solution, rep = solve_stochastic_center(
        stoch,
        tau=args.tau,
        epsilon=args.epsilon,
        knap_options=_family_options(args, ("rho", "delta", "max_candidates", "jobs")),
    )
    blob = rep.to_json()
    blob["solution"] = list(solution)
    blob["version"] = __version__
    blob["config"] = {
        "command": "stochastic",
        "instance": args.instance,
        "tau": rep.tau,
        "epsilon": args.epsilon,
    }
    certified = rep.expected_max <= (rep.alpha + rep.beta) * rep.t_star + 1e-6
    blob["certificates"] = [
        {
            "name": "expected_max_le_alpha_beta_Tstar",
            "lhs": rep.expected_max,
            "rhs": (rep.alpha + rep.beta) * rep.t_star,
            "holds": bool(certified),
        }
    ]
    _emit(blob, args.out)
    return 0 if certified else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as bad input does; 2 means a failed certificate."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="discmed",
        description="median clustering with per-client discounts: solvers and certifiers",
    )
    parser.add_argument("--version", action="version", version=f"discmed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="solve one instance and emit a certified report")
    solve_p.add_argument("instance")
    solve_p.add_argument("--tau", type=float, default=None)
    # family-only flags default to None: only the ones given reach the solver
    solve_p.add_argument("--step", dest="h", type=int, choices=(1, 2), default=None)
    solve_p.add_argument("--rho", type=float, default=None)
    solve_p.add_argument("--delta", type=float, default=None)
    solve_p.add_argument("--epsilon", type=float, default=None)
    solve_p.add_argument("--cap1", type=int, default=None)
    solve_p.add_argument("--cap2", type=int, default=None)
    solve_p.add_argument("--max-candidates", type=int, default=None)
    solve_p.add_argument("--jobs", type=int, default=None)
    solve_p.add_argument("--out", default=None)
    solve_p.add_argument("--oracle", action="store_true")
    solve_p.set_defaults(func=_cmd_solve)

    gen_p = sub.add_parser("gen", help="generate a random instance")
    gen_p.add_argument("--facilities", type=int, required=True)
    gen_p.add_argument("--clients", type=int, required=True)
    gen_p.add_argument(
        "--kind",
        choices=("cardinality", "uniform", "partition", "explicit", "knapsack"),
        default="cardinality",
    )
    gen_p.add_argument("--discount-scale", type=float, default=0.5)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", default=None)
    gen_p.set_defaults(func=_cmd_gen)

    verify_p = sub.add_parser("verify", help="check a report against the brute-force oracle")
    verify_p.add_argument("instance")
    verify_p.add_argument("report")
    verify_p.add_argument("--out", default=None)
    verify_p.set_defaults(func=_cmd_verify)

    sto_p = sub.add_parser("stochastic", help="stochastic center via the discount sweep")
    sto_p.add_argument("instance")
    sto_p.add_argument("--tau", type=float, default=None)
    sto_p.add_argument("--epsilon", type=float, default=0.1)
    sto_p.add_argument("--rho", type=float, default=None)
    sto_p.add_argument("--delta", type=float, default=None)
    sto_p.add_argument("--max-candidates", type=int, default=None)
    sto_p.add_argument("--jobs", type=int, default=None)
    sto_p.add_argument("--out", default=None)
    sto_p.set_defaults(func=_cmd_stochastic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OptionError as exc:  # name the flags, not the solver parameters
        flags = [_FLAGS.get(n, "--" + n.replace("_", "-")) for n in exc.names]
        print(f"error: {OptionError(exc.family, flags)}", file=sys.stderr)
        return 1
    except (InstanceError, SparsifyGuard, GuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RoundingError as exc:
        print(f"rounding failure: {exc}", file=sys.stderr)
        return 1
    except LPError as exc:
        print(f"LP failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
