import json
import math
import time

import pytest

from discmed import lpcore, stochastic
from discmed.cli import main
from discmed.instance import dump, generate, to_json
from discmed.oracle import exact_expected_max
from discmed.stochastic import generate_stochastic, stochastic_to_json


def run_cli(*argv):
    """Exit status of ``discmed *argv``, also when argparse exits on its own."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_json(path):
    """Parse a report, rejecting the NaN and Infinity tokens strict JSON forbids."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


UNIT_TRIANGLE = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def generated(kind):
    return to_json(generate(3, 4, kind=kind, seed=1))


def rank_zero_matroid(kind):
    """A generated 3x4 ``kind`` matroid instance whose every rank is 0."""
    blob = generated(kind)
    matroid = blob["constraint"]["matroid"]
    key = "caps" if kind == "partition" else "ranks"
    matroid[key] = [0] * len(matroid[key])
    return blob


def tiny_instance(matrix=UNIT_TRIANGLE, discount=0.0, weight=1.0, knapsack=None):
    """One facility, two clients; ``knapsack`` is (facility weight, budget)."""
    blob = {
        "facilities": [{"id": "f0"}],
        "clients": [
            {"id": "c0", "discount": discount, "weight": weight},
            {"id": "c1", "discount": 0.0},
        ],
        "metric": {"type": "explicit", "matrix": [list(row) for row in matrix]},
        "constraint": {"type": "cardinality", "k": 1},
    }
    if knapsack is not None:
        blob["facilities"][0]["weight"] = knapsack[0]
        blob["constraint"] = {"type": "knapsack", "budget": knapsack[1]}
    return blob


REPORT = {"solution": ["f0"], "alpha": 1.0, "beta": 1.0}  # a well-formed report of tiny_instance


def shared_id_instance():
    """Facilities a, b and clients a, c: the facility a and the client a lie 1 apart."""
    return {
        "facilities": [{"id": "a"}, {"id": "b"}],
        "clients": [{"id": "a", "discount": 0.0}, {"id": "c", "discount": 0.0}],
        "metric": {
            "type": "explicit",
            "matrix": [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
        },
        "constraint": {"type": "cardinality", "k": 1},
    }


def edited(blob, path, value):
    """``blob`` with the entry at ``path`` (keys and indices) set to ``value``."""
    *head, last = path
    node = blob
    for key in head:
        node = node[key]
    node[last] = value
    return blob


def stochastic_blob():
    return stochastic_to_json(generate_stochastic(3, 3, seed=1))


class TestGen:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("gen", "--facilities", "4", "--clients", "6", "--seed", "7", "--out", str(a)) == 0
        assert run_cli("gen", "--facilities", "4", "--clients", "6", "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_kinds(self, tmp_path):
        for kind in ("cardinality", "uniform", "partition", "explicit", "knapsack"):
            for facilities in ("1", "4"):
                out = tmp_path / f"{kind}{facilities}.json"
                assert run_cli(
                    "gen", "--facilities", facilities, "--clients", "4",
                    "--kind", kind, "--seed", "1", "--out", str(out),
                ) == 0
                assert out.exists()

    def test_negative_seed_exits_1_in_one_line(self, capsys):
        assert run_cli("gen", "--facilities", "2", "--clients", "2", "--seed", "-1") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("scale", ["-1", "nan", "inf"])
    def test_bad_discount_scale_exits_1_in_one_line(self, capsys, scale):
        argv = ("gen", "--facilities", "2", "--clients", "2", "--discount-scale", scale)
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: generate: discount scale must be finite and non-negative, got {float(scale)}\n"
        )
        assert captured.out == ""


class TestSolveVerify:
    def test_cardinality_round_trip(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        ver_path = tmp_path / "ver.json"
        dump(generate(5, 6, kind="cardinality", seed=3), str(inst_path))
        assert run_cli("solve", str(inst_path), "--tau", "1.91", "--out", str(rep_path)) == 0
        rep = json.loads(rep_path.read_text())
        assert rep["alpha"] < 7.173 and rep["beta"] < 5.281
        assert rep["solution"]
        assert rep["version"]
        assert run_cli("verify", str(inst_path), str(rep_path), "--out", str(ver_path)) == 0
        ver = json.loads(ver_path.read_text())
        assert set(ver) == {"opt", "optSet", "lhs", "rhs", "holds", "alpha", "beta"}
        assert ver["holds"]

    def test_verify_reproducible(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        dump(generate(4, 5, kind="partition", seed=4), str(inst_path))
        assert run_cli("solve", str(inst_path), "--out", str(rep_path)) == 0
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        run_cli("verify", str(inst_path), str(rep_path), "--out", str(v1))
        run_cli("verify", str(inst_path), str(rep_path), "--out", str(v2))
        assert v1.read_bytes() == v2.read_bytes()

    def test_solve_with_oracle_flag(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        dump(generate(4, 5, kind="cardinality", seed=5), str(inst_path))
        assert run_cli("solve", str(inst_path), "--oracle", "--out", str(rep_path)) == 0
        rep = json.loads(rep_path.read_text())
        assert any(c["name"] == "bicriteria_vs_bruteforce" for c in rep["certificates"])

    def test_doctored_report_fails_verify(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        inst = generate(5, 6, kind="cardinality", seed=6)
        dump(inst, str(inst_path))
        run_cli("solve", str(inst_path), "--out", str(rep_path))
        rep = json.loads(rep_path.read_text())
        rep["beta"] = 1e-9  # impossible promise
        rep_path.write_text(json.dumps(rep))
        assert run_cli("verify", str(inst_path), str(rep_path)) == 2

    @pytest.mark.parametrize(
        "report, message",
        [
            pytest.param(
                {**REPORT, "alpha": True}, "error: report alpha must be a number, got true",
                id="bool-alpha",
            ),
            pytest.param(
                {**REPORT, "alpha": None}, "error: report alpha must be a number, got null",
                id="null-alpha",
            ),
            pytest.param(
                {**REPORT, "beta": "5.28"}, 'error: report beta must be a number, got "5.28"',
                id="text-beta",
            ),
            pytest.param(
                {**REPORT, "alpha": math.nan}, "error: report alpha must be finite, got nan",
                id="nan-alpha",
            ),
            pytest.param(
                {**REPORT, "beta": math.inf}, "error: report beta must be finite, got inf",
                id="inf-beta",
            ),
            pytest.param(
                {**REPORT, "solution": "f0"},
                'error: report solution must be a list of ids, got "f0"', id="text-solution",
            ),
            pytest.param(
                {**REPORT, "solution": ["f0", 1]},
                'error: report solution must be a list of ids, got ["f0", 1]', id="int-in-solution",
            ),
            pytest.param(
                {"solution": ["f0"], "beta": 1.0}, "error: malformed report: 'alpha'", id="no-alpha"
            ),
        ],
    )
    def test_malformed_report_exits_1(self, tmp_path, capsys, report, message):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        inst_path.write_text(json.dumps(tiny_instance()))
        rep_path.write_text(json.dumps(report))  # NaN and Infinity tokens where given
        assert run_cli("verify", str(inst_path), str(rep_path)) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    def test_solve_then_verify_sweep(self, tmp_path):
        # certificates (including the oracle one) hold across seeds end to end
        for seed in range(10):
            inst_path = tmp_path / f"i{seed}.json"
            rep_path = tmp_path / f"r{seed}.json"
            dump(generate(4, 5, kind="cardinality", seed=seed), str(inst_path))
            assert run_cli("solve", str(inst_path), "--oracle", "--out", str(rep_path)) == 0
            assert run_cli("verify", str(inst_path), str(rep_path)) == 0

    def test_knapsack_solve(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "rep.json"
        dump(generate(3, 3, kind="knapsack", seed=7), str(inst_path))
        code = run_cli(
            "solve", str(inst_path), "--rho", "0.5", "--epsilon", "0.5",
            "--out", str(rep_path),
        )
        assert code == 0
        rep = strict_json(rep_path)
        assert rep["candidates"]  # per-candidate summaries are embedded
        assert not rep["capsBelowTheoretical"]

    def test_malformed_instance_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("solve", str(bad)) == 1

    @pytest.mark.parametrize(
        "blob, flags, message",
        [
            pytest.param(
                tiny_instance(matrix=((0, 1, 1), (1, 0, 5), (1, 5, 0))), (),
                "triangle violation", id="triangle",
            ),
            pytest.param(
                tiny_instance(discount=math.nan), (), "non-finite discount nan", id="nan-discount"
            ),
            pytest.param(
                tiny_instance(discount=math.inf), (), "non-finite discount inf", id="inf-discount"
            ),
            pytest.param(
                tiny_instance(weight=math.inf), (), "non-finite weight inf",
                id="inf-client-weight",
            ),
            pytest.param(
                tiny_instance(weight=math.nan), (), "non-finite weight nan",
                id="nan-client-weight",
            ),
            pytest.param(
                tiny_instance(knapsack=(math.nan, 2.0)), (), "non-finite knapsack weight",
                id="nan-knapsack-weight",
            ),
            pytest.param(
                tiny_instance(knapsack=(1.0, math.inf)), (), "non-finite knapsack budget",
                id="inf-budget",
            ),
            pytest.param(
                tiny_instance(knapsack=(1.0, 2.0)), ("--tau", "1"), "tau must be finite",
                id="knapsack-tau-1",
            ),
            pytest.param(tiny_instance(), ("--tau", "inf"), "tau must be finite", id="infinite-tau"),
            pytest.param(
                tiny_instance(), ("--rho", "0.9", "--step", "1"),
                "cardinality instances take no option --rho\n", id="foreign-flag",
            ),
            pytest.param(
                to_json(generate(3, 4, kind="partition", seed=1)), ("--step", "1"),
                "matroid instances take no option --step\n", id="matroid-step",
            ),
            pytest.param(
                rank_zero_matroid("partition"), (),
                "error: invalid instance: matroid admits no nonempty independent set",
                id="partition-rank-0",
            ),
            pytest.param(
                rank_zero_matroid("explicit"), (),
                "error: invalid instance: matroid admits no nonempty independent set",
                id="explicit-rank-0",
            ),
            pytest.param(
                tiny_instance(), ("--cap1", "1", "--max-candidates", "9"),
                "take no option --cap1/--cap2, --max-candidates\n", id="knapsack-flags",
            ),
            pytest.param(
                tiny_instance(knapsack=(1.0, 2.0)), ("--epsilon", "nan"),
                "epsilon must be finite and positive, got nan", id="nan-epsilon",
            ),
            pytest.param(
                tiny_instance(knapsack=(1.0, 2.0)), ("--epsilon", "inf"),
                "epsilon must be finite and positive, got inf", id="inf-epsilon",
            ),
            pytest.param(
                tiny_instance(knapsack=(1.0, 2.0)), ("--cap2", "-1"),
                "caps must be nonnegative: cap2 = -1", id="negative-cap",
            ),
            # 1 + 1e-300 rounds to 1, and 1e-9 asks for a grid of 7e8
            # estimates: both are counted, not built
            pytest.param(
                tiny_instance(knapsack=(1.0, 2.0)), ("--epsilon", "1e-300"),
                "error: epsilon=1e-300 gives inf estimate pairs", id="epsilon-1e-300",
            ),
            pytest.param(
                tiny_instance(knapsack=(1.0, 2.0)), ("--epsilon", "1e-9"),
                "error: epsilon=1e-09 gives 6.93e+08 estimate pairs", id="epsilon-1e-9",
            ),
            pytest.param(
                tiny_instance(knapsack=(1.0, 2.0)), ("--jobs", "0"),
                "error: jobs must be at least 1, got 0", id="jobs-0",
            ),
            pytest.param(
                tiny_instance(discount="abc"), (),
                'error: discount must be a number, got "abc"', id="text-discount",
            ),
            pytest.param(
                tiny_instance(discount=True), (),
                "error: discount must be a number, got true", id="bool-discount",
            ),
            pytest.param(
                tiny_instance(weight="2.5"), (),
                'error: client weight must be a number, got "2.5"', id="numeric-text-client-weight",
            ),
            pytest.param(
                tiny_instance(knapsack=(True, 2.0)), (),
                "error: knapsack weight must be a number, got true", id="bool-knapsack-weight",
            ),
            pytest.param(
                tiny_instance(knapsack=(1.0, "2")), (),
                'error: knapsack budget must be a number, got "2"', id="numeric-text-budget",
            ),
            pytest.param(
                edited(tiny_instance(), ("metric",), {
                    "type": "euclidean", "coords": {"f0": [0, 0], "c0": ["1", 0], "c1": [0, 1]},
                }), (),
                'error: coordinate must be a number, got "1"', id="numeric-text-coordinate",
            ),
            pytest.param(
                tiny_instance(matrix=((0, 1, 1), (1, 0), (1, 1, 0))), (),
                "error: malformed instance JSON: setting an array element", id="ragged-row",
            ),
            pytest.param(
                tiny_instance(matrix=((0, 1, "x"), (1, 0, 1), (1, 1, 0))), (),
                'error: distance must be a number, got "x"', id="text-distance",
            ),
            pytest.param(
                tiny_instance(matrix=((0, 1, "1"), (1, 0, 1), (1, 1, 0))), (),
                'error: distance must be a number, got "1"', id="numeric-text-distance",
            ),
            pytest.param(
                edited(tiny_instance(), ("constraint", "k"), "two"), (),
                'error: cardinality k must be an integer, got "two"', id="text-k",
            ),
            pytest.param(
                edited(tiny_instance(), ("constraint", "k"), 2.7), (),
                "error: cardinality k must be an integer, got 2.7", id="fractional-k",
            ),
            pytest.param(
                edited(tiny_instance(), ("constraint", "k"), True), (),
                "error: cardinality k must be an integer, got true", id="bool-k",
            ),
            pytest.param(
                edited(generated("uniform"), ("constraint", "matroid", "rank"), 1.5), (),
                "error: matroid rank must be an integer, got 1.5", id="fractional-rank",
            ),
            pytest.param(
                edited(generated("partition"), ("constraint", "matroid", "caps", 0), False), (),
                "error: partition cap must be an integer, got false", id="bool-cap",
            ),
            pytest.param(
                edited(generated("explicit"), ("constraint", "matroid", "ranks", 1), 0.5), (),
                "error: matroid rank must be an integer, got 0.5", id="fractional-explicit-rank",
            ),
            pytest.param(
                edited(tiny_instance(), ("clients", 0, "id"), 7), (),
                "error: client id 7 is not a string", id="int-client-id",
            ),
            pytest.param(
                edited(tiny_instance(), ("facilities", 0, "id"), None), (),
                "error: facility id null is not a string", id="null-facility-id",
            ),
            pytest.param(
                shared_id_instance(), (),
                "error: invalid instance: ids shared by a facility and a client: ['a']",
                id="facility-and-client-share-an-id",
            ),
        ],
    )
    def test_invariant_violation_exits_1(self, tmp_path, capsys, blob, flags, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))  # NaN and Infinity tokens where given
        assert run_cli("solve", str(bad), *flags) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    def test_lp_failure_exits_1_in_one_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lpcore, "PIVOT_LIMIT", 0)
        inst_path = tmp_path / "inst.json"
        dump(generate(3, 4, kind="cardinality", seed=1), str(inst_path))
        assert run_cli("solve", str(inst_path)) == 1
        err = capsys.readouterr().err
        # the natural LP starts from a greedy vertex, so the limit hits phase 2
        assert "pivot limit exceeded in phase 2 on a 17x28 tableau" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(("solve", "{inst}", "--bogus"), "unrecognized arguments", id="unknown-flag"),
            pytest.param(("solve", "{inst}", "--step", "3"), "invalid choice", id="step-3"),
            pytest.param(("solve", "{inst}", "--tau", "x"), "invalid float value", id="tau-text"),
            pytest.param(("solve", "{inst}", "--seed", "1"), "unrecognized arguments", id="solve-seed"),
            pytest.param(
                ("stochastic", "{inst}", "--seed", "1"), "unrecognized arguments",
                id="stochastic-seed",
            ),
            pytest.param(("solve",), "required: instance", id="missing-path"),
            pytest.param(("solve", "{missing}"), "cannot read", id="unreadable-path"),
            pytest.param((), "required: command", id="no-command"),
        ],
    )
    def test_usage_error_exits_1(self, tmp_path, capsys, argv, message):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(tiny_instance()))
        paths = {"inst": str(inst), "missing": str(tmp_path / "missing.json")}
        assert run_cli(*(a.format(**paths) for a in argv)) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("solve", "--help")])
    def test_help_and_version_exit_0(self, argv):
        assert run_cli(*argv) == 0

    def test_subunit_scale_is_repaired_not_rejected(self, tmp_path):
        half = tmp_path / "half.json"
        half.write_text(
            json.dumps(
                {
                    "facilities": [{"id": "f0"}],
                    "clients": [{"id": "c0", "discount": 0.1}],
                    "metric": {"type": "explicit", "matrix": [[0.0, 0.5], [0.5, 0.0]]},
                    "constraint": {"type": "cardinality", "k": 1},
                }
            )
        )
        rep = tmp_path / "rep.json"
        assert run_cli("solve", str(half), "--out", str(rep)) == 0
        blob = json.loads(rep.read_text())
        assert blob["solution"] == ["f0"]
        # relaxation optimum reported in the instance's original units
        assert blob["lpOptimum"] == pytest.approx(0.4, abs=1e-9)


class TestStochasticCommand:
    def test_matroid_sweep(self, tmp_path):
        st = generate_stochastic(4, 3, kind="uniform", seed=2)
        inst_path = tmp_path / "st.json"
        rep_path = tmp_path / "rep.json"
        inst_path.write_text(json.dumps(stochastic_to_json(st)))
        code = run_cli(
            "stochastic", str(inst_path), "--tau", "1.985",
            "--epsilon", "0.2", "--out", str(rep_path),
        )
        assert code == 0
        rep = strict_json(rep_path)
        assert rep["certificates"][0]["holds"]
        assert rep["solution"]
        assert rep["guaranteeConstant"] == pytest.approx(
            3 * 1.4 * (rep["alpha"] + rep["beta"])
        )

    @pytest.mark.parametrize(
        "blob, message",
        [
            pytest.param(
                edited(stochastic_blob(), ("points", 0, "dist"), {"c00": "half"}),
                'probability must be a number, got "half"', id="text-probability",
            ),
            pytest.param(
                edited(stochastic_blob(), ("points", 0, "dist"), {"c00": "0.5"}),
                'probability must be a number, got "0.5"', id="numeric-text-probability",
            ),
            pytest.param(
                edited(stochastic_blob(), ("points", 0, "dist"), [0.5]),
                "'list' object has no attribute 'items'", id="list-dist",
            ),
            pytest.param([], "expected an object, got list", id="top-level-list"),
        ],
    )
    def test_malformed_stochastic_json_exits_1_in_one_line(self, tmp_path, capsys, blob, message):
        inst_path = tmp_path / "st.json"
        inst_path.write_text(json.dumps(blob))
        assert run_cli("stochastic", str(inst_path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: malformed stochastic JSON: {message}\n"

    def test_tiny_epsilon_exits_1_in_one_line(self, tmp_path, capsys):
        # 1 - 1e-17 rounds to 1, so the sweep's T would never shrink
        inst_path = tmp_path / "st.json"
        inst_path.write_text(json.dumps(stochastic_to_json(generate_stochastic(3, 3, seed=1))))
        assert run_cli("stochastic", str(inst_path), "--epsilon", "1e-17") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: epsilon=1e-17 makes the sweep") and err.count("\n") == 1

    def test_long_sweep_exits_1_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # diameter 7.9 at epsilon 1e-5 is about 2e5 steps, each a full solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a sweep step ran")

        monkeypatch.setattr(stochastic, "solve", no_solve)
        inst_path = tmp_path / "st.json"
        inst_path.write_text(json.dumps(stochastic_to_json(generate_stochastic(3, 3, seed=1))))
        start = time.perf_counter()
        assert run_cli("stochastic", str(inst_path), "--epsilon", "1e-5") == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: epsilon=1e-05 makes the sweep") and err.count("\n") == 1

    def test_many_outcomes_evaluate_exactly(self, tmp_path):
        # 2,519,424 realization outcomes: the expected max is still exact
        st = generate_stochastic(3, 16, kind="cardinality", seed=2, n_clients=17)
        inst_path = tmp_path / "st.json"
        rep_path = tmp_path / "rep.json"
        inst_path.write_text(json.dumps(stochastic_to_json(st)))
        code = run_cli("stochastic", str(inst_path), "--epsilon", "0.3", "--out", str(rep_path))
        rep = strict_json(rep_path)
        assert rep["expectedMax"] == pytest.approx(
            exact_expected_max(st, rep["solution"]), rel=1e-12, abs=0.0
        )
        assert "expectedMaxMode" not in rep
        cert = rep["certificates"][0]
        assert cert["lhs"] == rep["expectedMax"]
        assert cert["holds"] and code == 0
