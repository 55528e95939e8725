"""Smoke test of the benchmark on its smallest corpora (``--seconds 0``).

Run from the repository root with ``python3 -m pytest bench``. Each workload
runs once untraced and once traced; every metric BENCHMARK.json names must be
printed with its unit, both runs must give the same outputs digest, and each
layer must carry work only where the workloads say it does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

from run import END_TO_END, REPORTED_ONLY  # noqa: E402
from spans import PER_LAYER  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0"]
    return subprocess.run(
        [*cmd, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def line_value(lines: list[str], prefix: str) -> str:
    (line,) = [ln for ln in lines if ln.startswith(prefix)]
    return line[len(prefix):]


def test_spec_matches_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_printed_and_digest_stable(workload):
    runs = {}
    for trace in (0, 1):
        out = bench(ROOT, workload, trace)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        runs[trace] = lines, result

    for trace, spec_key, extra in ((0, "end_to_end", REPORTED_ONLY), (1, "per_layer", ())):
        lines, result = runs[trace]
        wanted = [(m["name"], m["unit"]) for m in SPEC[spec_key]]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(wanted)
        for name, unit in [*wanted, *extra]:
            assert any(
                ln.startswith(f"{name} ") and ln.endswith(f" {unit}") for ln in lines
            ), name

    layers = {k: v["value"] for k, v in runs[1][1]["metrics"].items()}
    for layer, owner in (("knapsack.", "knapsack_enum"), ("stochastic.", "stochastic_sweep")):
        if workload != owner:
            assert all(v == 0 for k, v in layers.items() if k.startswith(layer)), layer
    if workload == "lp_heavy":
        busy = {k: v for k, v in layers.items() if k.endswith("_s") and k != "trace.overhead_s"}
        assert max(busy, key=busy.get) == "lpcore.natural.busy_s"

    plain, traced = runs[0][0], runs[1][0]
    assert line_value(plain, "inputs sha1 ") == line_value(traced, "inputs sha1 ")
    untraced_digest, traced_digest = line_value(traced, "outputs sha1 ").split(", ")
    assert untraced_digest.split()[0] == traced_digest.split()[0]
    assert line_value(plain, "outputs sha1 ") == untraced_digest.split()[0]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert not out.stdout.strip()
