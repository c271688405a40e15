"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

The smoke tests run every workload through the real command at its
smallest size (one pass, ``--seconds 1``) and take a few minutes. The
negative controls feed corrupted inputs or expectations through each
workload's gate and show that it counts them as failed.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import kleintwist as kt  # noqa: E402
import kleintwist.cli  # noqa: E402,F401

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(m, tracing.unit_of(m)) for m in tracing.layer_metric_names()]
    assert tuple(tracing.CHECK_IDS) == tuple(kt.checks.all_check_ids())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_census_gate_counts_a_wrong_expected_count(tmp_path):
    small = {"cs3", "qs3", "cd4"}
    inputs = workloads.census_setup(kt, 1, 0, str(tmp_path))
    inputs["algebras"] = {k: v for k, v in inputs["algebras"].items() if k in small}
    inputs["expected"] = {k: v for k, v in inputs["expected"].items() if k in small}
    outputs = workloads.census_run(kt, inputs, lambda name: contextlib.nullcontext())
    assert workloads.census_check(kt, inputs, outputs) == (3, [])
    inputs["expected"]["qs3"] = (3, "Z2")
    attempted, failures = workloads.census_check(kt, inputs, outputs)
    assert attempted == 3 and len(failures) == 1 and failures[0].startswith("qs3")


def test_twist_gate_counts_a_flipped_bicharacter_entry(tmp_path, monkeypatch):
    original = kt.cocycle.klein_bicharacter

    def flipped():
        sigma = original()
        table = [list(row) for row in sigma.table]
        table[1][1] = -table[1][1]
        return kt.cocycle.Cocycle2.build(sigma.carrier, table, table,
                                         sigma.star_corrector)

    monkeypatch.setattr(kt.cocycle, "klein_bicharacter", flipped)
    inputs = workloads.twist_setup(kt, 1, 0, str(tmp_path))
    outputs = workloads.twist_run(kt, inputs, None)
    assert isinstance(outputs["round_trip"], workloads.Raised)
    attempted, failures = workloads.twist_check(kt, inputs, outputs)
    assert attempted == 3 and len(failures) == 3


def test_verify_gate_counts_a_failed_check(tmp_path):
    ids = kt.checks.all_check_ids()
    report = [{"check_id": c, "status": "pass", "metrics": {}, "labels": {}} for c in ids]
    s4tau = next(r for r in report if r["check_id"] == "s4tau-characters")
    s4tau.update(metrics={"characters": 8}, labels={"group_type": "D4"})
    inputs = {"list_code": 0, "check_ids": ids, "json_out": str(tmp_path / "r.json")}

    def gate(rep):
        (tmp_path / "r.json").write_text(json.dumps(rep))
        return workloads.verify_check(kt, inputs, {"exit_code": 0})

    assert gate(report) == (len(ids) + 4, [])
    report[0]["status"] = "fail"
    assert len(gate(report)[1]) == 1
    s4tau["metrics"]["characters"] = 7
    assert len(gate(report)[1]) == 2
    assert len(gate(report[1:])[1]) == 3     # an id missing from the report


def test_combinatorics_gate_counts_a_wrong_value(tmp_path):
    ops = workloads.combinatorics_ops(kt)
    names = ["solve_characters:so3minus", "character_group_of:o2minus",
             "generated_completion_group:2:4", "completion_routes:4"]
    inputs = {"ops": {n: ops[n] for n in names}, "order": names}
    outputs = workloads.combinatorics_run(kt, inputs, None)
    assert workloads.combinatorics_check(kt, inputs, outputs) == (4, [])
    fn, args, _ = inputs["ops"]["solve_characters:so3minus"]
    inputs["ops"]["solve_characters:so3minus"] = (fn, args, 23)
    assert len(workloads.combinatorics_check(kt, inputs, outputs)[1]) == 1

