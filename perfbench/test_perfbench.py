"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from rackhom.racks import builtin, validate_rack  # noqa: E402

with open(run.BENCHMARK, encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)

REFS = checks.load_references()
COCHAIN_JOB = "homology --builtin dihedral:3 --ring Z --max-degree 4 --cohomology --coefficients self"
SEEDED_JOB = "homology --rack {rack_file} --ring Fp:101 --max-degree 2"


def _names(section):
    return {m["name"] for m in DECLARED[section]}


@pytest.fixture
def tiny_workload(monkeypatch):
    def use(jobs, refs=REFS):
        monkeypatch.setitem(run.workloads(), "tiny", {"jobs": jobs})
        monkeypatch.setattr(run, "load_references", lambda: refs)
        return "tiny"
    return use


def test_corrupted_torsion_reference_fails_the_job(tiny_workload):
    refs = copy.deepcopy(REFS)
    refs[COCHAIN_JOB]["results"][2]["torsion"] = [9]  # reference says Z/3
    outcome = run.measure(tiny_workload([COCHAIN_JOB], refs), seed=0, seconds=0, trace=False)
    assert outcome["attempted"] == 1
    assert len(outcome["failures"]) == 1
    line = run.result_line(outcome, {m["name"]: m for m in DECLARED["end_to_end"]})
    assert line["failed"] / line["attempted"] > 0
    assert line["correct"] is False
    # every declared end-to-end metric is printed, and nothing else
    assert set(line["metrics"]) == _names("end_to_end")


def test_intact_references_pass(tiny_workload):
    outcome = run.measure(tiny_workload([COCHAIN_JOB, SEEDED_JOB]), seed=3, seconds=0, trace=False)
    assert outcome["failures"] == []
    assert outcome["attempted"] == 2
    assert all(v > 0 for v in outcome["metrics"].values())


def test_traced_run_gives_byte_identical_reports():
    run.WORK.mkdir(exist_ok=True)
    rack_file, _ = run.write_seeded_rack(0)
    jobs = ["verify --suite regression", SEEDED_JOB, "ring --builtin dihedral:3 --ring Q --max-degree 3"]
    deadline = time.monotonic() + 120
    env = run.child_env()
    plain = run.run_pass(jobs, rack_file, deadline, env)
    traced = run.run_pass(jobs, rack_file, deadline, env, traced=True)
    for p, t in zip(plain, traced):
        assert p.code == t.code == 0, t.stderr
        assert p.stdout == t.stdout
        assert t.stats is not None
    metrics = run.layer_metrics(run.merge_stats(traced), 1.0, 1.0)
    assert set(metrics) == _names("per_layer")
    assert metrics["verify.regression_checks"] == 26
    assert metrics["racks.load_s"] > 0 and metrics["linalg.rank_calls"] > 0
    assert metrics["cup.cup_calls"] > 0 and metrics["linalg.kernel_s"] > 0


def test_declared_units_match_metric_kinds():
    for m in DECLARED["per_layer"] + DECLARED["end_to_end"]:
        if m["name"].endswith("_s"):
            assert m["unit"] == "s"
    assert {w["name"] for w in DECLARED["workloads"]} == set(run.workloads())


def test_every_workload_job_has_a_reference():
    jobs = {job for w in run.workloads().values() for job in w["jobs"]}
    with open(run.HERE / "workloads.json", encoding="utf-8") as fh:
        dropped = {d["job"] for d in json.load(fh)["dropped_jobs"]}
    assert jobs <= set(REFS)
    # the other references are dropped jobs, kept for the oracle cross-checks below
    assert set(REFS) - jobs <= dropped


def test_uct_confirms_dihedral5_z_against_f5():
    z = REFS["homology --builtin dihedral:5 --ring Z --max-degree 4 --quandle"]["results"]
    f5 = REFS["homology --builtin dihedral:5 --ring Fp:5 --max-degree 4 --quandle"]["results"]
    assert checks.uct_field_dims(z, 5) == [r["betti"] for r in f5] == [1, 0, 1, 2]


@pytest.mark.parametrize("job,spec", [
    ("homology --builtin dihedral:4 --ring Z --max-degree 4", "dihedral:4"),
    ("homology --builtin dihedral:4 --ring Q --max-degree 4", "dihedral:4"),
    ("homology --builtin conjugation:s3 --ring Fp:2 --max-degree 4", "conjugation:s3"),
    ("homology --builtin trivial:6 --ring Fp:2 --max-degree 5", "trivial:6"),
    ("homology --builtin trivial:5 --ring Fp:2 --max-degree 5", "trivial:5"),
])
def test_etingof_grana_betti_numbers(job, spec):
    table = builtin(spec).table
    want = checks.orbits_power_results(table, int(checks.option(job, "--max-degree")))
    assert [r["betti"] for r in REFS[job]["results"]] == [r["betti"] for r in want]


@pytest.mark.parametrize("job,spec", [
    ("ring --builtin dihedral:3 --ring Q --max-degree 5", "dihedral:3"),
    ("ring --builtin trivial:2 --ring Fp:3 --max-degree 7", "trivial:2"),
    ("ring --builtin trivial:2 --ring Fp:3 --max-degree 6", "trivial:2"),
    ("ring --builtin dihedral:4 --ring Q --max-degree 4", "dihedral:4"),
])
def test_ring_dims_match_etingof_grana(job, spec):
    k = checks.orbit_count(builtin(spec).table)
    assert REFS[job]["dims"] == {str(p): k ** p for p in range(len(REFS[job]["dims"]))}


def test_graded_commutativity_oracle_catches_a_sign():
    # degree-1 classes anticommute: [f][f] = -[f][f] forces 0 in characteristic != 2
    assert checks.graded_commutativity_errors({"1,0,1,0": ["1"]}, "Q") == ["1,0,1,0"]
    assert checks.graded_commutativity_errors({"1,0,1,0": [0]}, "Fp:3") == []
    good = {"1,0,2,0": ["1/2"], "2,0,1,0": ["1/2"], "1,0,1,1": ["1"], "1,1,1,0": ["-1"]}
    assert checks.graded_commutativity_errors(good, "Q") == []


@pytest.mark.parametrize("seed", range(8))
def test_seeded_rack_is_a_deterministic_connected_quandle(seed):
    run.WORK.mkdir(exist_ok=True)
    path, table = run.write_seeded_rack(seed)
    text = path.read_text()
    assert run.write_seeded_rack(seed)[0].read_text() == text
    assert validate_rack(table).is_quandle()
    assert checks.orbit_count(table) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homology",
         "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
