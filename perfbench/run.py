"""rackhom benchmark: fixed workloads of CLI jobs, timed end to end.

    python3 perfbench/run.py --workload homology --seed 0 --seconds 50 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/`` of the checkout, nothing is installed. A workload is a list of
``rackhom`` jobs (``workloads.json``). Each job runs in a fresh
``python -m rackhom ... --json`` process, one at a time: a closed loop with
one client, which is how the tool is used. The jobs are run round robin
until ``--seconds`` have elapsed and every job has run at least once, so
each job is sampled several times across the run. Every answer is checked
against ``references.json`` (see ``checks.py``); a job fails on a non-zero
exit or a wrong answer.

``--trace 0`` reports the end-to-end metrics. Their times are in reference
seconds: each is a time measured in the run, divided by a fixed piece of
work that does not involve rackhom and was timed in the same minutes, and
multiplied by that work's time on the host the benchmark was written on.
On a shared host whose speed drifts by a quarter over minutes, raw times of
the same code spread past any useful bound; these ratios do not. The raw
figures are printed as comment lines above the result.

* ``wall_s``: wall time of the job list, spawn to reap, as the sum over
  jobs of each job's mean sample, in units of ``calibrate.py`` (fixed
  Python work, timed CAL_PROBES times at even intervals between the jobs)
  times CAL_REF_S;
* ``cpu_s``: user+sys CPU of the job processes (``os.wait4``), summed the
  same way and scaled by calibrate.py's CPU time, which time stolen by the
  hypervisor or by other tenants' processes does not inflate;
* ``setup_s``: start-up of ``python -m rackhom --version`` (spawn,
  interpreter start, ``import rackhom``, argparse) over that of a bare
  ``python -c pass`` started right after it, median of SETUP_PROBES such
  pairs at even intervals between the jobs, times BARE_REF_S;
* ``peak_rss_mb``: largest max-RSS of any single job process, taken per
  child from ``os.wait4`` (``RUSAGE_CHILDREN`` is a running maximum over
  every child, so it would carry one workload's peak into the next).

``--trace 1`` runs rounds of an untraced pass and the same jobs through
``traced.py``, which wraps the public functions of each package module from
outside, and reports per-layer self times and counts, medians over rounds,
``cli.other_s`` (traced wall minus every layer's self time and the
wrappers' own bookkeeping: process start, imports, argparse, report output)
and ``trace.overhead_frac`` ((traced wall - untraced wall) / untraced wall).
A new round starts only while the previous one would still fit in
``--seconds``. ``linalg.solve_calls`` counts eliminations (``solve_many``
calls, which ``solve`` and ``in_span`` go through);
``linalg.reductions_per_matrix`` is rank + SNF calls over the distinct
matrix objects they were handed.

``--seed`` picks a in {2..6} for the seeded job of ``homology``: the
Alexander quandle x <| y = a*x + (1-a)*y on Z_7, written as a text rack
file and checked against |Orb(X)|^n computed from the table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.perfbench/`` at the checkout root; ``samples-<workload>.json`` there
holds the raw samples of the last trace-0 run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
from checks import canonical, check_report, load_references, option

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_PROBES = 11
CAL_PROBES = 40
# typical times of calibrate.py and of `python -c pass` on the host the
# benchmark was written on (2-vCPU Xeon VM, Python 3.11)
CAL_REF_S = 0.19
BARE_REF_S = 0.07
# every run must end within 180 s; jobs still running at this point are killed
RUN_DEADLINE_S = 170.0


@functools.cache
def workloads() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


@dataclass
class JobRun:
    job: str
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stats: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, job, deadline, env) -> JobRun:
    """Run one process to completion; its rusage comes from ``os.wait4``."""
    with open(WORK / "stderr.txt", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no job behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", errors="replace")
    return JobRun(job, proc.returncode, out.decode("utf-8", errors="replace"), stderr,
                  wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def setup_probe(deadline, env) -> tuple[float, float]:
    """Start-up of rackhom, then of a bare interpreter."""
    run = spawn([sys.executable, "-m", "rackhom", "--version"], "--version", deadline, env)
    bare = spawn([sys.executable, "-c", "pass"], "bare", deadline, env)
    if run.code != 0 or not run.stdout.strip() or bare.code != 0:
        raise SystemExit(f"perfbench: `python -m rackhom --version` failed "
                         f"(exit {run.code}): {run.stderr.strip()[-500:]}")
    return run.wall_s, bare.wall_s


def cal_probe(deadline, env) -> tuple[float, float]:
    """Wall and CPU time of calibrate.py."""
    run = spawn([sys.executable, str(HERE / "calibrate.py")], "calibrate", deadline, env)
    if run.code != 0 or run.stdout.strip() != str(calibrate.CHECKSUM):
        raise SystemExit(f"perfbench: calibrate.py failed (exit {run.code}, "
                         f"output {run.stdout.strip()!r}): {run.stderr.strip()[-500:]}")
    return run.wall_s, run.cpu_s


def alexander_table(a: int, n: int = 7):
    return [[(a * x + (1 - a) * y) % n for y in range(n)] for x in range(n)]


def write_seeded_rack(seed: int):
    a = random.Random(seed).randint(2, 6)
    table = alexander_table(a)
    path = WORK / f"alexander7_a{a}.txt"
    lines = [f"# Alexander quandle on Z_7: x <| y = {a}*x + {1 - a}*y mod 7",
             f"rack {len(table)}"]
    lines += [" ".join(map(str, row)) for row in table]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, table


def job_argv(job: str, rack_file: Path) -> list[str]:
    return [str(rack_file) if w == "{rack_file}" else w for w in job.split()] + ["--json"]


def judge(run: JobRun, refs, table) -> str | None:
    if run.code != 0:
        return f"exit {run.code}: {run.stderr.strip()[-300:]}"
    try:
        return check_report(run.job, json.loads(run.stdout), refs[run.job], table)
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable report: {err!r}"


def answer(run: JobRun) -> str:
    report = json.loads(run.stdout)
    return canonical([report["results"], report["suites"]])


def run_job(job, rack_file, deadline, env, traced=False) -> JobRun:
    argv = job_argv(job, rack_file)
    if not traced:
        return spawn([sys.executable, "-m", "rackhom", *argv], job, deadline, env)
    stats_path = WORK / "trace_stats.json"
    stats_path.unlink(missing_ok=True)
    run = spawn([sys.executable, str(HERE / "traced.py"), str(stats_path), "--", *argv],
                job, deadline, env)
    if stats_path.exists():
        run.stats = json.loads(stats_path.read_text(encoding="utf-8"))
    return run


def run_pass(jobs, rack_file, deadline, env, traced=False) -> list[JobRun]:
    """Run the jobs once, in order."""
    return [run_job(job, rack_file, deadline, env, traced) for job in jobs]


def merge_stats(runs: list[JobRun]) -> dict:
    """Sum the traced children's raw stats over a pass."""
    raw: dict[str, dict] = {}
    extra = {"overhead_s": 0.0, "reductions": 0, "distinct_matrices": 0}
    for run in runs:
        for key, stat in run.stats["stats"].items():
            acc = raw.setdefault(key, {})
            for field, value in stat.items():
                acc[field] = acc.get(field, 0) + value
        for field in extra:
            extra[field] += run.stats[field]
    return {"raw": raw, **extra}


def layer_metrics(merged: dict, traced_wall: float, untraced_wall: float) -> dict:
    raw = merged["raw"]

    def self_s(*keys):
        return sum(raw.get(k, {}).get("self_s", 0.0) for k in keys)

    def count(field, *keys):
        return sum(raw.get(k, {}).get(field, 0) for k in keys)

    assembly = ("complexes.boundary_matrix", "complexes.cochain_differential_matrix")
    solves = ("linalg.solve", "linalg.solve_many", "linalg.in_span")
    distinct = merged["distinct_matrices"]
    m = {
        "racks.load_s": self_s("cli.parse_rack_file", "racks.builtin", "racks.validate_rack"),
        "complexes.basis_s": self_s("complexes.tuple_basis"),
        "complexes.basis_calls": count("calls", "complexes.tuple_basis"),
        "complexes.assembly_s": self_s(*assembly),
        "complexes.assembly_calls": count("calls", *assembly),
        "complexes.assembly_nnz": count("nnz", *assembly),
        "complexes.cochain_diff_s": self_s("complexes.cochain_differential"),
        "complexes.cochain_diff_calls": count("calls", "complexes.cochain_differential"),
        "linalg.ddcheck_s": self_s("linalg.homology"),
        "linalg.snf_s": self_s("linalg.smith_normal_form"),
        "linalg.snf_calls": count("calls", "linalg.smith_normal_form"),
        "linalg.snf_entries": count("entries", "linalg.smith_normal_form"),
        "linalg.rank_s": self_s("linalg.rank"),
        "linalg.rank_calls": count("calls", "linalg.rank"),
        "linalg.reductions_per_matrix": merged["reductions"] / distinct if distinct else 0.0,
        "linalg.kernel_s": self_s("linalg.kernel_basis"),
        "linalg.image_s": self_s("linalg.image_basis"),
        "linalg.solve_s": self_s(*solves),
        "linalg.solve_calls": count("calls", "linalg.solve_many"),
        "linalg.in_span_calls": count("calls", "linalg.in_span"),
        "cup.cup_s": self_s("cup.cup"),
        "cup.cup_calls": count("calls", "cup.cup"),
        "cup.coproduct_path_s": self_s("cup.cup_via_coproduct"),
        "cup.homotopy_s": self_s("cup.homotopy_cochain"),
        "cup.ring_structure_s": self_s("cup.ring_structure"),
        "words.coproduct_s": self_s("words.coproduct"),
        "words.coproduct_calls": count("calls", "words.coproduct"),
        "words.h_s": self_s("words.h"),
        "words.d_s": self_s("words.d"),
        "words.multiply_s": self_s("words.multiply"),
    }
    suites = [option(job, "--suite") for w in workloads().values() for job in w["jobs"]
              if job.startswith("verify ")]
    for suite in suites:
        m[f"verify.{suite}_s"] = self_s(f"verify.{suite}")
        m[f"verify.{suite}_checks"] = count("checks", f"verify.{suite}")
    m["cli.other_s"] = traced_wall - self_s(*raw) - merged["overhead_s"]
    m["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    env = child_env()
    refs = load_references()
    jobs = workloads()[workload]["jobs"]
    rack_file, table = write_seeded_rack(seed)

    setup_probe(deadline, env)  # untimed: compiles bytecode once, as any first use does
    if trace:
        return measure_traced(jobs, rack_file, table, refs, seconds, deadline, env)

    samples: dict[str, list[JobRun]] = {job: [] for job in jobs}
    # probes at even intervals, so that they sample the machine as the jobs do
    probes = {setup_probe: [], cal_probe: []}
    wanted = {setup_probe: SETUP_PROBES, cal_probe: CAL_PROBES}
    failures = []
    start = time.perf_counter()
    i = 0
    while i < len(jobs) or time.perf_counter() - start < seconds:
        for probe, times in probes.items():
            while (len(times) < wanted[probe]
                   and time.perf_counter() - start >= len(times) * seconds / wanted[probe]):
                times.append(probe(deadline, env))
        run = run_job(jobs[i % len(jobs)], rack_file, deadline, env)
        i += 1
        samples[run.job].append(run)
        why = judge(run, refs, table)
        if why:
            failures.append((run.job, why))
        if time.monotonic() > deadline:
            break
    for probe, times in probes.items():
        times += [probe(deadline, env) for _ in range(wanted[probe] - len(times))]

    def per_job_mean(field):
        return sum(statistics.fmean(getattr(r, field) for r in runs)
                   for runs in samples.values() if runs)

    raw_wall, raw_cpu = per_job_mean("wall_s"), per_job_mean("cpu_s")
    cal_wall = statistics.fmean(w for w, _ in probes[cal_probe])
    cal_cpu = statistics.fmean(c for _, c in probes[cal_probe])
    starts = probes[setup_probe]
    metrics = {
        "wall_s": raw_wall * CAL_REF_S / cal_wall,
        "cpu_s": raw_cpu * CAL_REF_S / cal_cpu,
        "setup_s": statistics.median(s / bare for s, bare in starts) * BARE_REF_S,
        "peak_rss_mb": max(r.maxrss_kb for runs in samples.values() for r in runs) / 1024,
    }
    notes = [f"raw wall_s {raw_wall:.6f} s, raw cpu_s {raw_cpu:.6f} s; calibrate.py mean "
             f"wall {cal_wall:.6f} s, cpu {cal_cpu:.6f} s over {len(probes[cal_probe])} runs",
             f"raw setup_s {statistics.median(s for s, _ in starts):.6f} s, "
             f"bare python start {statistics.median(b for _, b in starts):.6f} s, "
             f"medians over {len(starts)} pairs"]
    with open(WORK / f"samples-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"jobs": {job: [[r.wall_s, r.cpu_s] for r in runs]
                            for job, runs in samples.items()},
                   "calibrate": probes[cal_probe], "setup": starts}, fh)
    return {"samples": min(len(runs) for runs in samples.values()), "attempted": i,
            "failures": failures, "metrics": metrics, "notes": notes}


def measure_traced(jobs, rack_file, table, refs, seconds, deadline, env) -> dict:
    """Rounds of an untraced and a traced pass; per-layer medians over rounds."""
    failures = []
    attempted = 0
    rounds = []
    start = time.perf_counter()
    round_s = 0.0
    while not rounds or time.perf_counter() - start + round_s <= seconds:
        t0 = time.perf_counter()
        plain = run_pass(jobs, rack_file, deadline, env)
        traced = run_pass(jobs, rack_file, deadline, env, traced=True)
        round_s = time.perf_counter() - t0
        attempted += len(plain) + len(traced)
        for p, tr in zip(plain, traced):
            plain_why = judge(p, refs, table)
            why = judge(tr, refs, table)
            if why is None and plain_why is None and answer(tr) != answer(p):
                why = "traced answer differs from the untraced one"
            if why is None and tr.stats is None:
                why = "traced run wrote no stats"
            failures += [(p.job, w) for w in (plain_why, why and f"traced: {why}") if w]
        rounds.append((plain, traced))
        if time.monotonic() > deadline:
            break

    ok = [r for r in rounds if all(t.stats for t in r[1])]
    per_round = [layer_metrics(merge_stats(tr), sum(r.wall_s for r in tr),
                               sum(r.wall_s for r in plain)) for plain, tr in ok]
    metrics = {name: statistics.median(m[name] for m in per_round)
               for name in (per_round[0] if per_round else {})}
    return {"samples": len(rounds), "attempted": attempted, "failures": failures,
            "metrics": metrics, "notes": []}


def result_line(outcome: dict, declared: dict) -> dict:
    return {
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]}
                    for name, value in outcome["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so that spawn() kills and reaps the running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "rackhom" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"perfbench: needs {SRC / 'rackhom'} and {BENCHMARK}", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(outcome, declared)
    print(f"# rackhom benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {'rounds' if args.trace else 'samples per job'} "
          f"{outcome['samples']}, "
          f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}")
    for note in outcome["notes"]:
        print(f"# {note}")
    for job, why in outcome["failures"]:
        print(f"# FAIL {job}: {why}")
    for name, metric in line["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
