"""Answer checks for the benchmark: each report against its reference in
``references.json``, plus the independent oracles that confirm those
references (universal coefficients, Etingof-Grana Betti numbers, graded
commutativity of the cohomology ring)."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def option(job: str, flag: str) -> str:
    words = job.split()
    return words[words.index(flag) + 1]


def orbit_count(table) -> int:
    """Number of orbits of x ~ x <| y, from the operation table alone."""
    parent = list(range(len(table)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, row in enumerate(table):
        for xy in row:
            parent[find(x)] = find(xy)
    return len({find(x) for x in range(len(table))})


def orbits_power_results(table, max_degree: int) -> list:
    """Etingof-Grana: rack Betti numbers |Orb(X)|^n over a field whose
    characteristic does not divide |Inn(X)|."""
    k = orbit_count(table)
    return [{"kind": "homology", "degree": n, "betti": k ** n, "torsion": []}
            for n in range(1, max_degree + 1)]


def uct_field_dims(z_results, p: int) -> list[int]:
    """dim H_n(X; F_p) = betti_n + #p-torsion(H_n) + #p-torsion(H_{n-1}),
    from integral homology in degrees 1.. (H_0 is free)."""
    ptors = [sum(1 for d in r["torsion"] if d % p == 0) for r in z_results]
    return [r["betti"] + ptors[i] + (ptors[i - 1] if i else 0)
            for i, r in enumerate(z_results)]


def graded_commutativity_errors(products: dict, ring_spec: str) -> list[str]:
    """Product keys ``p,i,q,j`` whose coordinates break
    [f][g] = (-1)^{pq} [g][f]."""
    if ring_spec == "Q":
        def equal(a, b, sign):
            return Fraction(a) == sign * Fraction(b)
    else:
        p = int(ring_spec.split(":")[1])

        def equal(a, b, sign):
            return (a - sign * b) % p == 0
    bad = []
    for key, coords in products.items():
        p_, i, q, j = key.split(",")
        other = products.get(f"{q},{j},{p_},{i}")
        sign = -1 if int(p_) * int(q) % 2 else 1
        if other is None or len(other) != len(coords) or not all(
                equal(a, b, sign) for a, b in zip(coords, other)):
            bad.append(key)
    return bad


def check_report(job: str, report: dict, ref: dict, rack_table=None) -> str | None:
    """None when ``report`` answers ``job`` as ``ref`` says, else the reason.

    Only the answer is compared (homology ``results``, ring dims and results
    digest, suite name/passed/checks), never the whole report, so that a
    schema version bump or a new deterministic field does not fail a job.
    """
    if "results" in ref:
        if canonical(report["results"]) != canonical(ref["results"]):
            return f"results {canonical(report['results'])} != reference"
        return None
    if "dims" in ref:
        (result,) = report["results"]
        if result["dims"] != ref["dims"]:
            return f"ring dims {result['dims']} != reference {ref['dims']}"
        digest = hashlib.sha256(canonical(report["results"]).encode()).hexdigest()
        if digest != ref["results_sha256"]:
            return f"ring results sha256 {digest} != reference"
        bad = graded_commutativity_errors(result["products"], option(job, "--ring"))
        if bad:
            return f"graded commutativity fails at {bad[:3]}"
        return None
    if "suites" in ref:
        got = [{k: s[k] for k in ("name", "passed", "checks")} for s in report["suites"]]
        if got != ref["suites"]:
            return f"suites {got} != reference {ref['suites']}"
        return None
    if ref.get("orbits_power"):
        want = orbits_power_results(rack_table, int(option(job, "--max-degree")))
        if canonical(report["results"]) != canonical(want):
            return f"results {canonical(report['results'])} != |Orb(X)|^n {canonical(want)}"
        return None
    raise ValueError(f"reference for {job!r} has no known kind")
