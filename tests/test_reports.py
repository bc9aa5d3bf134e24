"""Printed answers, pinned: a table of CLI jobs, each with the sha256 of
its ``--json`` report less the ``version`` field, run in-process through
``main()``.  A ring report must also be graded commutative.

A row fails when its report changes in anything but the version.  A change
that means to alter a report refreshes the row by running it and copying the
digest that the failing assertion prints, and says in CHANGES.md which rows
changed and why.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from rackhom.cli import main

REPORTS = {
    # every builtin rack over Z to degree 4, and the quandle complex of each quandle
    "homology --builtin trivial:1 --ring Z --max-degree 4":
        "ecc930e887a6c3d15a2305fcb373ad0df51d23c919278d733b08dbbd758c0fad",
    "homology --builtin trivial:1 --ring Z --max-degree 4 --quandle":
        "2a21bf07921149d2a45c95b28686d7206377151e4c09b662450b4166b4d5c296",
    "homology --builtin trivial:2 --ring Z --max-degree 4":
        "6085901c63701e56ff5ba4b62b9cea18f1cbc8509f4876576fcdaed79de10631",
    "homology --builtin trivial:2 --ring Z --max-degree 4 --quandle":
        "2a836bc6873655f31bf22cf46d1de970947a121e5115b3090b35922bfdca1d4e",
    "homology --builtin trivial:3 --ring Z --max-degree 4":
        "cd6497265800112754997a694d8150ab46ae71983ccfddd5f6f6df9c7aba1348",
    "homology --builtin trivial:3 --ring Z --max-degree 4 --quandle":
        "7095a384eec2acd22baf6f85cdc5ba797214b78408a4c83383171640d578df72",
    "homology --builtin trivial:4 --ring Z --max-degree 4":
        "8df64e0068aafcbce1a7fd10902a289060c369cbc6d263848c248e48ef9d1935",
    "homology --builtin trivial:4 --ring Z --max-degree 4 --quandle":
        "114277ac06d47259756a3314505b08fc5e9c3a51a7e2837d56b592839b33f6cc",
    "homology --builtin dihedral:3 --ring Z --max-degree 4":
        "4cba4e8fb5f97c1402835e9b492ef6d54954515d87593ca73d24ed0e1f954074",
    "homology --builtin dihedral:3 --ring Z --max-degree 4 --quandle":
        "368430341f55c77486cd685a1731c575eeeb692d9cae5dbf449b54057055ae2c",
    "homology --builtin dihedral:4 --ring Z --max-degree 4":
        "c695b01c743bc80f8bf456a698918104ba76fb92258ea85f439be0204371c744",
    "homology --builtin dihedral:4 --ring Z --max-degree 4 --quandle":
        "a1c43db63f901194463676ef9d7e6796af9e99391821fdd961290b7cb69ca896",
    "homology --builtin dihedral:5 --ring Z --max-degree 4":
        "2a8d4b5d624ba3f384537b549ae7a90d0f64d476d92cbc1b216a976c5507133c",
    "homology --builtin dihedral:5 --ring Z --max-degree 4 --quandle":
        "7b009b5bf1cf135a552aa7eb1a0b6cd3ce932475b5052f1ec1fc0ed2a97e18d8",
    "homology --builtin dihedral:6 --ring Z --max-degree 4":
        "d6acf2aeb17e18ca39681bca4b1f6995987d59a883a929280582b66ad73635da",
    "homology --builtin dihedral:6 --ring Z --max-degree 4 --quandle":
        "d16876b8898e1d80da65155e82d23867156b26bbd907c20f7dc32a112d500353",
    "homology --builtin cyclic:3 --ring Z --max-degree 4":
        "a8770ab3cc977c0f6e71db8223560f1e8a17017f62ef788289a0b0995980b890",
    "homology --builtin cyclic:4 --ring Z --max-degree 4":
        "d75a22f0df7eb1fade31a91f3f279e151ae8cc517fffb47f75ccd276d8c7abd8",
    # H_4 = Z^81 + (Z/3)^22 + (Z/9)^6: a residual after the +-1 pass, pivots 3 and 9
    "homology --builtin conjugation:s3 --ring Z --max-degree 4":
        "a78335de046cf7d91bab5b9dc0286a121a90e406286b815c0593b39b229afe5d",
    "homology --builtin conjugation:s3 --ring Z --max-degree 4 --quandle":
        "722db0667a4ff29c7206d4b86623e3dee3323997216752a83f5d9c17b2c25ae3",
    # self coefficients.  H_4 = Z^32 + (Z/2)^66: a residual with pivot 2
    "homology --builtin dihedral:4 --ring Z --max-degree 4 --coefficients self":
        "32386dec6d56ba0fa1c9c69997e9d81fa5f9abff54afc28ea7151ab241b7c46b",
    # the quandle complexes split by the orbit of the point: dihedral:4 into
    # two isomorphic orbits, H_4 = Z^4 + (Z/2)^30; trivial:3 into three
    # one-point orbits, H_4 = Z^72
    "homology --builtin dihedral:4 --ring Z --max-degree 4 --quandle --coefficients self":
        "742cc09785837b8a12a39ca01dbce8f5545ec2fa0d790be84786c108bb8f72d4",
    "homology --builtin trivial:3 --ring Z --max-degree 4 --quandle --coefficients self":
        "63dace779385f1e7d1cd8332dcdd9407399e15dbda55b53d0a9a8468e9d2ec70",
    # the builtin jobs of the benchmark's homology workload not listed above
    "homology --builtin dihedral:3 --ring Z --max-degree 4 --cohomology --coefficients self":
        "d2bb3542f00ee04b05cba8e93d0d1cf8c710ae20afcceb8f63673c90d9e714a7",
    "homology --builtin dihedral:5 --ring Fp:5 --max-degree 4 --quandle":
        "fb9e0da6e612b84da16bbb617ae8282547b48e30d7e494cb5b44d824d107035e",
    "homology --builtin dihedral:4 --ring Q --max-degree 4":
        "75c05e5879e9a416d44ebe72938671430c35853fa6fa334211d7528480b1dcc9",
    "homology --builtin trivial:5 --ring Fp:2 --max-degree 5":
        "ea475a70aca3f9f674af428ee904232b99e5d13a35d46e182a951b97a1292141",
    # cohomology rings
    "ring --builtin trivial:1 --ring Q --max-degree 3":
        "2035087527aae1aaa52259d616b2710b6773d57e9a5221c6ef63b179561319d1",
    "ring --builtin trivial:2 --ring Q --max-degree 3":
        "7ae9c519857512662fd9e5d6887a8d4a3ff8597999b1761e3b2e4d932f4fcc97",
    "ring --builtin dihedral:3 --ring Q --max-degree 3":
        "f0d05a775797b854f2baac597c3a97bb991d9c8a6e7d6bda7d0924a05b8aeb83",
    "ring --builtin dihedral:4 --ring Q --max-degree 3":
        "841646b3c79efdf5a8a3830257bdcae69e572a11e9c7334721096e9be54b5071",
    "ring --builtin dihedral:4 --ring Q --max-degree 4":
        "e18adca2803eb3a62dd9ded8cd5fdd785349eb3e1b5261d93bf6326a2cc6ee53",
    "ring --builtin dihedral:3 --ring Q --max-degree 5":
        "a1077f19ded957deaeecf2b97d5edf50b819e25b6648e8dcfe256fea50411326",
    "ring --builtin conjugation:s3 --ring Q --max-degree 3":
        "be110239c89950ae21338aa47eda7b4c06fc7c8a6a427932f3596de3a690a259",
    "ring --builtin trivial:2 --ring Fp:3 --max-degree 5":
        "a14721dbee3a100fab1ea8b162b2276b53d6903c3080ec5bb7fcaaeeecf0c60f",
    "ring --builtin trivial:2 --ring Fp:3 --max-degree 6":
        "2d57c0295aa90c98441cd9dd18a2275f647d78bdb9d04407787c97c1e0e583e1",
    # F_p reports whose coboundaries are nonzero: their -1 entries are no
    # residues until the reductions read them mod p
    "ring --builtin dihedral:4 --ring Fp:2 --max-degree 4":
        "f3c573940258726e02e54bd87b81d506dc7131ec68206c916943eb5b3a08ed00",
    "ring --builtin conjugation:s3 --ring Fp:3 --max-degree 3":
        "d90321c630e974d02dac0b479728af1d04af09c5868c691afec3580f0ab0ef8a",
    "ring --builtin dihedral:5 --ring Fp:5 --max-degree 3 --quandle":
        "83fe9fe6f31679a9b1dbb218985f53eb076ec603bdb342e37348f31228f6b700",
}


def report_of(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*job.split(), "--json"])
    assert code == 0, f"{job} exited {code}"
    report = json.loads(out.getvalue())
    del report["version"]  # a version bump changes no answer
    return report


def digest(report):
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def commutativity_violations(report):
    """The keys of the products x.y, x in H^p and y in H^q, that are not
    (-1)^{pq} y.x; over F_p the coordinates are residues mod p."""
    ring = report["command"]["options"]["ring"]
    char = int(ring[3:]) if ring.startswith("Fp:") else 0
    products = report["results"][0]["products"]
    violations = []
    for key, coords in products.items():
        p, i, q, j = key.split(",")
        sign = -1 if int(p) * int(q) % 2 else 1
        diffs = [Fraction(a) - sign * Fraction(b)
                 for a, b in zip(coords, products[f"{q},{j},{p},{i}"], strict=True)]
        if any(d % char if char else d for d in diffs):
            violations.append(key)
    return violations


@pytest.mark.parametrize("job", REPORTS)
def test_report(job):
    report = report_of(job)
    assert digest(report) == REPORTS[job], (
        f"{job}: digest {digest(report)}, results {report['results']}")
    if job.startswith("ring"):
        assert commutativity_violations(report) == []


def test_commutativity_violations_are_seen():
    # x.x = y for x in H^1: the sign rule for p = q = 1 asks x.x = -x.x
    report = {"command": {"options": {"ring": "Q"}},
              "results": [{"products": {"1,0,1,0": ["1"]}}]}
    assert commutativity_violations(report) == ["1,0,1,0"]
