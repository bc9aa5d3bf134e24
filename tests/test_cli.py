import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rackhom.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_RESOURCE,
    main,
    parse_rack_file,
    parse_rack_text,
    parse_xset_file,
)
from rackhom import cli, racks, verify
from rackhom.errors import ParseError, R1Violation
from rackhom.racks import dihedral_rack
from rackhom.rings import MAX_PRIME


R3_TEXT = "rack 3\n0 2 1\n2 1 0\n1 0 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- parsing -----------------------------------------------------------------


def test_parse_text_rack():
    rack = parse_rack_text(R3_TEXT)
    assert rack.size == 3
    assert rack.table == dihedral_rack(3).table


def test_parse_one_element_rack():
    assert parse_rack_text("rack 1\n0\n").size == 1


def test_parse_skips_comments_and_blanks():
    rack = parse_rack_text("# dihedral\n\nrack 3\n0 2 1\n2 1 0\n1 0 2\n\n# trailing\n\n")
    assert rack.size == 3


def test_parse_out_of_range_entry():
    with pytest.raises(ParseError) as exc:
        parse_rack_text("rack 3\n0 2 1\n2 1 3\n1 0 2\n")
    assert exc.value.line == 3
    assert exc.value.column == 3


def test_parse_bad_header():
    with pytest.raises(ParseError):
        parse_rack_text("quandle 3\n")
    with pytest.raises(ParseError):
        parse_rack_text("")


def test_parse_wrong_row_count():
    with pytest.raises(ParseError):
        parse_rack_text("rack 3\n0 2 1\n2 1 0\n")


def test_parse_json_rack(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"size": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}))
    assert parse_rack_file(str(path)).size == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        parse_rack_file(str(bad))


def test_parse_file_forwards_axiom_errors(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("rack 2\n0 0\n1 1\n")
    rack = parse_rack_file(str(path))  # trivial:2 is valid
    assert rack.is_quandle()
    path.write_text("rack 2\n0 0\n0 1\n")
    with pytest.raises(R1Violation):
        parse_rack_file(str(path))


def test_parse_xset_file(tmp_path):
    rack = dihedral_rack(3)
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"size": 3, "act": [list(r) for r in rack.table]}))
    xs = parse_xset_file(str(path), rack)
    assert xs.act == rack.table


# --- commands ------------------------------------------------------------------


def test_homology_command_human(capsys):
    code, out, err = run(capsys, "homology", "--builtin", "trivial:1",
                         "--ring", "Z", "--max-degree", "4")
    assert code == EXIT_OK
    for n in (1, 2, 3, 4):
        assert f"H_{n} over Z: Z" in out


def test_homology_command_quandle_torsion(capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "dihedral:3",
                       "--ring", "Z", "--max-degree", "3", "--quandle")
    assert code == EXIT_OK
    assert "H_3 over Z: Z/3" in out


def test_homology_rational_betti(capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "dihedral:3",
                       "--ring", "Q", "--max-degree", "3")
    assert code == EXIT_OK
    assert out.count("Q^1") == 3


def test_cohomology_flag(capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "dihedral:4",
                       "--ring", "Q", "--max-degree", "2", "--cohomology")
    assert code == EXIT_OK
    assert "H^1 over Q: Q^2" in out and "H^2 over Q: Q^4" in out


def test_homology_with_coefficients(capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "dihedral:3",
                       "--ring", "Z", "--max-degree", "2",
                       "--coefficients", "self", "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["command"]["options"]["coefficients"] == "self"
    code2, out2, _ = run(capsys, "homology", "--builtin", "dihedral:3",
                         "--ring", "Z", "--max-degree", "2",
                         "--coefficients", "singleton", "--json")
    trivial = run(capsys, "homology", "--builtin", "dihedral:3",
                  "--ring", "Z", "--max-degree", "2", "--json")
    assert json.loads(out2)["results"] == json.loads(trivial[1])["results"]


def test_ring_command(capsys):
    code, out, _ = run(capsys, "ring", "--builtin", "dihedral:3",
                       "--ring", "Q", "--max-degree", "2")
    assert code == EXIT_OK
    assert out == (
        "dihedral:3: cohomology ring over Q up to degree 2\n"
        "dims: H^0=1, H^1=1, H^2=1\n"
        "[0:0] . [0:0] = (1) in H^0\n"
        "[0:0] . [1:0] = (1) in H^1\n"
        "[0:0] . [2:0] = (1) in H^2\n"
        "[1:0] . [0:0] = (1) in H^1\n"
        "[1:0] . [1:0] = (0) in H^2\n"
        "[2:0] . [0:0] = (1) in H^2\n"
    )


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "regression")
    assert code == EXIT_OK
    assert "regression: pass" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == EXIT_FAIL


def test_verify_unknown_suite_message_unquoted(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == EXIT_FAIL
    assert err.startswith("rackhom: error: unknown suite 'nope';")


def test_homology_dihedral4_degree5_over_z(capsys):
    # its 1024x4096 top boundary takes 732 unit pivots, then Euclid's
    # algorithm on the residual finds the 66 pivots of the torsion, each 2
    code, out, _ = run(capsys, "homology", "--builtin", "dihedral:4",
                       "--ring", "Z", "--max-degree", "5", "--json")
    assert code == EXIT_OK
    h5 = json.loads(out)["results"][4]
    assert (h5["degree"], h5["betti"], h5["torsion"]) == (5, 32, [2] * 66)


@pytest.mark.parametrize("degree", ["-2", "0"])
def test_homology_rejects_max_degree_below_one(capsys, degree):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--builtin", "trivial:1", "--max-degree", degree])
    assert exc.value.code == EXIT_FAIL
    assert "--max-degree: must be >= 1" in capsys.readouterr().err


def test_ring_rejects_negative_max_degree(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ring", "--builtin", "trivial:1", "--max-degree", "-1"])
    assert exc.value.code == EXIT_FAIL
    assert "--max-degree: must be >= 0" in capsys.readouterr().err
    code, out, _ = run(capsys, "ring", "--builtin", "trivial:1", "--max-degree", "0")
    assert code == EXIT_OK


def test_closed_stdout_ends_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rackhom", "homology", "--builtin", "dihedral:3",
             "--max-degree", "2", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_FAIL
    assert proc.stderr == b""


def test_startup_imports_no_generated_code():
    # dataclasses pulls in inspect, ast and dis, and each record body execs
    # generated source; fractions is needed only by a Q report, hashlib (with
    # OpenSSL) and json only by a report or a JSON input; typing and pathlib
    # (with urllib.parse and ipaddress) are needed by nothing.  -S keeps the
    # imports of site-packages .pth files out of the baseline.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import argparse, sys\n"
            "before = set(sys.modules)\n"
            "import rackhom.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    new = set(proc.stdout.split())
    assert "rackhom.cli" in new
    assert not new & {"dataclasses", "inspect", "fractions", "typing", "pathlib",
                      "hashlib", "_hashlib", "json"}


def test_exit_code_validation(capsys):
    code, _, err = run(capsys, "homology", "--builtin", "cyclic:3",
                       "--quandle", "--max-degree", "2")
    assert code == EXIT_FAIL
    assert "not a quandle" in err


def test_exit_code_resource(capsys):
    code, _, err = run(capsys, "homology", "--builtin", "dihedral:6",
                       "--max-degree", "4", "--max-basis", "100")
    assert code == EXIT_RESOURCE
    assert "resource limit" in err


def test_a_non_quandle_is_refused_before_the_cap(capsys):
    # cyclic:3's quandle basis of degree 18 would exceed the default cap
    code, out, err = run(capsys, "homology", "--builtin", "cyclic:3",
                         "--quandle", "--max-degree", "20")
    assert (code, out, err) == (EXIT_FAIL, "", "rackhom: error: cyclic:3 is not a quandle\n")


@pytest.mark.parametrize("argv, limit", [
    (("homology", "--builtin", "trivial:3", "--max-degree", "12"),
     "basis of degree 12 over size-3 rack exceeds cap 200000"),
    (("ring", "--builtin", "trivial:3", "--max-degree", "2", "--max-basis", "8"),
     "basis of degree 2 over size-3 rack exceeds cap 8"),
    # trivial:1 has one tuple per degree, so no basis reaches the cap; the
    # stencil (5, 7) of its degree-12 products has C(12, 7) = 792 terms
    (("ring", "--builtin", "trivial:1", "--max-degree", "12", "--max-basis", "500"),
     "cup stencil of degrees (5, 7) has 792 terms (1 tuples x 792 subsets), over the cap 500"),
])
def test_the_basis_cap_message_names_the_flag(capsys, argv, limit):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == f"rackhom: resource limit: {limit}; --max-basis raises the cap\n"


def test_max_basis_counts_the_columns_of_a_rack_set(capsys, tmp_path):
    # 3 tuples of degree 1 stay under the cap, 3 x 1000 columns do not
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"act": [[y] * 3 for y in range(1000)]}))
    code, out, err = run(capsys, "homology", "--builtin", "dihedral:3", "--coefficients",
                         str(path), "--max-degree", "2", "--max-basis", "30")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert "3000 columns (3 tuples x 1000 points)" in err and "Traceback" not in err


@pytest.mark.parametrize("content", ["[[0, 1, 2]]", '{"act": [0, 1, 2]}'])
def test_coefficients_file_of_wrong_shape(capsys, tmp_path, content):
    path = tmp_path / "x.json"
    path.write_text(content)
    code, _, err = run(capsys, "homology", "--builtin", "dihedral:3",
                       "--coefficients", str(path))
    assert code == EXIT_FAIL
    assert err.startswith("rackhom: error:") and "Traceback" not in err


def test_json_rack_with_non_list_rows(capsys, tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"table": [0, 1]}')
    code, _, err = run(capsys, "homology", "--rack", str(path))
    assert code == EXIT_FAIL
    assert "not a list" in err


def test_json_rack_with_boolean_entries(capsys, tmp_path):
    # true/false are ints to isinstance; as a table this would be a trivial rack
    path = tmp_path / "r.json"
    path.write_text('{"table": [[false, false], [true, true]]}')
    code, out, err = run(capsys, "homology", "--rack", str(path))
    assert code == EXIT_FAIL
    assert out == ""
    assert "entry False is not an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("text, line", [
    ("rack 2\n0 0\n1 1\n7 7 7 garbage\n", 4),
    ("rack 2\n0 0\n1 1\n\n# a comment\n0 0\n", 6),
    ("rack 2\n0 0\n1 1\nrack 2\n", 4),
])
def test_text_rack_with_lines_after_its_rows(capsys, tmp_path, text, line):
    path = tmp_path / "r.txt"
    path.write_text(text)
    code, out, err = run(capsys, "homology", "--rack", str(path))
    assert code == EXIT_FAIL
    assert out == ""
    assert err == f"rackhom: error: unexpected line after the 2 rows (line {line})\n"


@pytest.mark.parametrize("size, kind, spec, table", [
    ("true", "bool", "trivial:1", [[0]]),
    ("3.0", "float", "dihedral:3", [[0, 2, 1], [2, 1, 0], [1, 0, 2]]),
])
@pytest.mark.parametrize("option", ["--rack", "--coefficients"])
def test_json_size_must_be_an_integer(capsys, tmp_path, size, kind, spec, table, option):
    # true == 1 and 3.0 == 3, so a comparison with the height alone lets both in
    path = tmp_path / "in.json"
    key = "table" if option == "--rack" else "act"
    path.write_text(f'{{"size": {size}, "{key}": {json.dumps(table)}}}')
    args = ["--rack", str(path)] if option == "--rack" else [
        "--builtin", spec, "--coefficients", str(path)]
    code, out, err = run(capsys, "homology", *args)
    assert code == EXIT_FAIL
    assert out == ""
    assert err == f"rackhom: error: JSON 'size' must be an integer, not {kind}\n"


def test_coefficients_file_with_boolean_entries(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"act": [[false, false, false], [true, true, true], [2, 2, 2]]}')
    code, out, err = run(capsys, "homology", "--builtin", "trivial:3",
                         "--coefficients", str(path))
    assert code == EXIT_FAIL
    assert out == ""
    assert "action entry False is not an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", ["dihedral:x", "dihedral:", "trivial:1.5"])
def test_builtin_bad_size_names_the_spec(capsys, spec):
    code, _, err = run(capsys, "homology", "--builtin", spec)
    assert code == EXIT_FAIL
    assert repr(spec) in err and "int()" not in err


def test_builtin_huge_size_refused_before_building(capsys, monkeypatch):
    def no_table(n):
        raise AssertionError(f"a size-{n} table was built")

    monkeypatch.setattr(racks, "dihedral_rack", no_table)
    t0 = time.perf_counter()
    code, _, err = run(capsys, "homology", "--builtin", "dihedral:99999999999999999999")
    assert time.perf_counter() - t0 < 1
    assert code == EXIT_RESOURCE
    assert f"exceeds the limit {racks.MAX_RACK_SIZE}" in err


def test_text_rack_above_the_size_limit_refused_before_its_rows(capsys, tmp_path):
    # the row after the header is malformed: reading it would be exit 1
    path = tmp_path / "big.txt"
    path.write_text(f"# too big\nrack {racks.MAX_RACK_SIZE + 1}\nnot a row\n")
    code, out, err = run(capsys, "homology", "--rack", str(path))
    assert (code, out) == (EXIT_RESOURCE, "")
    assert f"rack of size {racks.MAX_RACK_SIZE + 1} exceeds the limit {racks.MAX_RACK_SIZE}" in err
    assert "--max-basis" not in err  # no basis cap is involved


def test_json_rack_above_the_size_limit_refused_before_validation(capsys, tmp_path,
                                                                   monkeypatch):
    def no_check(table):
        raise AssertionError(f"a size-{len(table)} table was checked")

    monkeypatch.setattr(racks, "_check_shape", no_check)
    n = racks.MAX_RACK_SIZE + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"size": n, "table": [[x] * n for x in range(n)]}))
    code, out, err = run(capsys, "homology", "--rack", str(path))
    assert (code, out) == (EXIT_RESOURCE, "")
    assert f"rack of size {n} exceeds the limit {racks.MAX_RACK_SIZE}" in err


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_max_basis_below_one_is_a_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--builtin", "trivial:1", "--max-basis", cap])
    assert exc.value.code == EXIT_FAIL
    assert "--max-basis: must be >= 1" in capsys.readouterr().err


def test_ring_with_bad_p_names_the_spec(capsys):
    code, _, err = run(capsys, "homology", "--builtin", "trivial:1", "--ring", "Fp:x")
    assert code == EXIT_FAIL
    assert "'Fp:x'" in err and "int()" not in err


def test_ring_with_huge_p_refused_before_primality_test(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "homology", "--builtin", "trivial:1",
                       "--ring", "Fp:1000000000000000003")
    assert time.perf_counter() - t0 < 1
    assert code == EXIT_RESOURCE
    assert f"exceeds the limit {MAX_PRIME}" in err


@pytest.mark.parametrize("spec, message", [
    ("Fp:4", "4 is not prime"),
    ("R", "unknown ring 'R' (expected Z, Q, or Fp:p)"),
])
def test_bad_ring_is_a_validation_error(capsys, spec, message):
    code, out, err = run(capsys, "homology", "--builtin", "trivial:1", "--ring", spec)
    assert code == EXIT_FAIL
    assert out == ""
    assert err == f"rackhom: error: {message}\n"


@pytest.mark.parametrize("argv, content, message", [
    ("ring --builtin trivial:1 --ring Z", "", "ring structure needs a field: Q or Fp:p"),
    ("homology --rack {path}", "rack 2\n0 x\n1 1\n", "bad entry 'x' (line 2, column 2)"),
    ("homology --rack {path}", '{"size": 3, "table": [[0, 0], [1, 1]]}',
     "JSON 'size' disagrees with table height"),
    ("homology --builtin trivial:0", "", "size must be >= 1"),
    ("homology --builtin dihedral:0", "", "size must be >= 1"),
    ("homology --builtin cyclic:0", "", "size must be >= 1"),
], ids=["ring-over-Z", "text-entry", "json-size", "trivial:0", "dihedral:0", "cyclic:0"])
def test_refused_with_exit_1(capsys, tmp_path, argv, content, message):
    path = tmp_path / "input"
    path.write_text(content)
    code, out, err = run(capsys, *argv.format(path=path).split())
    assert (code, out, err) == (EXIT_FAIL, "", f"rackhom: error: {message}\n")


def test_empty_builtin_spec_names_the_kind(capsys):
    code, _, err = run(capsys, "homology", "--builtin", "")
    assert code == EXIT_FAIL
    assert err == "rackhom: error: unknown builtin kind ''\n"


@pytest.mark.parametrize("option", ["--rack", "--coefficients"])
def test_file_that_is_not_utf8(capsys, tmp_path, option):
    path = tmp_path / "bad"
    path.write_bytes(b"rack 1\n\xff\n")
    args = ["--rack", str(path)] if option == "--rack" else [
        "--builtin", "dihedral:3", "--coefficients", str(path)]
    code, out, err = run(capsys, "homology", *args)
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "rackhom: error: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("table, message", [
    ("[[" + "1" * 5000 + "]]", "an integer has too many digits"),
    ("[" * 100000 + "]" * 100000, "nested too deeply"),
])
def test_json_rack_beyond_the_decoder(capsys, tmp_path, table, message):
    path = tmp_path / "r.json"
    path.write_text('{"table": ' + table + "}")
    code, _, err = run(capsys, "homology", "--rack", str(path))
    assert code == EXIT_FAIL
    assert err == f"rackhom: error: bad JSON: {message}\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["size", "table", "act", "x"]), inner, max_size=3),
    max_leaves=24,
)
RACK_TEXT = st.builds(
    lambda header, rows: header + "\n" + "\n".join(" ".join(map(str, r)) for r in rows),
    st.sampled_from(["rack 1", "rack 2", "rack 3", "rack -1", "rack x", "# c\nrack 2", ""]),
    st.lists(st.lists(st.integers(-1, 3), max_size=4), max_size=4),
)
FILE_CONTENTS = st.one_of(
    st.text(max_size=80).map(str.encode),
    RACK_TEXT.map(str.encode),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.dictionaries(st.sampled_from(["size", "table", "act"]), JSON_VALUES, max_size=3)
    .map(lambda v: json.dumps(v).encode()),
    st.binary(max_size=80),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(FILE_CONTENTS, st.booleans())
def test_input_files_fuzzed(capsys, tmp_path, content, as_rack):
    """Random text, JSON and bytes as a rack file or a coefficient file end
    in an exit code, never in an exception."""
    path = tmp_path / "input"
    path.write_bytes(content)
    args = ["--rack", str(path)] if as_rack else [
        "--builtin", "dihedral:3", "--coefficients", str(path)]
    assert main(["homology", *args, "--max-degree", "2"]) in (EXIT_OK, EXIT_FAIL, EXIT_RESOURCE)
    capsys.readouterr()


def test_internal_value_error_propagates(monkeypatch):
    # only package errors and OSError are user errors; a bug reads as a traceback
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "ring_structure", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["ring", "--builtin", "trivial:1"])


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "homology", "--rack", "/nonexistent/r.txt")
    assert code == EXIT_FAIL


def test_json_report_deterministic_and_round_trips(capsys):
    args = ("homology", "--builtin", "dihedral:3", "--ring", "Z",
            "--max-degree", "3", "--quandle", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    report = json.loads(out1)
    assert set(report) == {
        "version", "input_sha", "command", "results", "suites", "seed", "timings",
    }
    assert report["seed"] is None
    assert report["timings"] is None
    assert json.loads(json.dumps(report)) == report
    torsion = [r["torsion"] for r in report["results"]]
    assert torsion == [[], [], [3]]


def test_ring_json_deterministic(capsys):
    args = ("ring", "--builtin", "dihedral:4", "--ring", "Q",
            "--max-degree", "2", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    report = json.loads(out1)
    assert report["results"][0]["dims"] == {"0": "1", "1": "2", "2": "4"} or \
        report["results"][0]["dims"] == {"0": 1, "1": 2, "2": 4}


def test_timings_opt_in(capsys):
    code, out, _ = run(capsys, "homology", "--builtin", "trivial:2",
                       "--max-degree", "2", "--json", "--timings")
    report = json.loads(out)
    assert report["timings"] is not None and "total_s" in report["timings"]


def test_verify_timings_report_each_suite(capsys, monkeypatch):
    """Each suite is timed as it runs through ``ALL_SUITES``, in order; a
    report without ``--timings`` has none."""
    called = []

    def fake(name):
        return lambda: called.append(name) or verify.SuiteResult(name, True, 1)

    monkeypatch.setattr(verify, "ALL_SUITES", {"b": fake("b"), "a": fake("a")})
    code, out, _ = run(capsys, "verify", "--json", "--timings")
    timings = json.loads(out)["timings"]
    assert (code, called, list(timings)) == (EXIT_OK, ["b", "a"], ["suites", "total_s"])
    assert set(timings["suites"]) == {"a", "b"}
    code, out, _ = run(capsys, "verify", "--suite", "a", "--json")
    assert (called[2:], json.loads(out)["timings"]) == (["a"], None)


def test_crlf_rack_file_digest_is_of_its_bytes(capsys, tmp_path):
    data = R3_TEXT.replace("\n", "\r\n").encode()
    path = tmp_path / "r.txt"
    path.write_bytes(data)
    code, out, _ = run(capsys, "homology", "--rack", str(path), "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["input_sha"] == hashlib.sha256(data).hexdigest()
    assert report["input_sha"] == (
        "fe9a0e4c79324808ef06612e2061effbcdca49f2ff891e3803d4c51a0d8b1077"
    )
    _, out_lf, _ = run(capsys, "homology", "--builtin", "dihedral:3", "--json")
    assert report["results"] == json.loads(out_lf)["results"]


BOM = "\ufeff".encode()  # the UTF-8 byte-order mark, EF BB BF


@pytest.mark.parametrize("shape", ["text", "json"])
def test_rack_file_with_a_byte_order_mark(capsys, tmp_path, shape):
    """A rack file saved with a UTF-8 byte-order mark reads as without it;
    ``input_sha`` digests the file's bytes, the mark included."""
    body = R3_TEXT if shape == "text" else json.dumps(
        {"table": [list(row) for row in dihedral_rack(3).table]})
    data = BOM + body.encode()
    path = tmp_path / "r"
    path.write_bytes(data)
    code, out, err = run(capsys, "homology", "--rack", str(path), "--json")
    assert (code, err) == (EXIT_OK, "")
    report = json.loads(out)
    assert report["input_sha"] == hashlib.sha256(data).hexdigest()
    _, plain, _ = run(capsys, "homology", "--builtin", "dihedral:3", "--json")
    assert report["results"] == json.loads(plain)["results"]


def test_rack_set_file_with_a_byte_order_mark(capsys, tmp_path):
    rack = dihedral_rack(3)
    body = json.dumps({"act": [list(row) for row in rack.table]}).encode()
    plain, marked = tmp_path / "x.json", tmp_path / "bom.json"
    plain.write_bytes(body)
    marked.write_bytes(BOM + body)
    assert parse_xset_file(str(marked), rack).act == parse_xset_file(str(plain), rack).act
    outputs = [run(capsys, "homology", "--builtin", "dihedral:3", "--max-degree", "2",
                   "--coefficients", str(path)) for path in (plain, marked)]
    assert outputs[0][0] == EXIT_OK
    assert outputs[1] == outputs[0]


def test_report_digest_is_sha256_without_openssl(capsys, tmp_path):
    """``input_sha`` is the sha256 of the builtin spec or of the file's
    bytes, from CPython's own sha256 module: a report job loads neither
    hashlib nor ``_hashlib`` (OpenSSL)."""
    path = tmp_path / "r.txt"
    path.write_bytes(R3_TEXT.encode())
    for source, data in ((["--builtin", "dihedral:3"], b"builtin:dihedral:3"),
                         (["--rack", str(path)], R3_TEXT.encode())):
        code, out, _ = run(capsys, "homology", *source, "--max-degree", "1", "--json")
        assert (code, json.loads(out)["input_sha"]) == (EXIT_OK, hashlib.sha256(data).hexdigest())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from rackhom.cli import main\n"
            "main(['homology', '--builtin', 'dihedral:3', '--max-degree', '1', '--json'])\n"
            "print(*sorted({'hashlib', '_hashlib'} & set(sys.modules)), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert json.loads(proc.stdout)["input_sha"] == hashlib.sha256(b"builtin:dihedral:3").hexdigest()
    assert proc.stderr == "\n"


def test_rack_file_read_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "bad"
    path.write_bytes(b"rack 3\r\n0 2 1\r\n\xc3\n")
    reads = []
    read = cli._read
    monkeypatch.setattr(cli, "_read", lambda p: reads.append(p) or read(p))
    code, out, err = run(capsys, "ring", "--rack", str(path), "--ring", "Q")
    assert (code, out) == (EXIT_FAIL, "")
    assert err == "rackhom: error: not UTF-8 text (invalid continuation byte)\n"
    assert reads == [str(path)]


def test_file_input_sha_differs_from_builtin(capsys, tmp_path):
    path = tmp_path / "r.txt"
    path.write_text(R3_TEXT)
    _, out_file, _ = run(capsys, "homology", "--rack", str(path), "--json")
    _, out_builtin, _ = run(capsys, "homology", "--builtin", "dihedral:3", "--json")
    rf, rb = json.loads(out_file), json.loads(out_builtin)
    assert rf["results"] == rb["results"]
    assert rf["input_sha"] != rb["input_sha"]
