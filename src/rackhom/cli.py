"""Command-line workbench.

Commands:

* ``homology`` -- homology or cohomology tables for a rack, any supported
  ring and coefficient system;
* ``ring`` -- cohomology ring structure constants over a field;
* ``verify`` -- the exhaustive identity suites, with a minimal witness and
  exit code 1 on any failure.

Exit codes: 0 success, 1 validation or identity failure (including usage
errors, and a stdout closed before the report was written, which prints
nothing more), 2 resource limit.

JSON reports are byte-identical across runs for identical inputs and
configuration; wall-clock timings are reported only when ``--timings`` is
given (the field is null otherwise, keeping the default deterministic).
Nothing in the default suites is sampled, so ``seed`` is always null; the
field exists so the schema is stable if sampled suites are ever added.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .complexes import DEFAULT_MAX_BASIS, RackComplex
from .errors import DimensionOverflow, ParseError, RackhomError, ResourceLimit
from .racks import (MAX_RACK_SIZE, Rack, XSet, builtin, validate_rack, validate_xset,
                    xset_self, xset_singleton)
from .rings import ring_by_name
from .cup import ring_structure
from .verify import ALL_SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_RESOURCE = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are validation failures, not resource failures
    def error(self, message):
        self.exit(EXIT_FAIL, f"{self.prog}: error: {message}\n")


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def parse_rack_text(text: str) -> Rack:
    """Parse the plain rack format: header ``rack n`` then n rows of n
    entries, row x column y holding x <| y.  Blank lines and ``#`` comments
    are skipped; any other line after the n rows is refused.  A header above
    ``MAX_RACK_SIZE`` is refused before any row is read."""
    lines = text.splitlines()
    rows = []
    size = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if size is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "rack":
                raise ParseError("expected header 'rack n'", line=lineno)
            try:
                size = int(parts[1])
            except ValueError:
                raise ParseError(f"bad size {parts[1]!r}", line=lineno) from None
            if size < 1:
                raise ParseError("size must be >= 1", line=lineno)
            if size > MAX_RACK_SIZE:
                raise ResourceLimit(f"rack of size {size} exceeds the limit {MAX_RACK_SIZE}")
            continue
        if len(rows) == size:
            raise ParseError(f"unexpected line after the {size} rows", line=lineno)
        entries = line.split()
        if len(entries) != size:
            raise ParseError(
                f"expected {size} entries, found {len(entries)}", line=lineno
            )
        row = []
        for col, tok in enumerate(entries, start=1):
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"bad entry {tok!r}", line=lineno, column=col) from None
            if not 0 <= v < size:
                raise ParseError(
                    f"entry {v} out of range 0..{size - 1}", line=lineno, column=col
                )
            row.append(v)
        rows.append(row)
    if size is None:
        raise ParseError("empty rack file")
    if len(rows) != size:
        raise ParseError(f"expected {size} rows, found {len(rows)}")
    return validate_rack(rows, label="file")


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _decode(data: bytes) -> str:
    """UTF-8 text with its newlines translated as a read in text mode would."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text ({err.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_json(text: str):
    import json  # here, not at start-up: only a report or a JSON input needs it
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"bad JSON: {err.msg}", line=err.lineno, column=err.colno) from None
    except ValueError:  # the only other one: an int past the interpreter's digit limit
        raise ParseError("bad JSON: an integer has too many digits") from None
    except RecursionError:
        raise ParseError("bad JSON: nested too deeply") from None


def _check_size(obj, height, what):
    """The optional JSON ``"size"`` field: an integer (not a bool or a
    float) equal to the height of the ``what`` array."""
    if "size" not in obj:
        return
    if type(obj["size"]) is not int:
        raise ParseError(f"JSON 'size' must be an integer, not {type(obj['size']).__name__}")
    if obj["size"] != height:
        raise ParseError(f"JSON 'size' disagrees with {what} height")


def parse_rack_file(path: str) -> Rack:
    """Accept either the text format or the JSON shape
    ``{"size": n, "table": [[...]]}``."""
    return _parse_rack(_decode(_read(path)))


def _parse_rack(text: str) -> Rack:
    if text.lstrip().startswith("{"):
        obj = _parse_json(text)
        table = obj.get("table")
        if not isinstance(table, list):
            raise ParseError("JSON rack needs a 'table' array")
        _check_size(obj, len(table), "table")
        return validate_rack(table, label="file")
    return parse_rack_text(text)


def parse_xset_file(path: str, rack: Rack) -> XSet:
    obj = _parse_json(_decode(_read(path)))
    if not isinstance(obj, dict):
        raise ParseError("JSON rack-set must be an object with an 'act' array")
    act = obj.get("act")
    if not isinstance(act, list):
        raise ParseError("JSON rack-set needs an 'act' array")
    _check_size(obj, len(act), "action")
    return validate_xset(rack, act, label="file")


def _load_rack(args) -> tuple[Rack, bytes]:
    """The rack and the bytes that the report's ``input_sha`` digests: the
    file as read (once), or the builtin spec."""
    if args.builtin is not None:
        return builtin(args.builtin), f"builtin:{args.builtin}".encode()
    data = _read(args.rack)
    return _parse_rack(_decode(data)), data


def _coefficients(args, rack) -> XSet | None:
    spec = getattr(args, "coefficients", None)
    if spec in (None, "trivial"):
        return None
    if spec == "self":
        return xset_self(rack)
    if spec == "singleton":
        return xset_singleton(rack)
    return parse_xset_file(spec, rack)


def _scalar_json(v):
    # residues over F_p are ints; a rational over Q is reported as "a/b"
    return v if isinstance(v, int) else str(v)


def make_report(command, options, source: bytes, results=None, suites=None,
                timings=None):
    try:  # CPython's own sha256, here, not at start-up; hashlib loads OpenSSL
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return {
        "version": __version__,
        "input_sha": sha256(source).hexdigest(),
        "command": {"name": command, "options": options},
        "results": results or [],
        "suites": suites or [],
        "seed": None,
        "timings": timings,
    }


def emit(report, as_json, human_lines):
    """Print the JSON report, or else the lines that ``human_lines()``
    yields: they are made only when printed."""
    if as_json:
        import json
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for line in human_lines():
            print(line)


def cmd_homology(args) -> int:
    rack, source = _load_rack(args)
    ring = ring_by_name(args.ring)
    xs = _coefficients(args, rack)
    t0 = time.perf_counter()
    complex_ = RackComplex(rack, ring, args.max_degree + 1, xs, args.max_basis, args.quandle)
    if args.cohomology:
        group, kind, label = complex_.cohomology, "cohomology", "H^{}"
    else:
        group, kind, label = complex_.homology, "homology", "H_{}"
    groups = [group(n) for n in range(1, args.max_degree + 1)]
    results = [{"kind": kind, "degree": h.degree, "betti": h.betti,
                "torsion": list(h.torsion)} for h in groups]
    timings = {"total_s": round(time.perf_counter() - t0, 6)} if args.timings else None
    options = {
        "ring": args.ring,
        "max_degree": args.max_degree,
        "quandle": args.quandle,
        "cohomology": args.cohomology,
        "coefficients": args.coefficients or "trivial",
        "max_basis": args.max_basis,
    }
    report = make_report("homology", options, source, results=results,
                         timings=timings)

    def human():
        yield (f"{rack.label}: size {rack.size}, "
               + ("quandle" if rack.is_quandle() else "rack (not a quandle)"))
        for h in groups:
            shown = f"{ring.name}^{h.betti}" if ring.is_field else h.describe()
            yield f"{label.format(h.degree)} over {ring.name}: {shown}"

    emit(report, args.json, human)
    return EXIT_OK


def cmd_ring(args) -> int:
    rack, source = _load_rack(args)
    ring = ring_by_name(args.ring)
    if not ring.is_field:
        raise ParseError("ring structure needs a field: Q or Fp:p")
    t0 = time.perf_counter()
    rs = ring_structure(rack, ring, args.max_degree, args.quandle,
                        max_basis=args.max_basis)
    timings = {"total_s": round(time.perf_counter() - t0, 6)} if args.timings else None
    dims = {str(p): rs.dims[p] for p in sorted(rs.dims)}
    if not ring.char:
        from fractions import Fraction  # only a Q report prints rationals
    reps = {
        str(p): [[v if ring.char else str(Fraction(v, rs.dens[p])) for v in vec]
                 for vec in rs.reps[p]]
        for p in sorted(rs.reps)
    }
    products = {
        f"{p},{i},{q},{j}": [_scalar_json(c) for c in coords]
        for (p, i, q, j), coords in sorted(rs.products.items())
    }
    results = [{"dims": dims, "representatives": reps, "products": products}]
    options = {
        "ring": args.ring,
        "max_degree": args.max_degree,
        "quandle": args.quandle,
        "max_basis": args.max_basis,
    }
    report = make_report("ring", options, source, results=results, timings=timings)

    def human():
        yield f"{rack.label}: cohomology ring over {ring.name} up to degree {args.max_degree}"
        yield "dims: " + ", ".join(f"H^{p}={rs.dims[p]}" for p in sorted(rs.dims))
        for (p, i, q, j), coords in sorted(rs.products.items()):
            yield (f"[{p}:{i}] . [{q}:{j}] = ("
                   + ", ".join(str(c) for c in coords) + f") in H^{p + q}")

    emit(report, args.json, human)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    seconds = {}
    suites = run_suite(args.suite, seconds)
    timings = {"total_s": round(time.perf_counter() - t0, 6),
               "suites": seconds} if args.timings else None
    report = make_report(
        "verify", {"suite": args.suite}, f"verify:{args.suite}".encode(),
        suites=[s.as_dict() for s in suites], timings=timings,
    )

    def human():
        for s in suites:
            yield f"{s.name}: {'pass' if s.passed else 'FAIL'} ({s.checks} checks)"
            for note in s.notes:
                yield f"  note: {note}"
            if not s.passed:
                yield f"  witness: {s.witness}"

    emit(report, args.json, human)
    return EXIT_OK if all(s.passed for s in suites) else EXIT_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="rackhom", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rack_source(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--builtin", metavar="KIND:ARG",
                         help="trivial:n, dihedral:n, cyclic:n, conjugation:s3")
        src.add_argument("--rack", metavar="PATH",
                         help="rack file (text or JSON)")
        p.add_argument("--quandle", action="store_true",
                       help="use the quandle (non-degenerate) complex")
        p.add_argument("--max-basis", type=_int_at_least(1), default=DEFAULT_MAX_BASIS,
                       help="cap on basis size before exiting with code 2")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks byte-identical output)")

    p_hom = sub.add_parser("homology", help="homology / cohomology tables")
    add_rack_source(p_hom)
    p_hom.add_argument("--ring", default="Z", help="Z, Q, or Fp:p (default Z)")
    p_hom.add_argument("--max-degree", type=_int_at_least(1), default=3)
    p_hom.add_argument("--cohomology", action="store_true")
    p_hom.add_argument("--coefficients", metavar="SPEC",
                       help="trivial (default), self, singleton, or a rack-set JSON path")
    p_hom.set_defaults(func=cmd_homology)

    p_ring = sub.add_parser("ring", help="cohomology ring structure constants")
    add_rack_source(p_ring)
    p_ring.add_argument("--ring", default="Q", help="Q or Fp:p (default Q)")
    p_ring.add_argument("--max-degree", type=_int_at_least(0), default=2)
    p_ring.set_defaults(func=cmd_ring)

    p_ver = sub.add_parser("verify", help="run identity suites")
    p_ver.add_argument("--suite", default="all",
                       help="one of: " + ", ".join(ALL_SUITES) + ", or all")
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--timings", action="store_true",
                       help="include wall-clock timings, in total and per suite")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, and point stdout at devnull
        # so that the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except ResourceLimit as err:
        hint = "; --max-basis raises the cap" if isinstance(err, DimensionOverflow) else ""
        print(f"rackhom: resource limit: {err}{hint}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RackhomError, OSError) as err:
        # user errors only: anything else is a bug and ends in a traceback
        print(f"rackhom: error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
