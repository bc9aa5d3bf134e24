"""Run one rackhom CLI job with the public functions of each layer wrapped.

    python perfbench/traced.py STATS_PATH -- homology --builtin dihedral:3 --json

The wrappers are installed from outside the package: every module namespace
that binds a wrapped function (including names bound by ``from .x import y``
and the package ``__init__`` re-exports) is rebound to the wrapper, as are
the ``verify.ALL_SUITES`` entries and four ``WordAlgebra`` methods. Each
wrapper accumulates self time (its own duration minus that of wrapped calls
it makes) and a call count; counts such as nnz and matrix shapes are taken
outside the timed window, and the bookkeeping time itself is summed as
``overhead_s``. Everything is kept in memory and written to STATS_PATH as
JSON after ``rackhom.cli.main`` returns; the CLI's own output is untouched.

Scalar ring operations and private helpers are not wrapped: they are called
millions of times, so a wrapper there would measure itself.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _nnz(stat, args, kwargs, result):
    stat["nnz"] = stat.get("nnz", 0) + result.nnz()


def _checks(stat, args, kwargs, result):
    stat["checks"] = stat.get("checks", 0) + result.checks


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.stack = [0.0]
        self.overhead_s = 0.0
        self.reductions = 0
        # matrices handed to rank/SNF, kept alive so that their ids stay distinct
        self.reduced: dict[int, object] = {}

    def _reduction(self, stat, args, kwargs, result):
        mat = args[0] if args else kwargs["mat"]
        self.reductions += 1
        self.reduced[id(mat)] = mat

    def _snf(self, stat, args, kwargs, result):
        mat = args[0] if args else kwargs["mat"]
        stat["entries"] = stat.get("entries", 0) + mat.nrows * mat.ncols
        self._reduction(stat, args, kwargs, result)

    def wrap(self, fn, key, count=None):
        stat = self.stats.setdefault(key, {"self_s": 0.0, "calls": 0})
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            stack.append(0.0)
            t0 = perf_counter()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if count is not None:
                    count(stat, args, kwargs, result)
                return result
            finally:
                if t1 is None:
                    t1 = perf_counter()
                stat["self_s"] += t1 - t0 - stack.pop()
                stat["calls"] += 1
                t_out = perf_counter()
                stack[-1] += t_out - t_in
                self.overhead_s += (t0 - t_in) + (t_out - t1)

        return traced

    def install(self):
        import rackhom.cli  # noqa: F401  (imports every layer)

        modules = [m for name, m in sys.modules.items()
                   if name == "rackhom" or name.startswith("rackhom.")]

        def rebind(module_name, attr, key, count=None):
            # sys.modules, not rackhom.<x>: the package re-exports the function
            # ``cup`` over the submodule attribute of the same name
            orig = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(orig, key, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, name, wrapper)

        rebind("rackhom.cli", "parse_rack_file", "cli.parse_rack_file")
        for attr in ("builtin", "validate_rack"):
            rebind("rackhom.racks", attr, f"racks.{attr}")
        rebind("rackhom.complexes", "tuple_basis", "complexes.tuple_basis")
        for attr in ("boundary_matrix", "cochain_differential_matrix"):
            rebind("rackhom.complexes", attr, f"complexes.{attr}", _nnz)
        rebind("rackhom.complexes", "cochain_differential", "complexes.cochain_differential")
        rebind("rackhom.linalg", "homology", "linalg.homology")
        rebind("rackhom.linalg", "smith_normal_form", "linalg.smith_normal_form", self._snf)
        rebind("rackhom.linalg", "rank", "linalg.rank", self._reduction)
        for attr in ("kernel_basis", "image_basis", "solve", "solve_many", "in_span"):
            rebind("rackhom.linalg", attr, f"linalg.{attr}")
        for attr in ("cup", "cup_via_coproduct", "homotopy_cochain", "ring_structure"):
            rebind("rackhom.cup", attr, f"cup.{attr}")

        algebra = sys.modules["rackhom.words"].WordAlgebra
        for attr in ("coproduct", "h", "d", "multiply"):
            setattr(algebra, attr, self.wrap(getattr(algebra, attr), f"words.{attr}"))

        suites = sys.modules["rackhom.verify"].ALL_SUITES
        for name, fn in suites.items():
            suites[name] = self.wrap(fn, f"verify.{name}", _checks)

    def report(self):
        return {
            "stats": self.stats,
            "overhead_s": self.overhead_s,
            "reductions": self.reductions,
            "distinct_matrices": len(self.reduced),
        }


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    stats_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    code = sys.modules["rackhom.cli"].main(cli_argv)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
