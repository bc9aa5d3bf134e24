"""The survey scripts as programs: what their exit status says."""

import importlib.util
import sys
from pathlib import Path

from rackhom.cup import RingStructure

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ring_tables_exits_1_on_a_commutativity_violation(monkeypatch, capsys):
    ring_tables = load_script("ring_tables")
    monkeypatch.setattr(sys, "argv", ["ring_tables.py", "--racks", "trivial:1",
                                      "--max-degree", "2"])
    assert ring_tables.main() == 0
    # x.x = y for x in H^1: the sign rule for p = q = 1 asks x.x = -x.x
    broken = RingStructure({0: 1, 1: 1, 2: 1}, {}, {}, {(1, 0, 1, 0): (1,)})
    monkeypatch.setattr(ring_tables, "ring_structure", lambda rack, ring, max_degree: broken)
    assert ring_tables.main() == 1
    assert capsys.readouterr().out.endswith("graded commutativity violations: 1\n")
