"""scripts/import_cost.py: the import of ``schrogeo.cli`` timed in fresh
interpreters, against a second checkout."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "import_cost.py"
spec = importlib.util.spec_from_file_location("import_cost", SCRIPT)
import_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(import_cost)


def test_two_rounds_against_the_same_checkout(capsys):
    assert import_cost.main(["--repeats", "2", "--against", str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "import schrogeo.cli, 2 fresh interpreter(s) per side"
    rows = {tuple(line.split()[:2]): line.split()[2:5] for line in lines[2:6]}
    assert set(rows) == {(w, s) for w in ("setup", "own") for s in ("this", "against")}
    for (what, side), numbers in rows.items():
        median, q1, q3 = map(float, numbers)
        assert 0 < q1 <= median <= q3, (what, side)
    assert float(rows["own", "this"][0]) < float(rows["setup", "this"][0])
    assert lines[6].startswith("setup: this checkout faster in ")
    assert lines[7].startswith("own: this checkout faster in ")
    # numpy's import is not the package's: what follows it is argparse's and
    # the package's own, and no dataclasses
    beyond = lines[8].split(":", 1)[1].split("(+")[0].split()
    assert lines[8].startswith("beyond numpy, this:") and "dataclasses" not in beyond
    assert {"argparse"} <= set(beyond)
