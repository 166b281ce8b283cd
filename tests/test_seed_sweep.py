"""scripts/seed_sweep.py: a suite over many seeds, per family its non-PASS
records and its worst margin, against a second checkout."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "seed_sweep.py"
spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
seed_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(seed_sweep)


def test_families_and_worst_margins():
    records = [
        ("schrodinger_d1_plane_wave", 0, "PASS", 1e-14, 1e-10, False),
        ("schrodinger_d2_plane_wave", 0, "PASS", 3e-14, 1e-10, False),
        ("schrodinger_d1_weight_control", 0, "PASS", 0.25, 1e-3, True),
        ("schrodinger_d3_weight_control", 1, "FAIL", 5e-4, 1e-3, True),
        ("axioms_d1_lam-0.5_mu1", 0, "ERROR", None, 1e-8, False),
        ("axioms_d2_lam-2_mu-1", 1, "PASS", float("nan"), 1e-8, False),
    ]
    found = seed_sweep.summarize(records)
    assert sorted(found) == [
        "axioms_d*_lam*_mu*", "schrodinger_d*_plane_wave", "schrodinger_d*_weight_control",
    ]
    wave = found["schrodinger_d*_plane_wave"]
    assert (wave["kind"], wave["records"], wave["bad"]) == ("bound", 2, [])
    assert math.isclose(wave["worst"], 3e-4)
    # a control's worst margin is its smallest
    control = found["schrodinger_d*_weight_control"]
    assert control["kind"] == "control" and math.isclose(control["worst"], 0.5)
    assert control["bad"] == [("schrodinger_d3_weight_control", 1, "FAIL", 5e-4, 1e-3)]
    # a NaN residual is the worst margin there is
    assert math.isnan(found["axioms_d*_lam*_mu*"]["worst"])


def test_two_seeds_against_the_same_checkout(capsys):
    assert seed_sweep.main(["schrodinger-eq", "--seeds", "2", "--against", str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "schrodinger-eq, seeds 0..1"
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-2]}
    assert "schrodinger_d*_transport_dilation" in rows and len(rows) == 7
    for fam, (kind, records, bad, worst, bad_against, worst_against) in rows.items():
        # three dims at two seeds, every record a PASS, both sides alike
        assert (records, bad, bad_against) == ("6", "0", "0"), fam
        assert worst == worst_against, fam
        assert (float(worst) > 1.0) == (kind == "control"), fam
    assert lines[-2:] == ["non-PASS records, this: 0", "non-PASS records, against: 0"]


def test_the_dimensions_given(capsys):
    assert seed_sweep.main(["schrodinger-eq", "--seeds", "1", "--dim", "4", "--dim", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "schrodinger-eq, seeds 0..0, d = 4, 5"
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-1]}
    assert len(rows) == 7
    # two dims at one seed
    assert {records for _, records, *_ in rows.values()} == {"2"}
    assert lines[-1] == "non-PASS records, this: 0"
