"""scripts/report_diff.py on two hand-made reports."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)

BASE = {
    "version": "1",
    "config": {"suite": "all", "seed": 0},
    "checks": [
        {"name": "a_bound", "status": "PASS", "claim": "x", "residual": 1e-12,
         "tolerance": 1e-10, "extra": {"waves": 3}},
        {"name": "b_control", "status": "PASS", "claim": "y", "residual": 0.5,
         "tolerance": 0.1, "extra": {"must_exceed": 0.1}},
    ],
    "summary": {"PASS": 2, "FAIL": 0, "ERROR": 0, "total": 2},
}


def write(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


def test_identical_reports_exit_zero(tmp_path, capsys):
    a, b = write(tmp_path / "a.json", BASE), write(tmp_path / "b.json", BASE)
    assert report_diff.main([a, b]) == 0
    assert capsys.readouterr().out.strip() == "byte-identical"


def test_every_kind_of_change_is_named(tmp_path, capsys):
    changed = copy.deepcopy(BASE)
    bound, control = changed["checks"]
    bound["residual"] = 1e-12 + 2e-28  # one bit up
    bound["extra"]["evaluations"] = 15
    control["status"] = "FAIL"
    control["tolerance"] = 0.2
    del control["extra"]["must_exceed"]
    changed["checks"].append({"name": "c_new", "status": "PASS", "claim": "z"})
    a, b = write(tmp_path / "a.json", BASE), write(tmp_path / "b.json", changed)
    assert report_diff.main([a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("a_bound: residual 1e-12 -> 1.0000000000000002e-12")
    assert "shift / tolerance = 2.019e-18" in out[0]
    assert out[1] == "a_bound: extra +evaluations = 15"
    assert out[2] == "b_control: status PASS -> FAIL"
    assert out[3] == "b_control: tolerance 0.1 -> 0.2"
    assert out[4] == "b_control: extra -must_exceed"
    assert out[5] == "c_new: only in B"


def test_formatting_only_difference_is_not_identical(tmp_path, capsys):
    a = write(tmp_path / "a.json", BASE)
    b = tmp_path / "b.json"
    b.write_text(json.dumps(BASE))
    assert report_diff.main([a, str(b)]) == 1
    assert "same records, different bytes" in capsys.readouterr().out


@pytest.mark.parametrize("content", [None, "not json", "{}"])
def test_unreadable_report_exits_two(tmp_path, capsys, content):
    a = write(tmp_path / "a.json", BASE)
    b = tmp_path / "b.json"
    if content is not None:
        b.write_text(content)
    assert report_diff.main([a, str(b)]) == 2
