"""scripts/einstein_scan.py: the lambda scan of the Einstein residual."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "einstein_scan.py"
spec = importlib.util.spec_from_file_location("einstein_scan", SCRIPT)
einstein_scan = importlib.util.module_from_spec(spec)
spec.loader.exec_module(einstein_scan)


def test_scan_vanishes_at_the_critical_coupling_only(capsys, monkeypatch):
    lams = np.array([-2.0, -1.0, -0.5, -0.3])
    passes = []
    gram_jets = einstein_scan.gram_jets
    monkeypatch.setattr(
        einstein_scan, "gram_jets", lambda *a: passes.append(a) or gram_jets(*a)
    )
    einstein_scan.scan(1, lams, samples=3, seed=0)
    # one pass (order 2, the default) of the undeformed metric per lambda
    assert [len(pts) for _, pts in passes] == [3] * len(lams)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d = 1"
    rows = [[float(v) for v in line.split()] for line in lines[2:] if line.strip()]
    assert [r[0] for r in rows] == lams.tolist()
    for lam, worst, predicted, gap in rows:
        # the measured residual is the predicted multiple of g
        assert gap < 1e-10
        if lam == -0.5:
            assert worst < 1e-12 and predicted == 0.0
        else:
            assert worst > 0.1
