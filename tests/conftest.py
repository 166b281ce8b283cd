"""Shared plumbing.  The acceptance gate: criteria register their verdict
here and the summary block is echoed at the end of the run.  The
``singular_at`` fixture, which makes the bulk Gram singular at chosen
samples to drive the ERROR path."""

import numpy as np
import pytest

from schrogeo import homogeneous as hg
from schrogeo import numkernel as nk
from schrogeo.geometry import MetricField

_CRITERIA: dict[int, tuple[str, str]] = {}


def record_criterion(number: int, passed: bool, label: str) -> None:
    _CRITERIA[number] = ("PASS" if passed else "FAIL", label)
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {label}")


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(_CRITERIA):
        status, label = _CRITERIA[n]
        terminalreporter.write_line(f"[criterion {n:02d}] {status} - {label}")


@pytest.fixture
def singular_at(monkeypatch):
    """``singular_at(coordinate, lam=None, mu=None)`` makes the bulk Gram
    vanish at the samples whose first coordinate is ``coordinate`` and,
    given ``lam`` or ``mu``, whose coupling has that lam or mu (a float
    config's on every sample); every other sample is multiplied by 1.0,
    exactly.  Each distinct entry is scaled once, so entries shared between
    positions stay shared and the factored second derivatives keep their
    grouping."""
    original = hg.bulk_metric

    def patch(coordinate, lam=None, mu=None):
        def broken(cfg):
            metric = original(cfg)

            def gram(p):
                hit = nk.jet_value(p[0]) == coordinate
                for want, have in ((lam, cfg.lam), (mu, cfg.mu)):
                    if want is not None:
                        hit = hit & (have == want)
                keep = np.where(hit, 0.0, 1.0)
                rows = metric.gram(p)
                scaled = {id(e): e * keep for row in rows for e in row}
                return [[scaled[id(e)] for e in row] for row in rows]

            return MetricField(gram)

        monkeypatch.setattr(hg, "bulk_metric", broken)

    return patch
