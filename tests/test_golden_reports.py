"""JSON reports at fixed seeds, byte for byte.

``tests/data/all_seed{0,7,42}.json`` hold ``all --format json`` reports at
the defaults (d = 1..3).  ``tests/data/{liealgebra,group}_wide_seed{0,42}.json``
hold the ``lie-algebra`` and ``group`` reports at ``--dim 4 --dim 6 --dim 8
--samples 40``, where the chart action and the group draws run on wider
matrices.  A change that is meant to leave every verdict and residual alone
must keep these bytes; a change that moves a residual on purpose regenerates
the files (``scripts/report_diff.py`` lists what moved) and names the moved
fields in CHANGES.md.
"""

from pathlib import Path

import pytest

from schrogeo.suites import SuiteConfig, emit_report, run_suite

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_all_report_is_byte_identical_to_the_golden_file(seed):
    golden = (DATA / f"all_seed{seed}.json").read_text()
    report = emit_report(run_suite(SuiteConfig("all", seed=seed, fmt="json")), "json")
    assert report == golden


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("suite", ["lie-algebra", "group"])
def test_wide_algebra_report_is_byte_identical_to_the_golden_file(suite, seed):
    golden = (DATA / f"{suite.replace('-', '')}_wide_seed{seed}.json").read_text()
    cfg = SuiteConfig(suite, dims=(4, 6, 8), samples=40, seed=seed, fmt="json")
    assert emit_report(run_suite(cfg), "json") == golden
