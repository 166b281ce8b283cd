"""The JSON report of ``schrogeo all`` at fixed seeds, byte for byte.

``tests/data/all_seed{0,7,42}.json`` hold ``all --format json`` reports.  A
change that is meant to leave every verdict and residual alone must keep
these bytes; a change that moves a residual on purpose regenerates the
files (``scripts/report_diff.py`` lists what moved) and names the moved
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
