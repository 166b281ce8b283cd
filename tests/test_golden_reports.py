"""JSON reports at fixed seeds, byte for byte.

``tests/data/all_seed{0,7,42}.json`` hold ``all --format json`` reports at
the defaults (d = 1..3).  ``tests/data/{liealgebra,group}_wide_seed{0,42}.json``
hold the ``lie-algebra`` and ``group`` reports at ``--dim 4 --dim 6 --dim 8
--samples 40``, where the chart action and the group draws run on wider
matrices, and ``tests/data/{liealgebra,group}_odd_seed{0,42}.json`` the same
suites at ``--dim 5 --dim 7 --samples 40``, the odd dims no other file
reaches.  ``tests/data/{homogeneous,axioms}_wide_seed{0,42}.json`` hold the
``homogeneous`` and ``axioms`` reports at ``--dim 6 --dim 8``, and
``tests/data/{homogeneous,axioms}_dense_seed{0,42}.json`` the same suites at
``--dim 1 --dim 2 --dim 3 --samples 80``: the (λ, μ) grid is split into
coupling passes there, so these bytes pin that the grouping of couplings into
passes moves no residual.
``tests/data/{boundary,bargmann,schrodingereq}_wide_seed{0,42}.json`` hold
those three suites at ``--dim 4 --dim 6 --dim 8``: the boundary quotient, the
chart maps and the Schrödinger residuals on wider charts than the defaults
reach.  A change that is meant to leave every verdict and residual alone
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


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("suite", ["lie-algebra", "group"])
def test_odd_algebra_report_is_byte_identical_to_the_golden_file(suite, seed):
    golden = (DATA / f"{suite.replace('-', '')}_odd_seed{seed}.json").read_text()
    cfg = SuiteConfig(suite, dims=(5, 7), samples=40, seed=seed, fmt="json")
    assert emit_report(run_suite(cfg), "json") == golden


BULK = {"wide": {"dims": (6, 8)}, "dense": {"dims": (1, 2, 3), "samples": 80}}


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("shape", sorted(BULK))
@pytest.mark.parametrize("suite", ["homogeneous", "axioms"])
def test_bulk_report_is_byte_identical_to_the_golden_file(suite, shape, seed):
    golden = (DATA / f"{suite}_{shape}_seed{seed}.json").read_text()
    cfg = SuiteConfig(suite, seed=seed, fmt="json", **BULK[shape])
    assert emit_report(run_suite(cfg), "json") == golden


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("suite", ["boundary", "bargmann", "schrodinger-eq"])
def test_wide_flat_report_is_byte_identical_to_the_golden_file(suite, seed):
    golden = (DATA / f"{suite.replace('-', '')}_wide_seed{seed}.json").read_text()
    cfg = SuiteConfig(suite, dims=(4, 6, 8), seed=seed, fmt="json")
    assert emit_report(run_suite(cfg), "json") == golden
