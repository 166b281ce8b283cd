"""The package's records: the immutable ones refuse a field assignment, and
value records compare by value."""

import numpy as np
import pytest

from schrogeo import geometry
from schrogeo.ambient import (
    GroupBlocks,
    component_witnesses,
    translation_element,
)
from schrogeo.bargmann import (
    SchrodingerParams,
    flat_bargmann,
    group_map,
    plane_wave,
)
from schrogeo.homogeneous import SchrodingerManifoldConfig
from schrogeo.numkernel import SeededSampler
from schrogeo.suites import SuiteConfig

D = 2


def _pass():
    pts = SeededSampler(1, [(-1.0, 1.0)] * (D + 2)).points(3)
    return geometry.gram_jets(flat_bargmann(D).metric, pts)


# each record whose fields may not be reassigned, with one of its fields
READ_ONLY = {
    "GroupBlocks": (lambda: GroupBlocks(np.eye(4), np.zeros(4), np.zeros(4), 0.0, 1.0, 0.0, 1.0), "L"),
    "WitnessReport": (lambda: component_witnesses(D), "conjugation_residual"),
    "MetricField": (lambda: flat_bargmann(D).metric, "gram"),
    "VectorField": (lambda: flat_bargmann(D).xi, "components"),
    "OneForm": (lambda: geometry.OneForm(lambda p: p), "components"),
    "MetricJets": (_pass, "g0"),
    "MetricJets.ginv": (_pass, "ginv"),
    "_Blocks": (lambda: geometry._blocks(_pass().g0), "at"),
    "SchrodingerManifoldConfig": (lambda: SchrodingerManifoldConfig(D, -1.0, 0.5), "mu"),
    "BargmannStructure": (lambda: flat_bargmann(D), "xi"),
    "SchrodingerParams": (SchrodingerParams, "mass"),
    "DensityFunction": (lambda: plane_wave(D, [0.3] * D), "weight"),
    "ChartMap": (lambda: group_map(translation_element(D, [0.1] * (D + 2))), "forward"),
}


@pytest.mark.parametrize("name", READ_ONLY)
def test_a_read_only_record_refuses_a_field_assignment(name):
    build, field = READ_ONLY[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_value_records_compare_by_value():
    assert SuiteConfig("bargmann") == SuiteConfig("bargmann")
    assert SuiteConfig("bargmann") != SuiteConfig("bargmann", seed=7)
    assert SuiteConfig("group").dims == SuiteConfig._field_defaults["dims"] == (1, 2, 3)
    assert SchrodingerManifoldConfig(2, -1.0) == SchrodingerManifoldConfig(2, -1.0, 0.0)
    assert hash(SchrodingerManifoldConfig(2, -1.0)) == hash(SchrodingerManifoldConfig(2, -1.0))
    assert SchrodingerParams() == SchrodingerParams(1.0, 1.0) != SchrodingerParams(2.0)

