"""The benchmark's tracer wraps package names that exist.

``perfbench/tracer.py`` wraps, by name, the functions listed in its
``SPAN_TARGETS`` and ``JET_FUNCTIONS`` tables and ``SeededSampler.sample``.
A simplification that deletes or renames one of them leaves its layer
metrics empty, which only the benchmark's own tests would otherwise notice.
The tables are read from the tracer's source with ``ast.literal_eval``,
without importing the benchmark."""

import ast
import importlib
from pathlib import Path

import pytest

from schrogeo.numkernel import SeededSampler

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _table(name: str) -> dict:
    """The literal assigned to ``name`` at the tracer's module level."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} assigns no {name}")


TARGETS = [
    (module, fn)
    for table in ("SPAN_TARGETS", "JET_FUNCTIONS")
    for module, names in _table(table).items()
    for fn in names
]


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{f}" for m, f in TARGETS])
def test_every_traced_name_is_a_function_of_its_module(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_both_tables_are_read():
    # an empty table would parametrize no test above
    assert _table("SPAN_TARGETS") and _table("JET_FUNCTIONS")


def test_the_traced_sampler_method_exists():
    assert callable(getattr(SeededSampler, "sample", None))
