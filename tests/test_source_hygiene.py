"""Static checks on the package source, the tests and the scripts, read
through ``ast``: every name in a module's ``__all__`` is defined there, no
imported name goes unused, the coupling-pass layout stays in
``homogeneous.over_couplings``, no dense second-derivative array is built in
the package, only ``suites`` builds records, only ``suites`` draws seeded
randomness, no seed of an ``all`` run feeds both a sampler and a bare
generator, only ``suites`` folds samples, only ``ambient`` reads the block
layout of algebra and group elements, only ``ambient`` names the chart guard, only ``geometry``
inverts Gram matrices, no module imports ``dataclasses`` (so ``suites``
builds each record once, with no ``dataclasses.replace`` copy),
``report.dump_json`` is the one serializer of the report, no branch picks a
one-point path by the shape of its points, and every field a package class
declares is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

import schrogeo
from schrogeo import numkernel as nk
from schrogeo.suites import SuiteConfig, run_suite

PACKAGE = Path(schrogeo.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
LINTED = [*SOURCES, *TESTS, *SCRIPTS]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _module_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_name(alias) for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _bound_name(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _imports(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((_bound_name(alias), node.lineno) for alias in node.names)
    return out


def _annotation_strings(tree: ast.Module):
    """String annotations such as ``-> "Jet2 | float"``, parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                yield ast.parse(ann.value, mode="eval")


def _used_names(tree: ast.Module) -> set[str]:
    trees = [tree, *_annotation_strings(tree)]
    return {
        n.id
        for t in trees
        for n in ast.walk(t)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_every_dunder_all_entry_is_defined(path):
    tree = _tree(path)
    missing = sorted(set(_dunder_all(tree)) - _module_level_names(tree))
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_no_imported_name_goes_unused(path):
    tree = _tree(path)
    used = _used_names(tree) | set(_dunder_all(tree))
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_checks_see_an_unused_import_and_an_undefined_export():
    tree = ast.parse(
        "from x import a, b\n"
        "import c.d\n"
        "__all__ = ['f', 'g']\n"
        "def f() -> 'c.D':\n"
        "    return a\n"
    )
    used = _used_names(tree) | set(_dunder_all(tree))
    assert [name for name, _ in _imports(tree) if name not in used] == ["b"]
    assert set(_dunder_all(tree)) - _module_level_names(tree) == {"g"}


def _names(tree: ast.AST) -> set[str]:
    """Every name the tree mentions: loaded or bound, as an attribute, or
    imported."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.split(".")[-1])
    return found


def _callers(tree: ast.Module, callee: str) -> list[str]:
    """The top-level function (or "<module>") around each call of ``callee``."""
    out = []
    for node in tree.body:
        where = getattr(node, "name", "<module>")
        out.extend(
            where
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == callee
        )
    return out


def test_the_suites_leave_coupling_passes_to_the_driver():
    named = _names(_tree(PACKAGE / "suites.py"))
    assert not named & {"coupling_passes", "coupling_config", "DegenerateMetricError"}


def test_only_over_couplings_budgets_passes():
    callers = _callers(_tree(PACKAGE / "homogeneous.py"), "coupling_passes")
    assert callers == ["over_couplings"]


def test_the_layout_rules_see_a_stray_pass_loop():
    tree = ast.parse(
        "from .geometry import DegenerateMetricError\n"
        "def over_couplings(): return coupling_passes(1, 2, 3, 0)\n"
        "def audit():\n"
        "    for part in coupling_passes(1, 2, 3, 1): pass\n"
        "x = hg.coupling_config\n"
    )
    assert _callers(tree, "coupling_passes") == ["over_couplings", "audit"]
    assert {"DegenerateMetricError", "coupling_config"} <= _names(tree)


def _dense_second_derivatives(tree: ast.Module) -> set[str]:
    """Signs of a dense d2g: a shape tuple naming one axis length four
    times, such as (n, n, n, n), or a name ``d2g``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple):
            axes = [e.id for e in node.elts if isinstance(e, ast.Name)]
            if any(axes.count(a) >= 4 for a in axes):
                found.add("shape")
        elif isinstance(node, ast.Name) and node.id == "d2g":
            found.add("d2g")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dense_second_derivatives_in_the_package(path):
    # second derivatives travel as gram_jets' (hess, pattern) factors
    assert not _dense_second_derivatives(_tree(path)), path.name


def test_the_dense_rule_sees_a_dense_array():
    tree = ast.parse("d2g = np.zeros(batch + (n, n, n, n))\nx = (n, n, m)\n")
    assert _dense_second_derivatives(tree) == {"d2g", "shape"}
    assert not _dense_second_derivatives(ast.parse("x = (n, n, n)\n"))


# only ``suites`` builds and judges records; ``report`` defines them and the
# package ``__init__`` re-exports ``CheckResult``
RECORD_NAMES = {"judged", "CheckResult", "status_of"}
RECORD_BUILDERS = {"suites.py", "report.py", "__init__.py"}


def _record_imports(tree: ast.Module) -> list[str]:
    """What a module imports of the record layer: the ``report`` module, or
    a name that builds or judges a record."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] == "report":
            found.append("report")
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            found += [
                a.name for a in n.names if a.name.split(".")[-1] in RECORD_NAMES | {"report"}
            ]
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in RECORD_BUILDERS], ids=lambda p: p.name
)
def test_only_suites_builds_records(path):
    assert not _record_imports(_tree(path)), path.name


def test_the_record_rule_sees_a_stray_import():
    tree = ast.parse(
        "from .report import judged\n"
        "from . import report\n"
        "from .suites import CheckResult\n"
        "import schrogeo.report\n"
        "from .numkernel import max_entry\n"
        "def f():\n"
        "    from .report import status_of\n"
    )
    assert _record_imports(tree) == [
        "report",
        "report",
        "CheckResult",
        "schrogeo.report",
        "report",
    ]


# only ``suites`` draws points and generators; the other modules measure what
# they are handed, and ``numkernel`` defines the sampler and its generator
DRAWS = {"SeededSampler", "generator", "default_rng", "Generator", "PCG64"}


def _calls(tree: ast.Module, names: set, exempt: str | None = None) -> list[tuple[str, int]]:
    """Each call of a callee in ``names``, by name or attribute, with its
    line; calls inside the class named ``exempt`` are left out."""
    skip = {
        id(n)
        for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef) and c.name == exempt
        for n in ast.walk(c)
    }
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and id(n) not in skip:
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            if name in names:
                found.append((name, n.lineno))
    return sorted(found, key=lambda call: call[1])


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "suites.py"], ids=lambda p: p.name
)
def test_only_suites_draws_seeded_randomness(path):
    exempt = "SeededSampler" if path.name == "numkernel.py" else None
    assert not _calls(_tree(path), DRAWS, exempt), path.name


def test_the_draw_rule_sees_a_stray_call():
    tree = ast.parse(
        "import numpy as np\n"
        "class SeededSampler:\n"
        "    def __init__(self, seed):\n"
        "        self._rng = self.generator(seed)\n"
        "    @staticmethod\n"
        "    def generator(seed):\n"
        "        return np.random.Generator(np.random.PCG64(seed))\n"
        "def check(seed):\n"
        "    rng, old = nk.SeededSampler.generator(seed), np.random.default_rng(seed)\n"
        "    bare = np.random.Generator(np.random.PCG64(seed))\n"
        "    return nk.SeededSampler(seed, []).points(3), SeededSampler(1, [])\n"
    )
    assert _calls(tree, DRAWS) == [
        ("generator", 4),
        ("Generator", 7),
        ("PCG64", 7),
        ("generator", 9),
        ("default_rng", 9),
        ("Generator", 10),
        ("PCG64", 10),
        ("SeededSampler", 11),
        ("SeededSampler", 11),
    ]
    assert _calls(tree, DRAWS, "SeededSampler") == [
        ("generator", 9),
        ("default_rng", 9),
        ("Generator", 10),
        ("PCG64", 10),
        ("SeededSampler", 11),
        ("SeededSampler", 11),
    ]


# a measurement draws its points from a SeededSampler at its seed and every
# other value from a bare generator at seed + 1: a seed that feeds both reads
# one PCG64 stream twice, so the drawn values repeat the points they act on
def _shared_seeds(run) -> set[int]:
    """The seeds that feed both a SeededSampler and a bare
    ``SeededSampler.generator`` call made outside SeededSampler itself,
    while ``run()`` runs."""
    samplers, bare, inside = set(), set(), []
    init, generator = nk.SeededSampler.__init__, nk.SeededSampler.generator

    def tracked_init(self, seed, *args, **kwargs):
        samplers.add(int(seed))
        inside.append(seed)
        try:
            init(self, seed, *args, **kwargs)
        finally:
            inside.pop()

    def tracked_generator(seed):
        if not inside:
            bare.add(int(seed))
        return generator(seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nk.SeededSampler, "__init__", tracked_init)
        mp.setattr(nk.SeededSampler, "generator", staticmethod(tracked_generator))
        run()
    return samplers & bare


def test_no_seed_feeds_both_points_and_other_draws():
    assert not _shared_seeds(lambda: run_suite(SuiteConfig("all")))


def test_the_stream_rule_sees_a_stray_call():
    def check():
        nk.SeededSampler(5, [(-1.0, 1.0)]).points(2)
        nk.SeededSampler.generator(5).normal()
        nk.SeededSampler(6, [(-1.0, 1.0)]).points(2)
        nk.SeededSampler.generator(7).normal()

    assert _shared_seeds(check) == {5}


# only ``ambient`` knows the block layout of an algebra or group element:
# every other module takes the (d+4, d+4) matrices its constructors return
# and reads their blocks through ``ambient`` (``projective_denominator``,
# ``realize_field``, ``bracket_fields``), never by splitting a matrix or
# loading a ``blocks`` field
BLOCK_SPLITS = {"decompose_sch", "_block_pattern"}


def _block_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """Each call of a block split and each load of an attribute named
    ``blocks``, with its line."""
    found = _calls(tree, BLOCK_SPLITS)
    found += [
        ("blocks", n.lineno)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "blocks" and isinstance(n.ctx, ast.Load)
    ]
    return sorted(found, key=lambda read: read[1])


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "ambient.py"], ids=lambda p: p.name
)
def test_only_ambient_builds_elements(path):
    assert not _block_reads(_tree(path)), path.name


def test_the_element_rule_sees_a_stray_call():
    tree = ast.parse(
        "from .ambient import decompose_sch\n"
        "def pair(m, d, ge):\n"
        "    e = decompose_sch(m, d)\n"
        "    return e, ambient._block_pattern(m)\n"
        "def keep(ge, blocks):\n"
        "    return ge.blocks.e - blocks.a\n"
        "def store(ge, b):\n"
        "    ge.blocks = b\n"
    )
    assert _block_reads(tree) == [("decompose_sch", 3), ("_block_pattern", 4), ("blocks", 6)]


# the chart guard of ``projective_action`` lives in ``ambient``: a caller that
# filters its samples against the guard re-derives what the action's NaN
# marking already says
GUARD = "CHART_GUARD"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "ambient.py"], ids=lambda p: p.name
)
def test_only_ambient_names_the_chart_guard(path):
    assert GUARD not in _names(_tree(path)), path.name


def test_the_guard_rule_sees_a_stray_import():
    for source in (
        "from .ambient import CHART_GUARD\n",
        "from . import ambient\nkeep = abs(den) > ambient.CHART_GUARD\n",
        "def f(guard=CHART_GUARD): pass\n",
    ):
        assert GUARD in _names(ast.parse(source)), source
    assert GUARD not in _names(ast.parse("guard = 1e-8\n"))


# only ``suites`` folds a measurement's samples into a record; the other
# modules return one residual per sample, and ``numkernel`` defines the fold
FOLD = "max_entry"


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name not in {"suites.py", "numkernel.py"}],
    ids=lambda p: p.name,
)
def test_only_suites_folds_samples(path):
    assert FOLD not in _names(_tree(path)), path.name


def test_the_fold_rule_sees_a_stray_call():
    for source in (
        "from .numkernel import max_entry\n",
        "from . import numkernel as nk\nworst = nk.max_entry(worst, np.abs(r))\n",
        "def check(fold=max_entry): pass\n",
    ):
        assert FOLD in _names(ast.parse(source)), source
    assert FOLD not in _names(ast.parse("worst = float(np.max(np.abs(r)))\n"))


# the Gram is inverted block by block in ``geometry``, through one split, the
# singular-value cut and the closed forms of small blocks: a LAPACK inverse or
# eigenvalue call elsewhere bypasses them.  The one other inverse is the
# constant matrix of a linear chart map, ``bargmann._linear_map``.
LAPACK = {"inv", "eigvalsh"}
LAPACK_ALLOWED = {("bargmann.py", "_linear_map")}


def _lapack_calls(tree: ast.Module) -> list[tuple[str, str, int]]:
    """Each call of ``inv`` or ``eigvalsh``, by name or attribute, with the
    top-level function (or "<module>") around it and its line."""
    found = []
    for node in tree.body:
        where = getattr(node, "name", "<module>")
        found += [(where, name, line) for name, line in _calls(node, LAPACK)]
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "geometry.py"], ids=lambda p: p.name
)
def test_only_geometry_inverts_grams(path):
    calls = [c for c in _lapack_calls(_tree(path)) if (path.name, c[0]) not in LAPACK_ALLOWED]
    assert not calls, f"{path.name}: {calls}"


def test_the_inverse_rule_sees_a_stray_call():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "def _linear_map(W):\n"
        "    return np.linalg.inv(W)\n"
        "def audit(g0):\n"
        "    ginv = np.linalg.inv(g0)\n"
        "    return ginv, (eigvalsh(g0) < 0).sum(axis=-1), np.linalg.det(g0)\n"
        "SIGNS = np.linalg.eigvalsh(np.eye(2))\n"
    )
    assert _lapack_calls(tree) == [
        ("_linear_map", "inv", 4),
        ("audit", "inv", 6),
        ("audit", "eigvalsh", 7),
        ("<module>", "eigvalsh", 8),
    ]


# the package's records are NamedTuples and plain classes, whose methods
# come compiled in the ``.pyc``: ``dataclasses`` writes and ``exec``s the
# methods of each record it decorates, on every import.  Without it no
# record is copied by ``dataclasses.replace``, so ``suites`` builds each
# record once, with every field it files
def _dataclasses_imports(tree: ast.AST) -> list[int]:
    """The lines that import ``dataclasses`` or a name from it."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            found += [n.lineno for a in n.names if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(n, ast.ImportFrom) and not n.level and n.module == "dataclasses":
            found.append(n.lineno)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert not _dataclasses_imports(_tree(path)), path.name


def test_the_dataclass_rule_sees_a_stray_import():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "import json, dataclasses as dc\n"
        "from typing import NamedTuple\n"
        "from .dataclasses import Record\n"
        "def f(rec):\n"
        "    from dataclasses import replace\n"
        "    return replace(rec), rec._replace(d=1)\n"
    )
    assert _dataclasses_imports(tree) == [1, 2, 3, 7]


# the report has one serializer, ``report.dump_json``: an indented
# ``json.dumps`` or ``json.dump`` in the package runs the stdlib's
# pure-Python encoder beside it
def _indented_json_calls(tree: ast.AST) -> list[int]:
    """The lines that call ``dumps`` or ``dump``, by name or as an attribute,
    with an ``indent`` keyword."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            if name in {"dumps", "dump"} and any(k.arg == "indent" for k in n.keywords):
                found.append(n.lineno)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_report_writer_is_the_one_serializer(path):
    assert not _indented_json_calls(_tree(path)), path.name


def test_the_serializer_rule_sees_a_stray_dump():
    tree = ast.parse(
        "import json\n"
        "from json import dumps\n"
        "a = json.dumps(doc, indent=2, sort_keys=True)\n"
        "json.dump(doc, fh, indent=None)\n"
        "b = dumps(doc, indent=1)\n"
        "c = json.dumps(doc, sort_keys=True)\n"
        "d = dump_json(doc)\n"
    )
    assert _indented_json_calls(tree) == [3, 4, 5]


# every field a package class declares is read as an attribute somewhere in
# the package: a field that is only built and passed along is metadata that no
# check reads
def _unread_fields(trees: list[ast.AST]) -> list[tuple[str, str]]:
    """(class, field) of each annotated class field that no tree reads as an
    attribute; a store or a keyword argument is no read."""
    reads = {
        n.attr
        for t in trees
        for n in ast.walk(t)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return [
        (c.name, n.target.id)
        for t in trees
        for c in ast.walk(t)
        if isinstance(c, ast.ClassDef)
        for n in c.body
        if isinstance(n, ast.AnnAssign)
        and isinstance(n.target, ast.Name)
        and n.target.id not in reads
    ]


def test_every_class_field_is_read():
    assert not _unread_fields([_tree(p) for p in SOURCES])


def test_the_field_rule_sees_a_stray_field():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Structure:\n"
        "    metric: object\n"
        "    theta: object\n"
        "    d: int = 0\n"
        "    LIMIT = 3\n"
        "class Params(NamedTuple):\n"
        "    mass: float\n"
        "    hbar: float = 1.0\n"
        "class _Levels(NamedTuple):\n"
        "    dim: int\n"
        "    lam: float\n"
        "class Config(_Levels):\n"
        "    __slots__ = ()\n"
        "    def __new__(cls, dim, lam):\n"
        "        return super().__new__(cls, dim, lam)\n"
        "    @property\n"
        "    def scale(self):\n"
        "        return -2.0 * self.lam\n"
        "def check(s):\n"
        "    s.theta = None\n"
        "    c = Config(1, -1.0)._replace(dim=2)\n"
        "    return s.metric, Structure(metric=1, theta=2).d, Params(1.0).mass, c.scale\n"
    )
    assert _unread_fields([tree]) == [
        ("Structure", "theta"),
        ("Params", "hbar"),
        ("_Levels", "dim"),
    ]


# one point is a batch of one: the package takes its points as (N, n)
# batches only, so no branch picks a one-point path by the shape of its
# input.  Three tests on ``ndim`` are no point forks: a 0-d per-sample
# scalar in ``Jet2._coerce``, a coefficient row in ``sparse_dot`` and a
# float against an array residual in ``suites.verdicts``.  A test whose
# branch only raises is a guard, not a fork.
SHAPE_TESTS_ALLOWED = {"Jet2._coerce", "sparse_dot", "verdicts"}


def _mentions_ndim(node: ast.AST) -> bool:
    return any(
        getattr(n, "attr", None) == "ndim" or getattr(n, "id", None) == "ndim"
        for n in ast.walk(node)
    )


def _point_forks(tree: ast.AST) -> list[tuple[str, int]]:
    """Each branch chosen by a test on ``ndim`` and each ``_per_sample``
    helper (defined or named), with the qualified name of the function
    around it and its line."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
                if child.name.startswith("_per_sample"):
                    found.append((inner, child.lineno))
            elif isinstance(child, ast.Name) and child.id.startswith("_per_sample"):
                found.append((where or "<module>", child.lineno))
            elif isinstance(child, (ast.If, ast.IfExp, ast.While)) and _mentions_ndim(child.test):
                guard = (
                    isinstance(child, ast.If)
                    and not child.orelse
                    and all(isinstance(s, ast.Raise) for s in child.body)
                )
                if not guard:
                    found.append((where or "<module>", child.lineno))
            visit(child, inner)

    visit(tree, "")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_point_shape_forks_in_the_package(path):
    forks = [f for f in _point_forks(_tree(path)) if f[0] not in SHAPE_TESTS_ALLOWED]
    assert not forks, f"{path.name}: {forks}"


def test_the_fork_rule_sees_a_stray_point_fork():
    tree = ast.parse(
        "def _per_sample(x):\n"
        "    return float(x) if np.ndim(x) == 0 else x\n"
        "def seed(pts):\n"
        "    if pts.ndim != 2:\n"
        "        raise ContractViolationError('points must be a batch')\n"
        "    values = pts.tolist() if pts.ndim == 1 else pts.T\n"
        "    if pts.ndim == 1:\n"
        "        values = complex(values)\n"
        "    return {k: _per_sample(v) for k, v in values}\n"
        "class Jet2:\n"
        "    def _coerce(self, other):\n"
        "        if other.ndim == 0:\n"
        "            return None\n"
        "def count(g0):\n"
        "    c = (g0 < 0).sum(axis=-1)\n"
        "    return int(c) if c.ndim == 0 else c\n"
    )
    assert _point_forks(tree) == [
        ("_per_sample", 1),
        ("_per_sample", 2),
        ("seed", 6),
        ("seed", 7),
        ("seed", 9),
        ("Jet2._coerce", 12),
        ("count", 16),
    ]
