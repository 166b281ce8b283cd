#!/usr/bin/env python3
"""Time ``import schrogeo.cli`` in fresh interpreters, optionally against a
second checkout.

    python3 scripts/import_cost.py [--repeats K] [--against CHECKOUT]

Each interpreter runs with the benchmark's environment (``child_env`` of
``perfbench/run.py``: BLAS threads pinned to 1, the checkout's ``src/``
first on the path) and first imports what ``perfbench/child.py`` imports
before it times its own ``import schrogeo.cli`` (read from that file).  It
then times three imports in turn: numpy, argparse and ``schrogeo.cli``.
``setup`` is their sum, the import that the benchmark's ``setup_s`` times
(here in raw wall time, not scaled to the reference host speed); ``own`` is
the last one, the package's own import with numpy and argparse loaded.

Each checkout's ``src/`` is byte-compiled first, as ``perfbench/run.py``
does.  With ``--against``, every round runs one interpreter on each side,
the order flipping from round to round, so a drift of the host falls on
both sides alike.  The script prints each side's median and quartiles, the
rounds in which this checkout's import is the faster, the median per-round
ratio (this checkout over CHECKOUT), and the modules the import adds beyond
numpy.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import importlib.util
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# {pre} is the child's own stdlib imports; the timed imports follow
CHILD = """\
{pre}
import sys as _sys, time as _time
_t0 = _time.perf_counter()
import numpy
_t1 = _time.perf_counter()
_seen = set(_sys.modules)
_t2 = _time.perf_counter()
import argparse
_t3 = _time.perf_counter()
import schrogeo.cli
_t4 = _time.perf_counter()
print(repr((_t1 - _t0 + _t4 - _t2, _t4 - _t3, sorted(set(_sys.modules) - _seen))))
"""


def perfbench():
    """``perfbench/run.py`` as a module, for ``child_env``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child_preimports() -> str:
    """The module-level imports of ``perfbench/child.py``, as source."""
    path = ROOT / "perfbench" / "child.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    return "\n".join(ast.unparse(n) for n in imports)


def env_for(checkout: Path, env: dict[str, str]) -> dict[str, str]:
    """``env`` (this checkout's ``child_env``) with ``checkout``'s ``src/``
    first on the path in place of this checkout's."""
    paths = env["PYTHONPATH"].split(os.pathsep)
    return dict(env, PYTHONPATH=os.pathsep.join([str(checkout / "src"), *paths[1:]]))


def measure(checkout: Path, code: str, env: dict[str, str]) -> tuple[float, float, list[str]]:
    """(setup seconds, own seconds, modules added beyond numpy) of one fresh
    interpreter that imports ``schrogeo.cli`` from ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    setup, own, modules = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    if "schrogeo.cli" not in modules:
        raise RuntimeError(f"{checkout}: schrogeo.cli was imported before it was timed")
    return setup, own, modules


def spread(xs: list[float]) -> str:
    """Median and quartiles, in ms."""
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return f"{1e3 * q2:8.2f} {1e3 * q1:8.2f} {1e3 * q3:8.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=30, help="interpreters per side")
    parser.add_argument("--against", type=Path, help="a second checkout to alternate with")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sides = {"this": ROOT}
    if args.against is not None:
        other = args.against.resolve()
        if not (other / "src" / "schrogeo" / "cli.py").is_file():
            parser.error(f"no schrogeo source under {other / 'src'}")
        sides["against"] = other

    base = perfbench().child_env()
    code = CHILD.format(pre=child_preimports())
    for checkout in sides.values():
        compileall.compile_dir(str(checkout / "src"), quiet=1)
    runs = {name: [] for name in sides}
    for k in range(args.repeats):
        for name in list(sides)[:: 1 if k % 2 == 0 else -1]:
            runs[name].append(measure(sides[name], code, env_for(sides[name], base)))

    print(f"import schrogeo.cli, {args.repeats} fresh interpreter(s) per side")
    print(f"{'':15} {'median':>8} {'q1':>8} {'q3':>8}  (ms)")
    for col, what in enumerate(("setup", "own")):
        for name, checkout in sides.items():
            print(f"{what:<6} {name:<8} {spread([r[col] for r in runs[name]])}  {checkout}")
    if "against" in sides:
        for col, what in enumerate(("setup", "own")):
            pairs = [(a[col], b[col]) for a, b in zip(runs["this"], runs["against"])]
            wins = sum(a < b for a, b in pairs)
            ratio = statistics.median(a / b for a, b in pairs)
            print(
                f"{what}: this checkout faster in {wins}/{len(pairs)} rounds, "
                f"median per-round ratio {ratio:.3f}"
            )
    for name in sides:
        added = runs[name][0][2]
        others = [m for m in added if m.split(".")[0] != "schrogeo"]
        own = len(added) - len(others)
        print(f"beyond numpy, {name}: {' '.join(others)} (+ {own} schrogeo modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
