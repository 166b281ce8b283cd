#!/usr/bin/env python3
"""Run one suite over many seeds and print, per record family, the records
that did not PASS and the worst margin, optionally against a second
checkout.

    python3 scripts/seed_sweep.py SUITE [--seeds K] [--dim D ...] [--against CHECKOUT]

The suite runs at its defaults, or at the dimensions given by ``--dim``,
and at the seeds 0..K-1, in one fresh
interpreter per checkout with that checkout's ``src/`` first on the path
and one BLAS thread, so two checkouts are swept alike.  A family is a
record name with its ``_d<d>`` part, and an audit record's coupling, read
as a wildcard (``schrodinger_d*_weight_control``).  A record's margin is
residual / tolerance; a family's worst margin is the largest over its
records for a bound, and the smallest for a control (a record whose
``extra`` holds ``must_exceed``).  This is the evidence that a change that
moves residuals leaves every verdict standing: no new non-PASS record, and
worst margins that stay far from 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one line of JSON per record: what the summary reads of it
CHILD = """\
import json, sys
from schrogeo.suites import SuiteConfig, emit_report, run_suite
suite, seeds, dims = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
for seed in range(seeds):
    cfg = SuiteConfig(suite, seed=seed, fmt="json", **({"dims": tuple(dims)} if dims else {}))
    report = json.loads(emit_report(run_suite(cfg), "json"))
    for c in report["checks"]:
        control = "must_exceed" in c.get("extra", {})
        keep = (c["name"], seed, c["status"], c.get("residual"), c.get("tolerance"), control)
        print(json.dumps(keep))
"""


def family(name: str) -> str:
    """The record name with its dimension, and an audit record's (lambda,
    mu), as wildcards."""
    name = re.sub(r"_d\d+", "_d*", name, count=1)
    return re.sub(r"_lam[^_]+_mu[^_]+$", "_lam*_mu*", name)


def sweep(checkout: Path, suite: str, seeds: int, dims: list[int] | None = None) -> list[tuple]:
    """(name, seed, status, residual, tolerance, control) of every record of
    ``suite`` at the seeds 0..seeds-1 and the dimensions ``dims`` (the
    suite's defaults when None), run from ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, suite, str(seeds), json.dumps(dims)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def summarize(records: list[tuple]) -> dict:
    """Per family: its kind, record count, non-PASS records and worst
    margin (None when no record has a finite residual and tolerance; NaN
    when a residual is NaN)."""
    out: dict = {}
    for name, seed, status, residual, tol, control in records:
        fam = out.setdefault(
            family(name),
            {"kind": "control" if control else "bound", "records": 0, "bad": [], "margins": []},
        )
        fam["records"] += 1
        if status != "PASS":
            fam["bad"].append((name, seed, status, residual, tol))
        if residual is not None and tol:
            fam["margins"].append(float(residual) / float(tol))
    for fam in out.values():
        margins = fam.pop("margins")
        pick = min if fam["kind"] == "control" else max
        fam["worst"] = (
            math.nan if any(map(math.isnan, margins)) else pick(margins) if margins else None
        )
    return out


def margin(value) -> str:
    return "-" if value is None else f"{value:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", help="a suite name, as the CLI takes it")
    parser.add_argument("--seeds", type=int, default=20, help="sweep the seeds 0..K-1")
    parser.add_argument(
        "--dim", type=int, action="append",
        help="a dimension to run (repeatable; default: the suite's own)",
    )
    parser.add_argument("--against", type=Path, help="a second checkout to sweep alike")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    sides = {"this": ROOT}
    if args.against is not None:
        other = args.against.resolve()
        if not (other / "src" / "schrogeo" / "suites.py").is_file():
            parser.error(f"no schrogeo source under {other / 'src'}")
        sides["against"] = other

    found = {
        name: summarize(sweep(path, args.suite, args.seeds, args.dim))
        for name, path in sides.items()
    }
    dims = "" if args.dim is None else ", d = " + ", ".join(map(str, args.dim))
    print(f"{args.suite}, seeds 0..{args.seeds - 1}{dims}")
    head = f"{'family':<40} {'kind':<8} {'records':>7} {'non-PASS':>8} {'worst':>10}"
    if "against" in sides:
        head += f" {'against':>8} {'worst':>10}"
    print(head)
    for fam in sorted(set().union(*found.values())):
        cols = []
        for side in found.values():
            s = side.get(fam)
            cols.append(("-", "-") if s is None else (len(s["bad"]), margin(s["worst"])))
        ref = next(side[fam] for side in found.values() if fam in side)
        line = f"{fam:<40} {ref['kind']:<8} {ref['records']:>7} {cols[0][0]:>8} {cols[0][1]:>10}"
        if len(cols) > 1:
            line += f" {cols[1][0]:>8} {cols[1][1]:>10}"
        print(line)
    for name, summary in found.items():
        bad = [rec for fam in summary.values() for rec in fam["bad"]]
        print(f"non-PASS records, {name}: {len(bad)}")
        for rec_name, seed, status, residual, tol in bad:
            print(f"  {rec_name} seed {seed}: {status}, residual {residual!r}, tolerance {tol!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
