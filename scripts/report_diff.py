#!/usr/bin/env python3
"""Compare two ``schrogeo ... --format json`` reports record by record.

    python scripts/report_diff.py A.json B.json

Prints every record that is only in one report, whose status changed, whose
``residual`` or ``tolerance`` differs in any bit (with the residual shift
divided by the tolerance), whose ``extra`` gained or lost keys, or whose
other fields changed; then the config and summary if they differ.  Exit
code 0 only when the two files are byte-identical, 1 when they differ, 2
when a file cannot be read as a report.
"""

from __future__ import annotations

import json
import sys


def _records(doc: dict) -> dict:
    return {c["name"]: c for c in doc["checks"]}


def _number(rec: dict, key: str):
    v = rec.get(key)
    return None if v is None else float(v)


def _same(a, b) -> bool:
    # equal JSON text; for floats that is equal bits (repr round-trips)
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def record_lines(name: str, a: dict, b: dict) -> list[str]:
    """What changed in one record, one line per kind of change."""
    out = []
    if a["status"] != b["status"]:
        out.append(f"{name}: status {a['status']} -> {b['status']}")
    ra, rb = _number(a, "residual"), _number(b, "residual")
    if not _same(ra, rb):
        tol = _number(b, "tolerance") or _number(a, "tolerance")
        shift = ""
        if ra is not None and rb is not None and tol:
            shift = f" (shift / tolerance = {(rb - ra) / tol:.3e})"
        out.append(f"{name}: residual {ra!r} -> {rb!r}{shift}")
    if not _same(a.get("tolerance"), b.get("tolerance")):
        out.append(f"{name}: tolerance {a.get('tolerance')!r} -> {b.get('tolerance')!r}")
    ka, kb = set(a.get("extra", {})), set(b.get("extra", {}))
    for key in sorted(kb - ka):
        out.append(f"{name}: extra +{key} = {json.dumps(b['extra'][key])}")
    for key in sorted(ka - kb):
        out.append(f"{name}: extra -{key}")
    covered = {"status", "residual", "tolerance", "extra"}
    other = sorted(
        k for k in set(a) | set(b) if k not in covered and not _same(a.get(k), b.get(k))
    )
    other += [
        f"extra.{k}" for k in sorted(ka & kb) if not _same(a["extra"][k], b["extra"][k])
    ]
    if other:
        out.append(f"{name}: changed {', '.join(other)}")
    return out


def diff_lines(doc_a: dict, doc_b: dict) -> list[str]:
    ra, rb = _records(doc_a), _records(doc_b)
    out = []
    for name in sorted(set(ra) | set(rb)):
        if name not in rb:
            out.append(f"{name}: only in A")
        elif name not in ra:
            out.append(f"{name}: only in B")
        else:
            out.extend(record_lines(name, ra[name], rb[name]))
    for key in ("version", "config", "summary"):
        if not _same(doc_a.get(key), doc_b.get(key)):
            out.append(f"{key}: {json.dumps(doc_a.get(key))} -> {json.dumps(doc_b.get(key))}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        raw = [open(path, "rb").read() for path in argv]
        docs = [json.loads(r) for r in raw]
        lines = diff_lines(*docs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot compare: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if raw[0] == raw[1]:
        print("byte-identical")
        return 0
    if not lines:
        print("same records, different bytes (formatting or key order)")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
