"""One fresh interpreter of the benchmark.

    python3 perfbench/child.py '<spec json>'

``run.py`` starts this script one process at a time with BLAS threads
pinned.  It times ``import schrogeo.cli``, then runs batteries: a battery
is the workload's fixed sequence of ``schrogeo.cli.main`` calls, each with
``--seed S --format json --out FILE``.  The spec's ``mode`` says which:

- ``cold``: the cold battery only (the first of the interpreter);
- ``warm``: the cold battery, then warm batteries for about ``seconds`` (at
  least ``MIN_WARM``);
- ``trace``: the cold battery, then pairs of an untraced and a traced
  battery at the same seed for ``seconds`` (at least one pair).

Seeds cycle through ``spec["seeds"]``, starting at index
``spec["first_seed"]``.  The last line of stdout is one JSON object with the
import time, peak RSS, the environment and, per battery, its wall time, the
reference kernel's time around it, exit codes, report digests and record
counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

# with the cold battery, both seeds of a run appear in each warm child
MIN_WARM = 1
# iterations of the reference kernel: about 9-18 ms on a 2-core x86-64 host
REF_ITERATIONS = 2000


def reference_s() -> float:
    """Wall time of a fixed kernel of Python float arithmetic and small numpy
    calls, the instruction mix of a battery.  Timed next to every battery, it
    measures how fast the host runs at that moment."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 25).reshape(5, 5)
    acc = 0.0
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        g = np.outer(a[i % 5], a[(i + 1) % 5])
        a = 0.5 * (a + g.T) * 0.999
        acc += float(a[0, 0]) + i * 1e-9
    return time.perf_counter() - start


def run_battery(cli, calls, seed: int, workdir: Path) -> dict:
    """Run one battery through ``cli.main`` and check every report."""
    outs = [workdir / f"call{k}.json" for k in range(len(calls))]
    for out in outs:
        out.unlink(missing_ok=True)
    argvs = [
        list(call) + ["--seed", str(seed), "--format", "json", "--out", str(out)]
        for call, out in zip(calls, outs)
    ]
    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            codes.append(cli.main(argv))
    seconds = time.perf_counter() - start

    records = passed = errors = 0
    digests = []
    for code, out in zip(codes, outs):
        try:
            data = out.read_bytes()
            checks = json.loads(data)["checks"]
        except (OSError, ValueError, KeyError, TypeError):
            # no readable report: the call counts as one failed record
            digests.append(None)
            records += 1
            continue
        digests.append(hashlib.sha256(data).hexdigest())
        records += len(checks)
        errors += sum(1 for c in checks if c.get("status") == "ERROR")
        # a non-zero exit fails every record of the call
        if code == 0:
            passed += sum(1 for c in checks if c.get("status") == "PASS")
    return {
        "seed": seed,
        "seconds": seconds,
        "codes": codes,
        "digests": digests,
        "records": records,
        "passed": passed,
        "errors": errors,
    }


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "blas": blas,
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run(spec: dict, cli) -> dict:
    """Run the batteries the spec asks for, through the module ``cli``."""
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    calls, seeds, mode = spec["calls"], spec["seeds"], spec["mode"]
    batteries = []
    turn = spec.get("first_seed", 0)
    out = {"mode": mode}

    # timed right after the import, before the cold battery
    ref_before = out["import_ref_s"] = reference_s()

    def battery(kind: str, seed: int | None = None) -> dict:
        nonlocal turn, ref_before
        if seed is None:
            seed = seeds[turn % len(seeds)]
            turn += 1
        b = run_battery(cli, calls, seed, workdir)
        ref_after = reference_s()
        b.update(kind=kind, ref_s=0.5 * (ref_before + ref_after))
        ref_before = ref_after
        batteries.append(b)
        return b

    battery("cold")
    if mode == "warm":
        deadline = time.perf_counter() + spec["seconds"]
        warm = 0
        last = 0.0
        # stop where the expected end of the next battery is past the
        # deadline by more than half a battery
        while warm < MIN_WARM or time.perf_counter() + 0.5 * last < deadline:
            last = battery("warm")["seconds"]
            warm += 1
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        deadline = time.perf_counter() + spec["seconds"]
        pair = 0
        while time.perf_counter() < deadline or pair == 0:
            seed = battery("untraced")["seed"]
            tracer.install()
            tracer.start_battery(pair)
            try:
                battery("traced", seed)["battery"] = pair
            finally:
                tracer.end_battery()
                tracer.uninstall()
            pair += 1
        for b in batteries:
            if b["kind"] == "traced":
                b["layers"] = tracer.battery_metrics(b["battery"])
        out["missing_targets"] = tracer.missing

    out.update(
        schrogeo_file=cli.__file__,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
        batteries=batteries,
    )
    return out


if __name__ == "__main__":
    _start = time.perf_counter()
    import schrogeo.cli as _cli

    _setup_s = time.perf_counter() - _start
    _result = run(json.loads(sys.argv[1]), _cli)
    _result["setup_s"] = _setup_s
    print(json.dumps(_result))
