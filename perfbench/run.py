"""schrogeo benchmark: time to a verdict on a battery of ``schrogeo.cli.main``
calls, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It drives the public entry point
``schrogeo.cli.main`` as a closed loop with one caller: the next battery
starts only when the previous one has finished.  The program runs in fresh
child interpreters (``child.py``), started one at a time with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1``.

``--trace 0`` measures the end-to-end metrics over the six children of
``PLAN``, in turn; each imports ``schrogeo.cli`` and runs the cold battery,
and four then run warm batteries for a quarter of ``--seconds``.
``--trace 1`` runs one
child that alternates untraced and traced batteries at equal seeds for
``--seconds`` and reports the per-layer metrics (see ``tracer.py``).  Every
time is reported at a reference host speed (see ``REF_NOMINAL_S``).

Every report is checked: exit code 0, every record PASS, and identical JSON
bytes for every battery at a seed already run, traced or not.  The last line
of stdout is the result object; the lines above it list every metric with
its unit and the run environment.  The exit code is 0 when every check
holds, 1 when one fails or a child dies, and 2 when there is no schrogeo
source to measure.  See README.md in this directory for the workloads and
the metric map.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Each battery: the cli.main argument lists, before --seed/--format/--out.
_DIMS_123 = ["--dim", "1", "--dim", "2", "--dim", "3"]
_DIMS_68 = ["--dim", "6", "--dim", "8"]
_DIMS_468 = ["--dim", "4", "--dim", "6", "--dim", "8"]
WORKLOADS = {
    "default_all": [["all"]],
    "bulk_dense": [
        ["homogeneous", *_DIMS_123, "--samples", "80"],
        ["axioms", *_DIMS_123, "--samples", "80"],
    ],
    "bulk_wide": [["homogeneous", *_DIMS_68], ["axioms", *_DIMS_68]],
    "algebra_wide": [
        ["lie-algebra", *_DIMS_468, "--samples", "40"],
        ["group", *_DIMS_468, "--samples", "40"],
    ],
}

END_TO_END = {
    "setup_s": "s",
    "cold_battery_s": "s",
    "battery_s": "s",
    "battery_s_tail": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "ratio",
    "report_match_ratio": "ratio",
}


def _both(layer: str, names) -> list[str]:
    return [f"{layer}.{n}.{kind}" for n in names for kind in ("calls", "self_s")]


PER_LAYER = [
    "numkernel.jet2.constructed",
    "numkernel.jet2.ops",
    "numkernel.jet2.self_s",
    "numkernel.seed_point.calls",
    "numkernel.sampler.draws",
    "numkernel.sampler.rejections",
    *_both("numkernel", ["rank_nullspace"]),
    *_both(
        "geometry",
        ["gram_values", "gram_jets", "jet_components", "ricci_from_derivatives",
         "christoffel_from_derivatives"],
    ),
    "geometry.lie_derivative_metric.self_s",
    "geometry.covariant_derivative.self_s",
    "geometry.yamabe_residual.self_s",
    "geometry.degenerate_errors",
    *_both(
        "ambient",
        ["build_Z0", "commutant_basis", "decompose_sch", "random_group_element",
         "projective_action"],
    ),
    "ambient.chart_escapes",
    "ambient.component_witnesses.self_s",
    *_both(
        "homogeneous",
        ["embed_components", "induced_metric", "xi_hat_consistency", "einstein_residual",
         "nullfluid_residual", "isometry_check", "isotropy_check", "boundary_structure",
         "schrodinger_axiom_audit"],
    ),
    *_both(
        "bargmann",
        ["schrodinger_residual", "symmetry_transport_check", "bargmann_axioms_check",
         "conformal_equivalence_check"],
    ),
    "suites.run_suite.self_s",
    "suites.emit_report.self_s",
    "cli.main.self_s",
    "suites.checks",
    "suites.error_checks",
    "trace.overhead_s",
    "trace.traced_battery_s",
    "trace.untraced_battery_s",
]

# Battery times are reported at the host speed where the reference kernel
# (child.reference_s) takes this long: its usual time on the 2-core x86-64
# container the bounds were set on.  The host's speed drifts by ±30% over
# seconds to minutes; scaling each battery by the reference timed next to it
# cancels that drift, which no number of samples in a run can.
REF_NOMINAL_S = 0.017

# A run must end within 180 s; children share what is left of this budget.
BUDGET_S = 170.0
# The children of an untraced run, started in turn.  Each runs the cold
# battery; a "warm" child then runs warm batteries for its share of
# --seconds.  Six cold samples keep the cold median steady.
PLAN = ("warm", "cold", "warm", "warm", "cold", "warm")


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class ChildFailure(RuntimeError):
    pass


def cli_seeds(workload_seed: int) -> list[int]:
    """The two base seeds a run passes to ``--seed``, from the workload seed."""
    rng = random.Random(workload_seed)
    return [rng.randrange(1, 10**6) for _ in range(2)]


def tail(values: list[float]) -> tuple[float, int]:
    """The highest nearest-rank percentile with at least ten values beyond
    it, but never below p50, and that percentile.  Below 20 values it is the
    (nearest-rank) median: a higher percentile would rest on fewer than ten
    values, and the maximum of a few batteries is mostly host noise."""
    xs = sorted(values)
    n = len(xs)
    pct = max(50, 100 * (n - 10) // n)
    return xs[math.ceil(pct * n / 100) - 1], pct


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env.pop("SCHROGEO_SEED", None)
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion and return its result object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailure("time budget exhausted before a child could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailure(f"child ({spec['mode']}) ran past the time budget") from exc
    if proc.returncode != 0:
        raise ChildFailure(
            f"child ({spec['mode']}) exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    src = (ROOT / "src").resolve()
    if not Path(out["schrogeo_file"]).resolve().is_relative_to(src):
        raise ChildFailure(f"child imported schrogeo from {out['schrogeo_file']}, not {src}")
    return out


def verify(batteries: list[dict]) -> dict:
    """Record counts and byte comparisons over every battery of the run."""
    records = sum(b["records"] for b in batteries)
    passed = sum(b["passed"] for b in batteries)
    first: dict[int, list] = {}
    compared = mismatched = 0
    for b in batteries:
        if b["seed"] in first:
            compared += 1
            mismatched += b["digests"] != first[b["seed"]]
        else:
            first[b["seed"]] = b["digests"]
    return {
        "records": records,
        "passed": passed,
        "compared": compared,
        "mismatched": mismatched,
        "correct": records > 0 and passed == records and compared > 0 and mismatched == 0,
    }


def normalized_s(seconds: float, ref_s: float) -> float:
    """A wall time at the reference host speed, given the time of the
    reference kernel timed next to it."""
    return seconds * REF_NOMINAL_S / ref_s


def at_ref_s(b: dict) -> float:
    return normalized_s(b["seconds"], b["ref_s"])


def end_to_end(children: list[dict], check: dict) -> tuple[dict, dict]:
    batteries = [b for c in children for b in c["batteries"]]
    setup = [normalized_s(c["setup_s"], c["import_ref_s"]) for c in children]
    cold = [b for b in batteries if b["kind"] == "cold"]
    warm = [b for b in batteries if b["kind"] == "warm"]
    warm_s = [at_ref_s(b) for b in warm]
    tail_s, tail_pct = tail(warm_s)
    metrics = {
        "setup_s": statistics.median(setup),
        "cold_battery_s": statistics.median(at_ref_s(b) for b in cold),
        "battery_s": statistics.median(warm_s),
        "battery_s_tail": tail_s,
        "checks_per_s": sum(b["records"] for b in warm) / sum(warm_s),
        "peak_rss_mb": max(c["rss_mb"] for c in children),
        "check_pass_ratio": check["passed"] / check["records"],
        "report_match_ratio": 1.0 - check["mismatched"] / max(1, check["compared"]),
    }
    counts = {
        "setup_s": len(setup),
        "cold_battery_s": len(cold),
        "battery_s": len(warm_s),
        "battery_s_tail": {"n": len(warm_s), "percentile": tail_pct},
        "checks_per_s": len(warm_s),
        "peak_rss_mb": len(children),
        "check_pass_ratio": check["records"],
        "report_match_ratio": check["compared"],
    }
    raw = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "cold_battery_s": statistics.median(b["seconds"] for b in cold),
        "battery_s": statistics.median(b["seconds"] for b in warm),
        "reference_s": statistics.median(b["ref_s"] for b in batteries),
    }
    return metrics, {"samples": counts, "wall_clock": raw}


def per_layer(child: dict) -> tuple[dict, dict]:
    batteries = child["batteries"]
    traced = [b for b in batteries if b["kind"] == "traced"]
    untraced = [b for b in batteries if b["kind"] == "untraced"]

    def at_ref(b: dict, name: str, value: float) -> float:
        return normalized_s(value, b["ref_s"]) if layer_unit(name) == "s" else value

    metrics = {}
    for name in PER_LAYER:
        if name.startswith(("trace.", "suites.checks", "suites.error_checks")):
            continue
        metrics[name] = statistics.median(
            at_ref(b, name, b["layers"].get(name, 0)) for b in traced
        )
    metrics["suites.checks"] = statistics.median(b["records"] for b in traced)
    metrics["suites.error_checks"] = statistics.median(b["errors"] for b in traced)
    metrics["trace.traced_battery_s"] = statistics.median(at_ref_s(b) for b in traced)
    metrics["trace.untraced_battery_s"] = statistics.median(at_ref_s(b) for b in untraced)
    # untraced and traced batteries alternate, so pair them in order
    metrics["trace.overhead_s"] = statistics.median(
        at_ref_s(t) - at_ref_s(u) for u, t in zip(untraced, traced)
    )
    return metrics, {"samples": {"traced": len(traced), "untraced": len(untraced)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "schrogeo" / "cli.py").is_file():
        print(f"perfbench: no schrogeo source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + BUDGET_S
    # the build: byte-compile the package so no child pays for compilation
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    seeds = cli_seeds(args.seed)
    work = ROOT / ".bench_work"
    spec = {
        "calls": WORKLOADS[args.workload],
        "seeds": seeds,
        "workdir": str(work / f"run-{os.getpid()}"),
        "seconds": args.seconds,
    }
    if args.trace:
        plan = [dict(spec, mode="trace")]
    else:
        # the children spread the cold samples over the run, across the
        # host's slow and fast spells
        warm = dict(spec, mode="warm", seconds=args.seconds / PLAN.count("warm"))
        plan = [dict(warm if m == "warm" else spec, mode=m, first_seed=k)
                for k, m in enumerate(PLAN)]
    try:
        children = [spawn(s, deadline) for s in plan]
    except ChildFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(spec["workdir"], ignore_errors=True)

    check = verify([b for c in children for b in c["batteries"]])
    if args.trace:
        metrics, details = per_layer(children[0])
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        metrics, details = end_to_end(children, check)
        units = END_TO_END
    env = dict(
        children[-1]["environment"],
        workload=args.workload,
        workload_seed=args.seed,
        cli_seeds=seeds,
        calls=WORKLOADS[args.workload],
        seconds=args.seconds,
        trace=args.trace,
        git_commit=git_commit(ROOT),
        reference_nominal_s=REF_NOMINAL_S,
        **details,
        checks=check,
        missing_trace_targets=children[0].get("missing_targets", []),
        wall_s=time.monotonic() - start,
    )
    result = {
        "correct": check["correct"],
        "attempted": check["records"],
        "failed": check["records"] - check["passed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    raw = {"environment": env, "result": result, "children": children}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1)
    )

    for name, m in result["metrics"].items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if not check["correct"]:
        print(
            f"perfbench: CHECK FAILED: {result['failed']} of {check['records']} records "
            f"not PASS, {check['mismatched']} of {check['compared']} repeated batteries "
            "with different report bytes",
            file=sys.stderr,
        )
    print(json.dumps(result))
    return 0 if check["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
