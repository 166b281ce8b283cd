"""The traced run wraps every binding of every traced name, charges time
consistently, and leaves no wrapper behind; the untraced run installs none."""

import types

import pytest

import schrogeo
import schrogeo.cli
import schrogeo.numkernel as nk
from schrogeo.numkernel import Jet2, SeededSampler

import child
import run as bench
from tracer import JET_FUNCTIONS, JET_UNTRACED, SPAN_TARGETS, Tracer, is_wrapper, schrogeo_modules

TINY = [["lie-algebra", "--dim", "1"], ["homogeneous", "--dim", "1", "--samples", "2"]]


def _originals() -> dict[int, str]:
    out = {}
    modules = schrogeo_modules()
    for targets in (SPAN_TARGETS, JET_FUNCTIONS):
        for modname, names in targets.items():
            for fname in names:
                out[id(getattr(modules[modname], fname))] = f"{modname}.{fname}"
    return out


def _jet_functions() -> dict[str, object]:
    return {
        attr: value
        for attr, value in vars(Jet2).items()
        if isinstance(value, types.FunctionType) and attr not in JET_UNTRACED
    }


def _wrappers_left() -> list[str]:
    found = [
        f"{name}.{attr}"
        for name, mod in schrogeo_modules().items()
        for attr, value in vars(mod).items()
        if is_wrapper(value)
    ]
    found += [f"Jet2.{a}" for a, v in vars(Jet2).items() if is_wrapper(v)]
    found += [f"SeededSampler.{a}" for a, v in vars(SeededSampler).items() if is_wrapper(v)]
    return found


def test_install_wraps_every_import_site():
    originals = _originals()
    jet_before = _jet_functions()
    assert {"__radd__", "__rmul__", "__init__"} <= set(jet_before)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for name, mod in schrogeo_modules().items():
            for attr, value in vars(mod).items():
                assert id(value) not in originals, (
                    f"{name}.{attr} still binds the unwrapped {originals[id(value)]}"
                )
        for modname, names in SPAN_TARGETS.items():
            for fname in names:
                assert is_wrapper(getattr(schrogeo_modules()[modname], fname))
        for attr in jet_before:
            assert is_wrapper(vars(Jet2)[attr]), f"Jet2.{attr} is not wrapped"
        # the alias pairs get wrappers of their own
        assert vars(Jet2)["__radd__"] is not vars(Jet2)["__add__"]
        assert is_wrapper(vars(SeededSampler)["sample"])
    finally:
        tracer.uninstall()
    assert _wrappers_left() == []
    assert _jet_functions() == jet_before
    assert _originals() == originals


def test_jet_counters_include_reflected_operators():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_battery(0)
        x = Jet2.variable(2.0, 0, 1)
        y = 1.0 + x
        z = 3.0 * y
        w = nk.exp(z)
        tracer.end_battery()
    finally:
        tracer.uninstall()
    counts = tracer.battery_metrics(0)
    # __radd__, __rmul__ and _chain (via exp)
    assert counts["numkernel.jet2.ops"] == 3
    assert counts["numkernel.jet2.constructed"] == 4
    assert counts["numkernel.jet2.self_s"] > 0
    assert w.value == pytest.approx(float(nk.exp(9.0)))


def test_self_times_partition_the_battery(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_battery(0)
        b = child.run_battery(schrogeo.cli, TINY, 5, tmp_path)
        tracer.end_battery()
    finally:
        tracer.uninstall()
    assert b["codes"] == [0, 0]
    m = tracer.battery_metrics(0)
    assert m["cli.main.calls"] == len(TINY)
    assert m["suites.run_suite.calls"] == len(TINY)
    assert m["geometry.gram_jets.calls"] > 0
    assert m["ambient.build_Z0.calls"] > 0
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"] * len(TINY)
    total = sum(end - start for _, start, end, *_ in roots)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(total, rel=1e-9)
    assert min(v for k, v in m.items() if k.endswith(".self_s")) > -1e-9


def test_traced_reports_equal_untraced(tmp_path):
    spec = {"calls": TINY, "seeds": [11, 12], "workdir": str(tmp_path), "mode": "trace",
            "seconds": 0}
    out = child.run(spec, schrogeo.cli)
    assert _wrappers_left() == []
    check = bench.verify(out["batteries"])
    assert check["correct"] and check["compared"] >= 1
    traced = [b for b in out["batteries"] if b["kind"] == "traced"]
    assert traced and all("layers" in b for b in traced)


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    installs = []
    monkeypatch.setattr(Tracer, "install", lambda self: installs.append(self))
    spec = {"calls": TINY, "seeds": [11], "workdir": str(tmp_path), "mode": "warm",
            "seconds": 0}
    out = child.run(spec, schrogeo.cli)
    assert installs == []
    assert _wrappers_left() == []
    kinds = [b["kind"] for b in out["batteries"]]
    assert kinds == ["cold"] + ["warm"] * child.MIN_WARM
    assert bench.verify(out["batteries"])["correct"]


def test_verify_fails_on_mismatch_and_failed_records():
    ok = {"seed": 1, "digests": ["a"], "records": 3, "passed": 3}
    assert bench.verify([ok, dict(ok)])["correct"]
    assert not bench.verify([ok, dict(ok, digests=["b"])])["correct"]
    assert not bench.verify([ok, dict(ok, passed=2)])["correct"]
    # nothing repeated: reproducibility was not shown
    assert not bench.verify([ok])["correct"]


def test_tail_has_ten_beyond_it():
    assert bench.tail([3.0, 1.0, 2.0]) == (2.0, 50)
    for n in (20, 21, 43, 100):
        value, pct = bench.tail([float(i) for i in range(n)])
        assert pct >= 50 and n - 1 - value == 10
