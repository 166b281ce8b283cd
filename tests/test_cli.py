"""Command-line contract: exit codes, precedence of flags over environment
over file, and byte identity of repeated runs."""

import ctypes
import json
import os
import platform
import subprocess
import sys
import textwrap
import types

import pytest

from schrogeo import cli
from schrogeo.cli import main
from schrogeo.suites import SuiteConfig, run_suite

FAST = ["--dim", "1", "--samples", "4"]


class TestExitCodes:
    def test_ok(self, capsys, monkeypatch):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        assert main(["boundary", *FAST]) == 0
        out = capsys.readouterr().out
        assert "summary:" in out

    def test_missing_suite_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["eigenmodes", *FAST]) == 1

    def test_bad_lambda_is_config_error(self, capsys):
        assert main(["homogeneous", "--lambda", "0.5", *FAST]) == 2

    def test_bad_seed_env_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHROGEO_SEED", "not-a-number")
        assert main(["boundary", *FAST]) == 2

    def test_failing_checks_exit_three(self, capsys):
        assert main(["homogeneous", "--tol", "1e-30", *FAST]) == 3

    def test_malformed_config_file_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["boundary", "--config", str(bad), *FAST]) == 4

    def test_unknown_config_key_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"suite": "boundary", "spectras": 3}))
        assert main(["--config", str(bad), *FAST]) == 4

    def test_wrong_config_type_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"suite": "boundary", "samples": True}))
        assert main(["--config", str(bad), *FAST]) == 4

    @pytest.mark.parametrize(
        "data",
        [
            {"suite": "boundary", "dim": [1.7]},
            {"suite": "boundary", "dim": [True]},
            {"suite": "homogeneous", "lambda": ["x"]},
        ],
        ids=["float_dim", "bool_dim", "string_lambda"],
    )
    def test_wrong_config_list_element_is_io_error(self, data, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(data))
        assert main(["--config", str(bad), *FAST]) == 4
        assert "malformed config file" in capsys.readouterr().err

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        assert main(["boundary", *FAST, "--out", str(target)]) == 4

    @pytest.mark.parametrize("key", ["fd_tol", "fd-tol"])
    def test_removed_fd_tol_key_is_io_error(self, key, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"suite": "boundary", key: 1e-5}))
        assert main(["--config", str(bad), *FAST]) == 4
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_removed_fd_tol_flag_is_usage_error(self, capsys):
        assert main(["boundary", "--fd-tol", "1e-5", *FAST]) == 1

    def test_config_file_lambda_validated(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"suite": "homogeneous", "lambda": [0.5]}))
        assert main(["--config", str(bad), *FAST]) == 2


NON_FINITE = [
    *(("lambda", v) for v in ("nan", "inf", "-inf", "-Infinity")),
    *(("mu", v) for v in ("nan", "inf", "-inf")),
    *(("tol", v) for v in ("nan", "inf", "-inf", "0", "-1e-4")),
]


def _never_run(cfg):
    raise AssertionError(f"an invalid configuration ran: {cfg}")


@pytest.mark.parametrize("suite", ["homogeneous", "axioms", "boundary"])
@pytest.mark.parametrize("key, value", NON_FINITE)
class TestNonFiniteConfig:
    """A non-finite coupling or tolerance, or one that is not > 0, is an
    invalid configuration (exit 2) before any check runs, by flag or by
    config file (Python's json reads NaN and Infinity)."""

    def test_flag(self, suite, key, value, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_suite", _never_run)
        assert main([suite, f"--{key}", value, *FAST]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_config_file(self, suite, key, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_suite", _never_run)
        cfg = tmp_path / "cfg.json"
        number = float(value)
        cfg.write_text(
            json.dumps({"suite": suite, key: number if key == "tol" else [number]})
        )
        assert main(["--config", str(cfg), *FAST]) == 2
        assert "invalid configuration" in capsys.readouterr().err


# repeated dims, and couplings that print alike as {:g} in record names
COLLIDING = [
    ("dim", [1, 1]),
    ("dim", [2, 3, 2]),
    ("lambda", [-0.5, -0.5000001]),
    ("mu", [1.0, 1.0000000001]),
]


@pytest.mark.parametrize("key, values", COLLIDING)
class TestCollidingGrid:
    """Grid values that would file two records under one name are an
    invalid configuration (exit 2), named in the message, by flag or by
    config file."""

    def test_flag(self, key, values, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_suite", _never_run)
        flags = [f"--{key}={v}" for v in values]
        assert main(["axioms", *flags, "--samples", "4"]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and f"{key} values" in err

    def test_config_file(self, key, values, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_suite", _never_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "axioms", key: values}))
        assert main(["--config", str(cfg), "--samples", "4"]) == 2
        assert f"{key} values" in capsys.readouterr().err


class TestPrecedence:
    def test_suite_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "boundary", "samples": 4, "dim": [1]}))
        assert main(["--config", str(cfg)]) == 0

    def test_env_seed_lands_in_payload(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCHROGEO_SEED", "7")
        out = tmp_path / "r.json"
        assert main(["boundary", *FAST, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 7

    def test_flag_overrides_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCHROGEO_SEED", "7")
        out = tmp_path / "r.json"
        assert (
            main(["boundary", *FAST, "--seed", "9", "--format", "json", "--out", str(out)])
            == 0
        )
        assert json.loads(out.read_text())["config"]["seed"] == 9

    def test_flag_overrides_config_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"suite": "boundary", "samples": 4, "dim": [1, 2], "seed": 5})
        )
        out = tmp_path / "r.json"
        assert (
            main(["--config", str(cfg), "--dim", "1", "--format", "json", "--out", str(out)])
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["config"]["dims"] == [1]
        assert doc["config"]["seed"] == 5


    def test_flag_free_run_takes_every_default_from_suite_config(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        reports = []

        def recording_run(cfg):
            reports.append((cfg, run_suite(cfg)))
            return reports[-1][1]

        monkeypatch.setattr(cli, "run_suite", recording_run)
        assert main(["bargmann"]) == 0
        ((cfg, report),) = reports
        assert cfg == SuiteConfig("bargmann")
        assert report.config == SuiteConfig("bargmann").payload()
        assert "summary:" in capsys.readouterr().out


class TestNegativeValues:
    def _config(self, tmp_path, args):
        out = tmp_path / "r.json"
        code = main(["homogeneous", *args, "--format", "json", "--out", str(out)])
        return code, json.loads(out.read_text())["config"] if code in (0, 3) else None

    def test_scientific_notation_with_or_without_equals(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        spaced = ["--dim", "1", "--lambda", "-1e-4", "--mu", "-2.5E1"]
        joined = ["--dim=1", "--lambda=-1e-4", "--mu=-2.5E1"]
        spaced, joined = (self._config(tmp_path, [*a, "--samples", "4"]) for a in (spaced, joined))
        assert spaced == joined
        assert spaced[1]["lams"] == [-1e-4] and spaced[1]["mus"] == [-25.0]

    def test_negative_dim_reaches_validation(self, capsys):
        assert main(["homogeneous", "--dim", "-1", "--samples", "4"]) == 2

    def test_other_flags_still_rejected(self, capsys):
        assert main(["homogeneous", "--samples", "-1e-4"]) == 1


class TestDegenerateMetricRegressions:
    """Valid couplings whose Gram matrices are tiny or ill-conditioned but
    regular; a determinant threshold once reported them as singular."""

    @pytest.mark.parametrize(
        "args",
        [
            ["--dim", "1", "--lambda=-1e-4", "--mu", "1000"],
            ["--dim", "2", "--lambda=-50", "--mu", "-30"],
        ],
    )
    def test_homogeneous_all_pass(self, args, capsys, monkeypatch):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        assert main(["homogeneous", *args]) == 0
        out = capsys.readouterr().out
        assert "ERROR" not in out and "FAIL" not in out


class TestErrorCapture:
    """An ERROR record keeps the coupling and the sample it failed at: at
    lambda = -1e6 the null-fluid Gram is singular at the relative cut of
    ``_invert_gram`` (a known limit of the coupling range)."""

    def test_singular_nullfluid_files_its_coupling_and_sample(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        out = tmp_path / "report.json"
        argv = ["homogeneous", "--dim", "1", "--lambda=-1e6", "--mu", "1"]
        assert main([*argv, "--format", "json", "--out", str(out)]) == cli.EXIT_CHECKS
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        errors = [name for name, c in checks.items() if c["status"] == "ERROR"]
        assert errors == ["homogeneous_d1_nullfluid"]
        record = checks["homogeneous_d1_nullfluid"]
        assert record["extra"] == {"coupling": [-1e6, 1.0], "sample": 0}
        assert "(lam, mu) = (-1e+06, 1), sample 0" in record["error"]


class TestLargeCouplingAudit:
    """The deformation identity compares Gram entries of size ~1e6 at
    (2, -50, -30); a fixed 1e-12 bound sat below one rounding there."""

    def test_axioms_pass(self, capsys, monkeypatch):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        assert main(["axioms", "--dim", "2", "--lambda=-50", "--mu", "-30"]) == 0
        out = capsys.readouterr().out
        assert "PASS  axioms_d2_lam-50_mu-30" in out


class TestReproducibility:
    def test_json_byte_identical(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert (
                main(["lie-algebra", *FAST, "--format", "json", "--out", str(target)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_wall_time_not_on_stdout(self, capsys, monkeypatch):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        assert main(["boundary", *FAST, "--format", "json"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert "wall_time" not in json.dumps(doc)
        assert "s" in captured.err  # timing goes to stderr


class TestOneProcess:
    """Calls in one interpreter share the parser and the sampler's box
    cache, and each writes the bytes a fresh process writes."""

    CALLS = [
        ["homogeneous", "--dim", "1", "--dim", "2", "--dim", "3", "--samples", "80"],
        ["axioms", "--dim", "6", "--dim", "8"],
        ["all"],
        ["homogeneous", "--lambda", "-1", "--lambda=-0.4", "--mu", "0", "--mu", "3"],
    ]

    def test_each_call_writes_what_a_fresh_process_writes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        env = {k: v for k, v in os.environ.items() if k != "SCHROGEO_SEED"}
        for k, call in enumerate(self.CALLS):
            argv = [*call, "--seed", "3", "--format", "json", "--out"]
            here, fresh = tmp_path / f"here{k}.json", tmp_path / f"fresh{k}.json"
            assert main([*argv, str(here)]) == 0
            proc = subprocess.run(
                [sys.executable, "-m", "schrogeo.cli", *argv, str(fresh)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert here.read_bytes() == fresh.read_bytes(), call

    def test_all_runs_at_two_seeds(self, tmp_path, capsys):
        # no package code writes into a seed jet's shared, read-only arrays
        for seed in ("0", "42"):
            assert main(["all", "--seed", seed, "--out", str(tmp_path / seed)]) == 0


GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


class TestHeapPolicy:
    """``main`` keeps freed heap memory mapped, so a warm call reuses the
    pages of the call before it instead of faulting them in again."""

    ARGV = ["axioms", "--dim", "3", "--samples", "80", "--format", "json", "--out"]

    @pytest.fixture(autouse=True)
    def fresh_policy(self):
        # a test that swaps ``ctypes.CDLL`` must not leave its outcome cached
        cli._keep_freed_heap.cache_clear()
        yield
        cli._keep_freed_heap.cache_clear()

    @pytest.mark.skipif(not GLIBC, reason="the policy is glibc's mallopt")
    def test_a_warm_call_faults_few_pages(self, tmp_path):
        import resource

        argv = [*self.ARGV, str(tmp_path / "report.json")]
        assert main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

    @pytest.mark.parametrize("missing", ["no libc", "no mallopt", "no CDLL(None)"])
    def test_without_mallopt_main_writes_the_same_bytes(self, missing, tmp_path, monkeypatch):
        monkeypatch.delenv("SCHROGEO_SEED", raising=False)
        argv = ["boundary", *FAST, "--format", "json", "--out"]
        assert main([*argv, str(tmp_path / "with.json")]) == 0

        def cdll(name):
            if missing == "no libc":
                raise OSError("cannot load the C library")
            if missing == "no CDLL(None)":
                raise TypeError("a library name is required")
            return object()

        cli._keep_freed_heap.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert main([*argv, str(tmp_path / "without.json")]) == 0
        assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()

    def test_two_calls_set_the_policy_once(self, tmp_path, monkeypatch):
        opened, set_to = [], []

        def mallopt(param, value):
            set_to.append((param, value))
            return 1

        def cdll(name):
            opened.append(name)
            return types.SimpleNamespace(mallopt=mallopt)

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        for k in range(2):
            assert main(["boundary", *FAST, "--out", str(tmp_path / f"{k}.txt")]) == 0
        assert opened == [None]
        # M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, both at 32 MiB
        assert set_to == [(-1, 32 << 20), (-3, 32 << 20)]


class TestInstalledEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "schrogeo.cli", "boundary", *FAST],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "summary:" in proc.stdout

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: neither the import nor the
        # suites that exponentiate algebra elements may load scipy, at module
        # level or lazily
        script = textwrap.dedent(
            """
            import sys
            import schrogeo, schrogeo.cli as cli
            for suite in ("group", "homogeneous"):
                out = f"{sys.argv[1]}/{suite}.json"
                assert cli.main([suite, *sys.argv[2:], "--format", "json", "--out", out]) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), *FAST],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
