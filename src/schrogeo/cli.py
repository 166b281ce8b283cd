"""Command-line runner: ``schrogeo <suite> [options]``.

Exit codes: 0 all checks passed, 1 usage error, 2 invalid configuration,
3 at least one FAIL or ERROR record, 4 I/O failure (unreadable or malformed
config file, unwritable output).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import re
import sys

from .suites import SUITES, ConfigError, SuiteConfig, emit_report, run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_CHECKS = 3
EXIT_IO = 4

ENV_SEED = "SCHROGEO_SEED"


class _UsageError(Exception):
    pass


class _IOFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; the contract reserves 2 for
    # config validation, so usage problems are rerouted to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # built on the first call and kept: parse_args leaves the parser as it
    # found it, so every call of ``main`` shares one
    parser = _Parser(
        prog="schrogeo",
        description="Run verification suites for Schrödinger geometry.",
    )
    parser.add_argument(
        "suite",
        nargs="?",
        choices=SUITES,
        help="which suite to run (or provide it in --config)",
    )
    parser.add_argument(
        "--dim",
        action="append",
        type=int,
        metavar="N",
        help="spatial dimension, repeatable (default "
        + " ".join(map(str, SuiteConfig._field_defaults["dims"]))
        + ")",
    )
    parser.add_argument(
        "--lambda",
        dest="lam",
        action="append",
        type=float,
        metavar="F",
        help="quadric level, repeatable, must be negative for bulk suites",
    )
    parser.add_argument(
        "--mu",
        action="append",
        type=float,
        metavar="F",
        help="clock deformation strength, repeatable",
    )
    parser.add_argument("--samples", type=int, metavar="N", help="samples per check")
    parser.add_argument(
        "--seed", type=int, metavar="N", help=f"base seed (overrides ${ENV_SEED})"
    )
    parser.add_argument("--tol", type=float, metavar="F", help="main tolerance")
    parser.add_argument("--format", choices=("json", "text"), help="output format")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")
    return parser


# glibc's mallopt parameters (malloc.h) and the size the process keeps
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_KEPT = 32 * 1024 * 1024


@functools.cache
def _keep_freed_heap() -> None:
    # by default glibc returns the freed top of the heap to the kernel past
    # 128 KiB, and the next jet pass faults its temporaries' pages in again;
    # with both thresholds at 32 MiB the process keeps and reuses them.
    # Setting either one ends glibc's dynamic mmap threshold, so both are
    # set.  Where there is no mallopt (another libc or platform) this is a
    # no-op.
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, _HEAP_KEPT)
        mallopt(_M_MMAP_THRESHOLD, _HEAP_KEPT)
    except (OSError, AttributeError, TypeError):
        pass


# argparse takes a token such as "-1e-4" or "-inf" for an option, so a
# negative value given after one of these flags is bound to it as
# "--flag=-1e-4" first; validation then judges it.
_NUMERIC_FLAGS = frozenset({"--dim", "--lambda", "--mu", "--tol"})
_NEGATIVE_NUMBER = re.compile(
    r"-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf(inity)?|nan)", re.IGNORECASE
)


def _bind_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            return out + argv[i:]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _NUMERIC_FLAGS and _NEGATIVE_NUMBER.fullmatch(nxt):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# the type of a key's value, or of each element where it may be a list
_FILE_KEYS = {
    "suite": str,
    "dim": int,
    "lambda": (float, int),
    "mu": (float, int),
    "samples": int,
    "seed": int,
    "tol": (float, int),
    "format": str,
    "out": str,
}
_LIST_KEYS = {"dim", "lambda", "mu"}


def _load_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _IOFailure(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _IOFailure(f"malformed config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise _IOFailure(f"malformed config file {path}: expected a JSON object")
    for key, value in data.items():
        allowed = _FILE_KEYS.get(key)
        if allowed is None:
            raise _IOFailure(f"malformed config file {path}: unknown key {key!r}")
        items = value if key in _LIST_KEYS and isinstance(value, list) else [value]
        if any(isinstance(v, bool) or not isinstance(v, allowed) for v in items):
            raise _IOFailure(
                f"malformed config file {path}: key {key!r} has the wrong type"
            )
    return data


def _as_tuple(value, cast) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(cast(v) for v in value)
    return (cast(value),)


def _grid(flag_values, data: dict, key: str, cast):
    # precedence: flags, then config file; None leaves SuiteConfig's default
    if flag_values:
        return tuple(flag_values)
    if key in data:
        return _as_tuple(data[key], cast)
    return None


def _build_config(args) -> SuiteConfig:
    data = _load_file(args.config) if args.config else {}

    suite = args.suite or data.get("suite")
    if suite is None:
        raise _UsageError("a suite name is required (argument or config file)")

    seed = args.seed
    if seed is None and ENV_SEED in os.environ:
        raw = os.environ[ENV_SEED]
        try:
            seed = int(raw)
        except ValueError as exc:
            raise ConfigError(f"${ENV_SEED} must be an integer, got {raw!r}") from exc
    if seed is None:
        seed = data.get("seed")
    tol = args.tol if args.tol is not None else data.get("tol")

    # what no flag, environment or file sets keeps the SuiteConfig default
    fields = {
        "dims": _grid(args.dim, data, "dim", int),
        "lams": _grid(args.lam, data, "lambda", float),
        "mus": _grid(args.mu, data, "mu", float),
        "samples": args.samples if args.samples is not None else data.get("samples"),
        "seed": seed,
        # a file's integer tol files as the float the flag parses
        "tol": None if tol is None else float(tol),
        "fmt": args.format or data.get("format"),
        "out": args.out or data.get("out"),
    }
    return SuiteConfig(suite, **{k: v for k, v in fields.items() if v is not None})


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_bind_negative_values(argv))
        cfg = _build_config(args)
        cfg.validate()
    except _UsageError as exc:
        print(f"schrogeo: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"schrogeo: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _IOFailure as exc:
        print(f"schrogeo: {exc}", file=sys.stderr)
        return EXIT_IO

    report = run_suite(cfg)
    payload = emit_report(report, cfg.fmt)
    # wall time goes to stderr only: the payload is byte-reproducible
    print(f"# wall time {report.wall_time:.2f}s", file=sys.stderr)

    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"schrogeo: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(payload)
    return EXIT_OK if report.all_passed() else EXIT_CHECKS


if __name__ == "__main__":
    sys.exit(main())
