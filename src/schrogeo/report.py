"""Check records, the one status rule shared by the suites and the CLI, and
the JSON writer of the report."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Any

__all__ = ["CheckResult", "dump_json", "judged", "status_of"]

_STATUSES = ("PASS", "FAIL", "ERROR")


def _jsonable(value):
    # numpy scalars and containers sneak into extras; normalize them
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool):
        return value
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


class CheckResult:
    """Outcome of one named check.

    ``residual`` is the defect the check measured, folded over its samples,
    and ``tolerance`` the threshold it was held to.  ``claim`` states in
    words what property was tested.  ``extra`` carries auxiliary numbers
    worth auditing (dimensions, per-sample data, flags); it must stay
    JSON-serializable.
    """

    name: str
    status: str
    residual: float | None
    tolerance: float | None
    claim: str
    config: dict
    samples: int | None
    seed: int | None
    extra: dict
    error: str | None

    def __init__(
        self, name, status, residual=None, tolerance=None, claim="", config=None,
        samples=None, seed=None, extra=None, error=None,
    ):
        if status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {status!r}")
        self.name, self.status, self.claim, self.error = name, status, claim, error
        self.residual, self.tolerance, self.samples, self.seed = residual, tolerance, samples, seed
        self.config = {} if config is None else config
        self.extra = {} if extra is None else extra

    def _fields(self) -> dict[str, Any]:
        # the filed fields, with config and extra as given; ``dump_json``
        # normalizes them as it writes
        out: dict[str, Any] = {"name": self.name, "status": self.status, "claim": self.claim}
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        if self.config:
            out["config"] = self.config
        if self.samples is not None:
            out["samples"] = int(self.samples)
        if self.seed is not None:
            out["seed"] = int(self.seed)
        if self.extra:
            out["extra"] = self.extra
        if self.error is not None:
            out["error"] = self.error
        return out

    def to_dict(self) -> dict[str, Any]:
        """The record as plain JSON values: what ``dump_json`` writes."""
        return _jsonable(self._fields())


def status_of(ok: bool) -> str:
    """The status word of a verdict that did not error."""
    return "PASS" if ok else "FAIL"


def judged(
    residual: float,
    tolerance: float | None,
    *,
    name: str = "",
    claim: str = "",
    control: bool = False,
    holds: bool = True,
    extra: dict | None = None,
    **filed,
) -> CheckResult:
    """A record whose status follows the one rule.

    A bound passes iff ``residual < tolerance`` (a ``None`` tolerance sets
    no bound) and ``holds``, the check's own extra condition.  A control
    passes iff ``residual > tolerance``; it records that as
    ``extra["must_exceed"] = tolerance``.  Over samples, the runner folds a
    bound's residual to its largest sample and a control's to its smallest,
    so each kind must hold at every sample; ``filed`` holds the record's
    other fields, its seed, config and sample count.  The record takes
    ``extra`` as its own: a caller hands over a dict it does not share.
    """
    extra = {} if extra is None else extra
    if control:
        ok = residual > tolerance
        extra["must_exceed"] = tolerance
    else:
        ok = (tolerance is None or residual < tolerance) and holds
    return CheckResult(
        name=name,
        status=status_of(ok),
        residual=residual,
        tolerance=tolerance,
        claim=claim,
        extra=extra,
        **filed,
    )


# ---------------------------------------------------------------------------
# the report's JSON text

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


# the text of a leaf of exactly one of these types
_LEAVES = {
    str: _quote,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def dump_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, character for
    character, with ``doc`` normalized as ``CheckResult.to_dict`` does it:
    numpy scalars become Python numbers, tuples lists, keys strings, and a
    ``CheckResult`` its ``to_dict()`` view.

    The stdlib encoder writes an indented document in pure Python, through
    nested generators; this writer appends to one list in one walk.  Strings
    go through the stdlib's ``encode_basestring_ascii``, floats through
    ``float.__repr__`` (NaN and infinities as the stdlib spells them), ints
    through ``int.__repr__``.
    """
    parts: list[str] = []
    put = parts.append
    # per nesting level: the line break and indent before an item, and the
    # ``,<break>"key": `` text of each key met at that level, which the
    # records of a report share
    newlines = ["\n"]
    heads: list[dict[str, str]] = []

    def write(value, level: int) -> None:
        kind = type(value)
        if kind is not dict and kind is not list:
            leaf = _LEAVES.get(kind)
            if leaf is not None:
                put(leaf(value))
                return
            value = _plain(value)
            if not isinstance(value, (dict, list, tuple)):
                write(value, level)
                return
        if not value:
            put("{}" if isinstance(value, dict) else "[]")
            return
        if len(newlines) == level + 1:
            newlines.append(newlines[-1] + "  ")
            heads.append({})
        inner = newlines[level + 1]
        if isinstance(value, dict):
            mark, known = len(parts), heads[level]
            try:
                keys = sorted(value)
            except TypeError:
                keys = [None]  # keys of mixed types: written as strings below
            put("{")
            for key in keys:
                head = known.get(key)
                if head is None:
                    if type(key) is not str:
                        # keys that are not all strings are written as str(key)
                        del parts[mark:]
                        write({str(k): v for k, v in value.items()}, level)
                        return
                    head = known[key] = "," + inner + _quote(key) + ": "
                item = value[key]
                leaf = _LEAVES.get(type(item))
                if leaf is None:
                    put(head)
                    write(item, level + 1)
                else:
                    put(head + leaf(item))
            parts[mark + 1] = parts[mark + 1][1:]  # no comma before the first item
            put(newlines[level] + "}")
            return
        lead = "[" + inner
        for item in value:
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                put(lead)
                write(item, level + 1)
            else:
                put(lead + leaf(item))
            lead = "," + inner
        put(newlines[level] + "]")

    try:
        write(doc, 0)
    finally:
        # ``write`` reaches itself through its closure; dropping the name
        # breaks that cycle, so the parts are freed with this call rather
        # than at the next cyclic garbage collection
        del write
    return "".join(parts)


def _plain(value):
    """A value of a type outside ``_LEAVES`` as the container or the leaf of
    an exact type that it holds, taken in the order of ``_jsonable`` and then
    of the stdlib encoder."""
    if isinstance(value, CheckResult):
        return value._fields()
    if isinstance(value, (dict, list, tuple)):
        return value
    if isinstance(value, str):
        return str.__str__(value)
    if hasattr(value, "item") and not isinstance(value, bytes):
        return value.item()
    if isinstance(value, int):
        return int.__int__(value)
    if isinstance(value, float):
        return float.__float__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
