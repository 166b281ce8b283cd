"""Check records and the one status rule shared by the suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["CheckResult", "judged", "status_of"]

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


@dataclass
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
    residual: float | None = None
    tolerance: float | None = None
    claim: str = ""
    config: dict = field(default_factory=dict)
    samples: int | None = None
    seed: int | None = None
    extra: dict = field(default_factory=dict)
    error: str | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "status": self.status, "claim": self.claim}
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        if self.config:
            out["config"] = _jsonable(self.config)
        if self.samples is not None:
            out["samples"] = int(self.samples)
        if self.seed is not None:
            out["seed"] = int(self.seed)
        if self.extra:
            out["extra"] = _jsonable(self.extra)
        if self.error is not None:
            out["error"] = self.error
        return out


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
) -> CheckResult:
    """A record whose status follows the one rule.

    A bound passes iff ``residual < tolerance`` (a ``None`` tolerance sets
    no bound) and ``holds``, the check's own extra condition.  A control
    passes iff ``residual > tolerance``; it records that as
    ``extra["must_exceed"] = tolerance``.  Over samples, the runner folds a
    bound's residual to its largest sample and a control's to its smallest,
    so each kind must hold at every sample; it files the record under its
    own name, seed, config and sample count.
    """
    extra = dict(extra or {})
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
    )
