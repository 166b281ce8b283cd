"""Named verification suites over seeded sample grids.

Each suite is one table (``TABLES``) of measurements and the rows they file.
A row is one record family: its name suffix, tolerance, claim and kind.  A
measurement draws its points and generators from its seed and returns
numbers, from the geometry, algebra and homogeneous-space modules, which
measure what they are given and return numbers too, one per sample; only
this module draws seeded randomness, folds samples and judges numbers into
records.  Reports are a pure function of (config, seed): per-check seeds are
derived from the base seed and the check name, assembly is sorted by name,
and wall-clock time never enters the payload.
"""

from __future__ import annotations

import math
import time
import zlib
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import bargmann as bg
from . import homogeneous as hg
from . import numkernel as nk
from .ambient import (
    ChartEscapeError,
    algebra_elements,
    ambient_gram,
    boost_element,
    bracket_fields,
    build_Z0,
    commutant_dim,
    commutant_stack,
    component_witnesses,
    cone_point,
    dilation_element,
    expansion_element,
    flat_gram_matrix,
    group_coefficients,
    group_elements,
    group_inverse,
    projective_action,
    projective_denominator,
    sch_dimension,
    sch_residuals,
    translation_element,
)
from .geometry import gram_jets, jet_components, negative_index
from .numkernel import SeededSampler, max_entry, sample_max
from .report import CheckResult, dump_json, judged, status_of

__all__ = [
    "AUDIT",
    "BARGMANN_AXIOMS",
    "BOUNDARY_STRUCTURE",
    "BULK_SUITES",
    "ConfigError",
    "Measure",
    "Row",
    "RunReport",
    "SUITES",
    "Suite",
    "SuiteConfig",
    "TABLES",
    "TOL",
    "check_seed",
    "emit_report",
    "run_suite",
    "verdicts",
]

BULK_SUITES = {"homogeneous", "axioms", "all"}


class ConfigError(ValueError):
    """Invalid suite configuration (maps to exit code 2)."""


class SuiteConfig(NamedTuple):
    """Which suite to run and over which parameter grid."""

    suite: str
    dims: tuple[int, ...] = (1, 2, 3)
    lams: tuple[float, ...] = (-2.0, -1.0, -0.5, -0.3)
    mus: tuple[float, ...] = (-1.0, 0.0, 1.0, 2.0)
    samples: int = 20
    seed: int = 42
    tol: float = 1e-8
    fmt: str = "text"
    out: str | None = None

    def validate(self) -> None:
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ConfigError("dims must be a nonempty list of integers >= 1")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not all(map(math.isfinite, (*self.lams, *self.mus))):
            raise ConfigError(f"lambda and mu must be finite: {self.lams} {self.mus}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and > 0, got {self.tol}")
        if self.suite in BULK_SUITES and any(lam >= 0 for lam in self.lams):
            raise ConfigError(
                f"bulk suite {self.suite!r} needs every lambda < 0, got {self.lams}"
            )
        if not self.lams or not self.mus:
            raise ConfigError("lambda and mu grids must be nonempty")
        # record names and extra keys print each grid value as {:g}
        for key, values in (("dim", self.dims), ("lambda", self.lams), ("mu", self.mus)):
            forms = [f"{v:g}" for v in values]
            clash = [v for v, form in zip(values, forms) if forms.count(form) > 1]
            if clash:
                raise ConfigError(f"{key} values {clash} print alike in record names")
        if self.fmt not in ("json", "text"):
            raise ConfigError(f"format must be json or text, got {self.fmt!r}")

    def payload(self) -> dict:
        return {
            "suite": self.suite,
            "dims": list(self.dims),
            "lams": list(self.lams),
            "mus": list(self.mus),
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
        }


def check_seed(cfg: SuiteConfig, name: str) -> int:
    """Stable per-check seed from the base seed and the check name."""
    return (cfg.seed * 1000003 + zlib.crc32(name.encode())) % (2**31)


# ---------------------------------------------------------------------------
# the check table: rows, measurements and the one runner

TOL = "tol"


class Row(NamedTuple):
    """One record family, filed as ``{prefix}_d{d}_{suffix}`` under ``claim``.

    ``tol`` is the bound: a number, ``TOL`` for the run's tol, ``None`` for
    no bound, or a function of the run's tol and the measured numbers.  A
    bound must hold at every sample, so its residual is the largest
    per-sample one; a ``control`` must be exceeded at every sample, so its
    residual is the smallest, and it passes iff that exceeds the bound.
    ``holds`` judges the measured numbers beyond the bound; ``expect`` is an
    audit entry's predicted verdict at (lam, mu).
    """

    suffix: str
    tol: object
    claim: str
    control: bool = False
    holds: Callable[[dict], bool] = lambda numbers: True
    expect: Callable[[float, float], bool] = lambda lam, mu: True


class Measure:
    """A measurement and the rows it files.

    ``fn(ctx, seed)`` draws its points from ``seed`` and returns the numbers
    of its one row, or a dict of them keyed by row suffix (``verdicts``
    folds a per-sample residual).  A raising measurement files one ERROR
    record with the suffix and claim of ``group``, by default those of its
    one row.
    """

    def __init__(self, fn, *rows: Row, group: tuple | None = None):
        self.fn, self.rows = fn, rows
        self.group = group or (rows[0].suffix, rows[0].claim)


class Suite(NamedTuple):
    """A suite's table.  ``context(cfg, d)`` holds what its measurements
    share at one d, with the ``conf`` and ``samples`` its records file.  With
    ``shared_seed`` every record seeds from ``{prefix}_d{d}``, else from its
    own name."""

    prefix: str
    context: Callable
    table: tuple
    shared_seed: bool = False


def _context(cfg: SuiteConfig, d: int, samples: int | None, **shared) -> SimpleNamespace:
    """What a table's measurements share at one d; ``conf`` (by default
    {"d": d}) and ``samples`` are filed with its records."""
    return SimpleNamespace(cfg=cfg, d=d, samples=samples, **{"conf": {"d": d}, **shared})


def verdicts(
    rows: tuple[Row, ...],
    measured: dict,
    tol: float = SuiteConfig._field_defaults["tol"],
    prefix: str = "",
    samples: int | None = None,
    **filed,
) -> dict[str, CheckResult]:
    """Each row's record, keyed by its suffix, named ``{prefix}{suffix}``
    and judged at the run's ``tol``.  ``measured[suffix]`` is a residual,
    or a dict of numbers whose "residual" is judged, whose optional "holds"
    flag must hold, and whose other entries are filed as ``extra``.  Every
    record files ``filed`` (its config and seed).

    A residual array holds one value per sample, and an optional "escaped"
    mask marks the samples that left their chart.  The record files the
    count of samples as ``samples``, escapes included, and the count the
    mask removed as ``extra["escapes"]``; the rest fold by the row's kind:
    a bound by its largest sample (NaN if one is NaN), a control by its
    smallest.  A row whose every sample escaped raises ChartEscapeError.
    A residual number files ``samples`` as given.
    """
    out = {}
    for row in rows:
        extra = measured[row.suffix]
        extra = dict(extra) if isinstance(extra, dict) else {"residual": extra}
        residual, flag = extra.pop("residual"), extra.pop("holds", True)
        count = samples
        if type(residual) is not float and np.ndim(residual):
            residual = np.ravel(residual)
            count, escaped = len(residual), extra.pop("escaped", None)
            if escaped is not None:
                residual = residual[~np.ravel(escaped)]
                extra["escapes"] = count - len(residual)
                if not len(residual):
                    raise ChartEscapeError(f"all {count} {row.suffix} samples escaped")
            # one reduction, which keeps NaN: the float max_entry gives
            residual = float(residual.min() if row.control else residual.max())
        bound = row.tol(tol, extra) if callable(row.tol) else row.tol
        out[row.suffix] = judged(
            residual,
            tol if bound == TOL else bound,
            name=prefix + row.suffix,
            claim=row.claim,
            control=row.control,
            holds=flag and row.holds(extra),
            extra=extra,
            samples=count,
            **filed,
        )
    return out


def _file(ctx, base: str, m: Measure, seed: int) -> list[CheckResult]:
    """Run one measurement and file its rows as ``{base}_{suffix}``, each
    with the samples it folded or else the context's.  Any exception
    becomes the one ERROR record of its group: a failing check never aborts
    the run.  An exception that names the coupling it failed at (a
    DegenerateMetricError from ``hg.over_couplings``) files that coupling
    and the sample's index among its points as ``extra``."""
    filed = {"config": ctx.conf, "seed": seed}
    try:
        measured = m.fn(ctx, seed)
        if len(m.rows) == 1:
            measured = {m.rows[0].suffix: measured}
        found = verdicts(m.rows, measured, ctx.cfg.tol, f"{base}_", ctx.samples, **filed)
    except Exception as exc:
        name, claim = m.group
        coupling = getattr(exc, "coupling", None)
        where = {} if coupling is None else {"coupling": list(coupling), "sample": exc.sample}
        error = f"{type(exc).__name__}: {exc}"
        filed.update(samples=ctx.samples, extra=where, error=error)
        return [CheckResult(f"{base}_{name}", "ERROR", claim=claim, **filed)]
    return list(found.values())


def _run(suite: Suite, cfg: SuiteConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    for d in cfg.dims:
        ctx = suite.context(cfg, d)
        base = f"{suite.prefix}_d{d}"
        for m in suite.table:
            seed = check_seed(cfg, base if suite.shared_seed else f"{base}_{m.group[0]}")
            checks += _file(ctx, base, m, seed)
    return checks


def _box_points(seed: int, half: float, n: int, count: int) -> np.ndarray:
    """``count`` seeded points of the box [-half, half]^n, (count, n)."""
    return SeededSampler(seed, [(-half, half)] * n).points(count)


# ---------------------------------------------------------------------------
# bargmann

BARGMANN_AXIOMS = (
    Row("xi_null", 1e-10, "g(xi, xi) = 0"),
    Row("xi_parallel", 1e-10, "nabla xi = 0"),
    Row("clock_closed", 1e-10, "d theta = 0 for theta = g(xi)"),
    Row("xi_divergence_free", 1e-10, "Div xi = 0"),
)


def _bargmann(c, seed):
    """The four axioms and both conformal factors, one along time and one
    along space, off one first-order pass of the flat metric."""
    jets = gram_jets(c.structure.metric, _box_points(seed, 1.2, c.d + 2, c.samples), order=1)
    out = bg.bargmann_axioms_check(c.structure, jets)
    for suffix, axis in (("conformal_clock", c.d), ("conformal_detect", 0)):
        out[suffix] = bg.conformal_equivalence_check(
            lambda x: nk.exp(x[axis]), c.structure, jets
        )
    return out


BARGMANN = Suite(
    "bargmann",
    lambda cfg, d: _context(cfg, d, cfg.samples, structure=bg.flat_bargmann(d)),
    (
        Measure(
            _bargmann,
            *BARGMANN_AXIOMS,
            Row("conformal_clock", 1e-9,
                "time-dependent factor keeps the rescaled structure compatible"),
            Row("conformal_detect", 1e-9, "space-dependent factor is rejected", control=True),
            group=("axioms", "flat structure axioms"),
        ),
    ),
    shared_seed=True,
)


# ---------------------------------------------------------------------------
# schrodinger-eq


def _plane_wave(c, seed):
    d = c.d
    rng = SeededSampler.generator(seed + 1)
    per = max(2, c.samples // 4)
    # one stream of three consecutive blocks, one per wave, measured in one
    # pass: wave i goes with the points of block i
    pts = _box_points(seed, 1.0, d + 2, 3 * per)
    psi = bg.plane_wave(d, np.repeat(rng.normal(size=(3, d)), per, axis=0), c.params)
    r1, r2 = bg.schrodinger_residual(c.structure, psi, c.params, pts)
    return {
        "residual": np.maximum(bg.complex_magnitude(r1), bg.complex_magnitude(r2)),
        "waves": 3,
    }


def _dispersion(c, seed):
    d, params = c.d, c.params
    k = [0.9] * d

    def coeff(x):
        phase = x[d + 1] * (params.mass / params.hbar)
        for i in range(d):
            phase = phase + k[i] * x[i]
        return bg.nk.cos(phase) + 1j * bg.nk.sin(phase)

    psi = bg.DensityFunction(coefficient=coeff, weight=bg.density_weight(d))
    per = max(2, c.samples // 4)
    r1, _ = bg.schrodinger_residual(c.structure, psi, params, _box_points(seed, 1.0, d + 2, per))
    return bg.complex_magnitude(r1)


# the transported symmetries, one row each, in the order their blocks of
# points, waves and elements take in the one transport pass
_ELEMENTS = {
    "translation": lambda d: translation_element(d, [0.3] * d + [0.2, -0.4]),
    "boost": lambda d: boost_element(d, [0.35] * d),
    "dilation": lambda d: dilation_element(d, 0.3),
    "expansion": lambda d: expansion_element(d, 0.25),
}


def _transport(c, seed):
    """The four transports and the weight control as one pass: row i takes
    block i of the points, wave i and its element; the control transports
    the expansion at weight 0, which a constant Jacobian could not see."""
    d = c.d
    per = max(3, c.samples // 4)
    pts = _box_points(seed, 0.8, d + 2, 5 * per)
    waves = 0.8 * SeededSampler.generator(seed + 1).normal(size=(5, d))
    elements = [make(d) for make in _ELEMENTS.values()]
    elements.append(elements[-1])
    weights = [bg.density_weight(d)] * 4 + [0.0]
    res = bg.symmetry_transport_check(
        bg.group_map(np.repeat(np.concatenate(elements), per, axis=0)),
        bg.plane_wave(d, np.repeat(waves, per, axis=0), c.params),
        c.structure,
        c.params,
        pts,
        np.repeat(weights, per),
    )
    residual = np.maximum(res["r1"], res["r2"]).reshape(5, per)
    conformal = res["conformal_residual"].reshape(5, per)
    out = {
        f"transport_{name}": {
            "residual": residual[i], "conformal_residual": max_entry(conformal[i])
        }
        for i, name in enumerate(_ELEMENTS)
    }
    out["weight_control"] = residual[4]
    return out


SCHRODINGER = Suite(
    "schrodinger",
    lambda cfg, d: _context(
        cfg, d, cfg.samples, structure=bg.flat_bargmann(d), params=bg.SchrodingerParams()
    ),
    (
        Measure(_plane_wave, Row("plane_wave", 1e-10,
            "plane waves with the parabolic dispersion solve the covariant pair")),
        Measure(_dispersion, Row("dispersion_control", 0.1,
            "dropping the dispersion relation leaves a visible residual", control=True)),
        Measure(
            _transport,
            *(
                Row(f"transport_{name}", 1e-12, "weighted transport maps solutions to solutions")
                for name in _ELEMENTS
            ),
            Row("weight_control", 1e-3,
                "transport without the density weight breaks the equations", control=True),
            group=("transport", "weighted transport maps solutions to solutions"),
        ),
    ),
)


# ---------------------------------------------------------------------------
# lie-algebra


def _commutant_dim(c, seed):
    expected = sch_dimension(c.d)
    got = len(commutant_stack(c.d))
    lo = commutant_dim(c.d, tol=1e-11)
    hi = commutant_dim(c.d, tol=1e-9)
    stable = lo == got == hi
    return {
        "residual": float(abs(got - expected)),
        "holds": stable,
        "expected": expected,
        "got": got,
        "rank_tol_stable": stable,
    }


def _closure(c, seed):
    # every bracket [B_i, B_j], i < j, in row order, k brackets to a stack:
    # one stack per d would hold k^2/2 brackets' temporaries at once
    stack = commutant_stack(c.d)
    k = len(stack)
    left, right = np.triu_indices(k, 1)
    runs = []
    for at in range(0, len(left), k):
        a, b = stack[left[at : at + k]], stack[right[at : at + k]]
        runs.append(sch_residuals(a @ b - b @ a, c.d))
    found = {key: np.concatenate([r[key] for r in runs]) for key in runs[0]}
    return np.maximum(found["commutator"], found["skew"])


def _realization(c, seed):
    d = c.d
    rng = SeededSampler.generator(seed + 1)
    pts = _box_points(seed, 1.0, d + 2, 3)
    # three pairs in one draw, round by round: elements 2i and 2i + 1 are
    # pair i; then every (pair, point) sample, pair by pair and in point
    # order, in one bracket pass
    drawn = algebra_elements(d, group_coefficients(d, rng, 6))
    first = np.repeat(np.arange(0, 6, 2), len(pts))
    found = bracket_fields(drawn[first], drawn[first + 1], d, np.tile(pts, (3, 1)))["minus"]
    return {"residual": found, "sign": -1}


def _witnesses(c, seed):
    w = component_witnesses(c.d)
    zero = max_entry(
        w.conjugation_residual,
        w.commutator_norms["identity"],
        w.commutator_norms["P"],
        *w.isometry_residuals.values(),
    )
    moved = float(np.min([w.commutator_norms["T"], w.commutator_norms["PT"]]))
    return {
        "residual": zero,
        "holds": moved > 0.1,
        "commutator_norms": dict(w.commutator_norms),
        "commutator_must_exceed": 0.1,
    }


LIE_ALGEBRA = Suite(
    "liealgebra",
    lambda cfg, d: _context(cfg, d, None),
    (
        Measure(_commutant_dim, Row("commutant_dim", 0.5,
            "centralizer dimension matches (d^2 + 3d + 8)/2")),
        Measure(_closure, Row("closure", 1e-12,
            "brackets of basis elements satisfy the algebra's two defining identities")),
        Measure(_realization, Row("realization", 1e-9,
            "field brackets realize the matrix brackets with a sign flip")),
        Measure(_witnesses, Row("witnesses", 1e-12,
            "reflections preserve the vertical generator, time reversal does not")),
    ),
)


# ---------------------------------------------------------------------------
# group
#
# Each check draws its elements as one stack (``group_elements``),
# exponentiated and validated once, and acts on all its (element, point)
# pairs in one ``projective_action`` pass per direction; the pairs that left
# the chart come back NaN, and the check returns them as escaped.


def _pairs(stack, pts: np.ndarray) -> tuple:
    """Every (element, point) pair of an element stack and the points,
    element by element and in point order: a per-sample element stack and
    the points it acts on."""
    return np.repeat(stack, len(pts), axis=0), np.tile(pts, (len(stack), 1))


def _group_context(cfg: SuiteConfig, d: int) -> SimpleNamespace:
    count = max(5, cfg.samples // 2)
    return _context(cfg, d, count, rounds=max(3, count // 3))


def _constraints(c, seed):
    d, count = c.d, c.samples
    rng = SeededSampler.generator(seed)
    G = ambient_gram(d)
    Z0 = build_Z0(d)
    A = group_elements(d, group_coefficients(d, rng, count))
    Ainv = group_inverse(A)
    found = [A.swapaxes(-1, -2) @ G @ A - G, A @ Z0 - Z0 @ A, Ainv @ A - np.eye(d + 4)]
    return np.abs(found).max(axis=(0, 2, 3))


def _projective(c, seed):
    d, count = c.d, c.samples
    rng = SeededSampler.generator(seed + 1)
    pts = _box_points(seed, 1.0, d + 2, 4)
    # round by round: an element's coefficients, then its radii
    draws = [
        (group_coefficients(d, rng, 1)[0], 1.0 + 0.3 * rng.uniform(size=len(pts)))
        for _ in range(count)
    ]
    coeffs, radii = (np.array(a) for a in zip(*draws))
    ge, x = _pairs(group_elements(d, coeffs), pts)
    r = radii.ravel()
    img, r2 = projective_action(ge, list(x.T), r)
    lifted = np.array(cone_point(img, r2)).T
    # one matrix-vector product per sample, rounded as for one point
    moved = (ge @ np.array(cone_point(list(x.T), r)).T[..., None])[..., 0]
    return {"residual": np.abs(lifted - moved).max(axis=1), "escaped": ~np.isfinite(r2)}


def _pullback(c, seed):
    d = c.d
    rng = SeededSampler.generator(seed + 1)
    g0 = flat_gram_matrix(d)
    pts = _box_points(seed, 1.0, d + 2, 4)
    ge, x = _pairs(group_elements(d, group_coefficients(d, rng, c.rounds)), pts)
    den = projective_denominator(ge, x[:, d])
    _, jac = jet_components(lambda y: projective_action(ge, y), x)
    J = jac.real
    pulled = J.swapaxes(-1, -2) @ g0 @ J
    den2 = (den * den)[:, None, None]
    return {
        "residual": np.abs(pulled - g0 / den2).max(axis=(1, 2)),
        # the samples this record measures: |den| >= 0.2, far inside the chart
        "escaped": np.abs(den) < 0.2,
    }


def _inverse(c, seed):
    d = c.d
    rng = SeededSampler.generator(seed + 1)
    pts = _box_points(seed, 1.0, d + 2, 4)
    stack = group_elements(d, group_coefficients(d, rng, c.rounds))
    ge, x = _pairs(stack, pts)
    gi, _ = _pairs(group_inverse(stack), pts)
    img = projective_action(ge, list(x.T))
    back = np.array(projective_action(gi, img)).T
    return {"residual": np.abs(back - x).max(axis=1), "escaped": ~np.isfinite(back).all(axis=1)}


GROUP = Suite(
    "group",
    _group_context,
    (
        Measure(_constraints, Row("constraints", 1e-10,
            "sampled elements preserve the pairing and the vertical generator")),
        Measure(_projective, Row("projective", 1e-10,
            "chart action lifts to the linear action on the null cone")),
        Measure(_pullback, Row("pullback", 1e-9,
            "finite action is conformal with the squared-denominator factor")),
        Measure(_inverse, Row("inverse", 1e-9, "inverse element inverts the chart action")),
    ),
)


# ---------------------------------------------------------------------------
# homogeneous


def _homogeneous_context(cfg: SuiteConfig, d: int) -> SimpleNamespace:
    return _context(
        cfg,
        d,
        max(2, cfg.samples // 4),
        conf={"d": d, "lams": list(cfg.lams), "mus": list(cfg.mus)},
        grid=[(lam, mu) for lam in cfg.lams for mu in cfg.mus],
        first_mu=[(lam, cfg.mus[0]) for lam in cfg.lams],
        undeformed=[(lam, 0.0) for lam in cfg.lams],
    )


def _grid_points(c, seed) -> np.ndarray:
    return SeededSampler(seed, hg.bulk_boxes(c.d)).points(c.samples)


def _over_grid(d: int, couplings: list, pts: np.ndarray, order: int, fn) -> list:
    """``hg.over_couplings`` with every coupling at the shared points ``pts``."""
    return hg.over_couplings(d, couplings, np.tile(pts, (len(couplings), 1)), order, fn)


def _grid(c, seed):
    """The first-order identities of every grid metric, read off one pass:
    the dual path and clock gaps, a 0/1 flag per (coupling, point) that is
    1 where the Gram is not Lorentzian, and the vertical field's worst
    residual."""

    def read(mc, x, _):
        jets = gram_jets(hg.bulk_metric(mc), x, 1)
        gaps = hg.induced_metric(mc, jets)
        res = hg.xi_hat_consistency(mc, jets)
        return {
            "dualpath": gaps["metric"],
            "clock": gaps["clock"],
            "signature": (negative_index(jets.g0) != 1).astype(float),
            "vertical": np.max([res["pushforward"], res["nullity"], res["killing"]], axis=0),
        }

    runs = _over_grid(c.d, c.grid, _grid_points(c, seed), 1, read)
    return {key: np.concatenate([r[key] for r in runs]) for key in runs[0]}


def _einstein(c, seed):
    def residuals(mc, x, part):
        computed, predicted = hg.einstein_residual(mc, gram_jets(hg.bulk_metric(mc), x))
        vanish = np.abs(computed).reshape(len(c.undeformed[part]), -1).max(axis=1)
        return sample_max(computed - predicted), vanish

    runs = _over_grid(c.d, c.undeformed, _grid_points(c, seed), 2, residuals)
    vanish = np.concatenate([v for _, v in runs]).tolist()
    return {
        "residual": np.concatenate([r for r, _ in runs]),
        "holds": all(
            v < c.cfg.tol if abs(lam + 0.5) < 1e-12 else v > 1e-3
            for (lam, _), v in zip(c.undeformed, vanish)
        ),
        "factors": {f"{lam:g}": hg.einstein_factor(c.d, lam) for lam in c.cfg.lams},
    }


def _nullfluid(c, seed):
    def residual(mc, x, _):
        return sample_max(hg.nullfluid_residual(mc, gram_jets(hg.bulk_metric(mc), x)))

    return np.concatenate(_over_grid(c.d, c.grid, _grid_points(c, seed), 2, residual))


def _recovery(c, seed):
    return hg.metric_recovery_residual(c.d, _grid_points(c, seed))


def _isometry(c, seed):
    rng = SeededSampler.generator(seed + 1)
    # each coupling measures the same points, coupling i with element i
    pts = _grid_points(c, seed)
    stack = group_elements(c.d, group_coefficients(c.d, rng, 2))
    found = [
        hg.isometry_check(hg.SchrodingerManifoldConfig(c.d, lam, mu), stack[i], pts)
        for i, (lam, mu) in enumerate(((-0.5, 1.0), (-1.0, 2.0)))
    ]
    return {
        "residual": np.concatenate(
            [np.maximum(r["metric_residual"], r["quadric_residual"]) for r in found]
        ),
        "escaped": np.concatenate([r["escaped"] for r in found]),
    }


def _isometry_control(c, seed):
    mc = hg.SchrodingerManifoldConfig(c.d, -0.5, 1.0)
    res = hg.isometry_check(mc, hg.null_plane_boost(c.d, 1.7), _grid_points(c, seed))
    return {"residual": res["metric_residual"], "escaped": res["escaped"]}


def _isotropy(c, seed):
    mc = hg.SchrodingerManifoldConfig(c.d, -0.5, 1.0)
    res = hg.isotropy_check(mc, SeededSampler.generator(seed), 4)
    return {
        "residual": np.maximum(res["bulk_fix_residual"], res["boundary_fix_residual"]),
        "holds": (
            res["bulk_isotropy_dim"] == res["bulk_isotropy_expected"]
            and res["boundary_isotropy_dim"] == res["boundary_isotropy_expected"]
            and res["bulk_space_dim"] == c.d + 3
            and res["boundary_space_dim"] == c.d + 2
        ),
        "bulk_dim": res["bulk_isotropy_dim"],
        "boundary_dim": res["boundary_isotropy_dim"],
    }


def _integrability(c, seed):
    def residual(mc, x, _):
        return hg.integrability_residual(mc, gram_jets(hg.bulk_metric(mc), x, 1))

    return np.concatenate(_over_grid(c.d, c.first_mu, _grid_points(c, seed), 1, residual))


HOMOGENEOUS = Suite(
    "homogeneous",
    _homogeneous_context,
    (
        Measure(
            _grid,
            Row("dualpath", 1e-12,
                "ambient pullback less mu clock^2 equals the chart Gram matrix on the whole grid"),
            Row("clock", 1e-12, "ambient clock row equals the chart clock row on the whole grid"),
            Row("signature", 0.5, "every grid metric is Lorentzian"),
            Row("vertical", 1e-10,
                "the vertical field matches its ambient image, is null and Killing"),
            group=("grid", "first-order identities of the grid metrics"),
        ),
        Measure(_einstein, Row("einstein", TOL,
            "undeformed metric is Einstein exactly at the critical level")),
        Measure(_nullfluid, Row("nullfluid", TOL,
            "deformed metrics satisfy the sourced Einstein identity on the grid")),
        Measure(_recovery, Row("recovery", 1e-12,
            "the critical normalized metric matches its closed chart form")),
        Measure(_isometry, Row("isometry", TOL,
            "group elements act by isometries at (lambda, mu) = (-1/2, 1) and (-1, 2)")),
        Measure(_isometry_control, Row("isometry_control", 1e-3,
            "an ambient isometry that moves the clock fails the deformed metric", control=True)),
        Measure(_isotropy, Row("isotropy", 1e-10,
            "stabilizer dimensions give a (d+3)-dim bulk and (d+2)-dim boundary")),
        Measure(_integrability, Row("integrability", 1e-12,
            "the bulk clock satisfies the Frobenius condition")),
    ),
)


# ---------------------------------------------------------------------------
# boundary

BOUNDARY_STRUCTURE = (
    Row("scale_invariance", 1e-12, "quotient value independent of the representative scale"),
    Row("clock_closed", 1e-9, "d(clock) = 0 on the boundary"),
    Row("xi_parallel", TOL, "nabla xi = 0 for the quotient metric"),
    Row("xi_null", TOL, "g(xi, xi) = 0"),
    Row("xi_matches_ambient", 1e-12, "Z0 X equals the push-forward of d/ds"),
    Row("conformal_to_flat", 1e-9, "quotient metric proportional to the flat Gram"),
    Row("factor_time_only", 1e-12, "conformal factor constant at fixed t"),
    Row("cone_kernel", TOL, "cone form degenerates exactly along the ray direction",
        holds=lambda m: m["kernel_dims"] == [1]),
    Row("factor_varies_with_t", 1e-3, "conformal factor genuinely depends on t", control=True),
)


def _boundary(c, seed):
    pts = _box_points(seed, 1.2, c.d + 2, c.samples)
    return hg.boundary_structure(c.d, pts, SeededSampler.generator(seed + 1))


BOUNDARY = Suite(
    "boundary",
    lambda cfg, d: _context(cfg, d, cfg.samples),
    (Measure(_boundary, *BOUNDARY_STRUCTURE, group=("structure", "boundary structure")),),
    shared_seed=True,
)


# ---------------------------------------------------------------------------
# axioms: one record per (d, lambda, mu), judged against the theory


def _critical(lam: float, mu: float) -> bool:
    return abs(lam + 0.5) < 1e-12


def _decays(m: dict) -> bool:
    # the gap shrinks 100-fold as rh does 10-fold: rate rh^2
    return 80.0 <= m["decay_ratio"] <= 120.0


AUDIT = (
    Row("axiom1_vertical_extension", TOL,
        "null Killing vertical field extends to the boundary vertical", holds=_decays),
    Row("axiom2_inverse_metric", None,
        "inverse metric approaches the squared vertical with weight 1",
        holds=lambda m: _decays(m) and m["normalized"],
        expect=lambda lam, mu: abs(mu - 1.0) < 1e-12),
    # a few ulps: the audit files the difference relative to the largest
    # entry compared
    Row("axiom3_deformation_identity", 16.0 * np.finfo(float).eps,
        "metric plus mu clock^2 equals the undeformed metric"),
    Row("axiom3_einstein", TOL, "undeformed metric satisfies Ric = -(d+2) g", expect=_critical),
    Row("axiom3_conformal_infinity", lambda tol, m: max(tol, 10.0 * m["rh"] * m["rh"]),
        "rescaled metric induces the flat structure at the boundary", expect=_critical),
    Row("defining_function", TOL, "rh is a defining function with |d rh|^2 = -1/(2 lam)"),
)


def _audit_points(d: int, samples: int, seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The axiom audit's inputs for one coupling per seed, stacked in seed
    order: its bulk points, and the transverse points it moves toward the
    boundary, drawn from the seed + 1 stream."""
    pts = [SeededSampler(s, hg.bulk_boxes(d)).points(samples) for s in seeds]
    transverse = [_box_points(s + 1, 1.2, d + 2, samples) for s in seeds]
    return np.concatenate(pts), np.concatenate(transverse)


def _coupling(c, seed):
    """The verdict on one coupling's audit: its expected entries pass, and
    every status is the one the theory predicts."""
    # no numbers: the d's stacked call raised, and this coupling reruns alone
    numbers = c.numbers or hg.schrodinger_axiom_audit(
        [hg.SchrodingerManifoldConfig(c.d, c.lam, c.mu)], *_audit_points(c.d, c.samples, [seed])
    )[0]
    found = verdicts(AUDIT, numbers, c.cfg.tol)
    expected = {row.suffix: row.expect(c.lam, c.mu) for row in AUDIT}
    statuses = {name: v.status for name, v in found.items()}
    bounded = [v.residual for k, v in found.items() if v.tolerance is not None and expected[k]]
    return {
        "residual": max_entry(*bounded),
        "holds": all(statuses[k] == status_of(v) for k, v in expected.items()),
        "audit": statuses,
        "expected": {k: status_of(v) for k, v in expected.items()},
        "full_pass": all(s == "PASS" for s in statuses.values()),
        "expected_full": all(expected.values()),
        "predicted_factor": hg.einstein_factor(c.d, c.lam),
    }


def _run_axioms(suite: Suite, cfg: SuiteConfig) -> list[CheckResult]:
    """The runner of the axioms table, whose one row is filed once per
    (lambda, mu), its suffix formatted from them.  A d's couplings are
    one audit call, which budgets its own jet passes.  When that call
    raises, each coupling reruns alone, so only a failing coupling files
    ERROR."""
    checks: list[CheckResult] = []
    (measure,) = suite.table
    (row,) = measure.rows
    grid = [(lam, mu) for lam in cfg.lams for mu in cfg.mus]
    for d in cfg.dims:
        shared = suite.context(cfg, d)
        base = f"{suite.prefix}_d{d}"
        rows = [row._replace(suffix=row.suffix.format(lam=lam, mu=mu)) for lam, mu in grid]
        seeds = [check_seed(cfg, f"{base}_{r.suffix}") for r in rows]
        try:
            audits = hg.schrodinger_axiom_audit(
                [hg.SchrodingerManifoldConfig(d, lam, mu) for lam, mu in grid],
                *_audit_points(d, shared.samples, seeds),
            )
        except Exception:
            audits = [None] * len(grid)
        for (lam, mu), r, seed, numbers in zip(grid, rows, seeds, audits):
            conf = {"d": d, "lam": lam, "mu": mu}
            ctx = _context(cfg, d, shared.samples, conf=conf, lam=lam, mu=mu, numbers=numbers)
            checks += _file(ctx, base, Measure(measure.fn, r), seed)
    return checks


AXIOMS = Suite(
    "axioms",
    lambda cfg, d: _context(cfg, d, max(4, cfg.samples // 4)),
    (
        Measure(_coupling, Row("lam{lam:g}_mu{mu:g}", TOL,
            "audit outcome matches the theory for this (lambda, mu)")),
    ),
)


# ---------------------------------------------------------------------------
# dispatch and reporting

TABLES = {
    "bargmann": BARGMANN,
    "schrodinger-eq": SCHRODINGER,
    "lie-algebra": LIE_ALGEBRA,
    "group": GROUP,
    "homogeneous": HOMOGENEOUS,
    "boundary": BOUNDARY,
    "axioms": AXIOMS,
}
# "all" runs every table, in this order
SUITES = (*TABLES, "all")


class RunReport(NamedTuple):
    config: dict
    checks: list[CheckResult]
    wall_time: float = 0.0

    @property
    def summary(self) -> dict:
        counts = {"PASS": 0, "FAIL": 0, "ERROR": 0}
        for c in self.checks:
            counts[c.status] += 1
        counts["total"] = len(self.checks)
        return counts

    def all_passed(self) -> bool:
        return all(c.status == "PASS" for c in self.checks)


def run_suite(cfg: SuiteConfig) -> RunReport:
    """Execute the named suite; checks come back sorted by name."""
    cfg.validate()
    start = time.perf_counter()
    checks: list[CheckResult] = []
    for suite in TABLES if cfg.suite == "all" else (cfg.suite,):
        run = _run_axioms if suite == "axioms" else _run
        checks.extend(run(TABLES[suite], cfg))
    checks.sort(key=lambda c: c.name)
    return RunReport(
        config=cfg.payload(), checks=checks, wall_time=time.perf_counter() - start
    )


def emit_report(report: RunReport, fmt: str) -> str:
    """Serialize a run; wall-clock is deliberately excluded so equal
    (config, seed) runs emit identical bytes."""
    if fmt == "json":
        doc = {
            "version": "1",
            "config": report.config,
            "checks": report.checks,
            "summary": report.summary,
        }
        return dump_json(doc) + "\n"
    if fmt != "text":
        raise ConfigError(f"format must be json or text, got {fmt!r}")
    lines = []
    for c in report.checks:
        bits = [c.status, c.name]
        if c.residual is not None:
            bits.append(f"residual={c.residual:.3e}")
        if c.tolerance is not None:
            bits.append(f"tol={c.tolerance:.1e}")
        if c.error:
            bits.append(f"error={c.error}")
        lines.append("  ".join(bits))
    s = report.summary
    lines.append(
        f"summary: {s['PASS']} passed, {s['FAIL']} failed, "
        f"{s['ERROR']} errored, {s['total']} total"
    )
    return "\n".join(lines) + "\n"
