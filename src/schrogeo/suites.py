"""Named verification suites over seeded sample grids.

Each suite builds an ordered list of check records from the geometry,
algebra, and homogeneous-space modules.  Reports are a pure function of
(config, seed): per-check seeds are derived from the base seed and the
check name, assembly is sorted by name, and wall-clock time never enters
the payload.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import bargmann as bg
from . import homogeneous as hg
from . import numkernel as nk
from .ambient import (
    CHART_GUARD,
    ChartEscapeError,
    ambient_gram,
    bracket_fields,
    build_Z0,
    commutant_stack,
    component_witnesses,
    cone_point,
    flat_metric,
    group_inverse,
    projective_action,
    random_algebra_element,
    random_group_element,
    require_sch,
    sch_dimension,
    sch_residuals,
)
from .geometry import gram_values, jet_components
from .numkernel import SeededSampler
from .report import CheckResult, judged, status_of

__all__ = [
    "BULK_SUITES",
    "ConfigError",
    "RunReport",
    "SUITES",
    "SuiteConfig",
    "check_seed",
    "emit_report",
    "run_suite",
]

SUITES = (
    "bargmann",
    "schrodinger-eq",
    "lie-algebra",
    "group",
    "homogeneous",
    "boundary",
    "axioms",
    "all",
)
BULK_SUITES = {"homogeneous", "axioms", "all"}


class ConfigError(ValueError):
    """Invalid suite configuration (maps to exit code 2)."""


@dataclass
class SuiteConfig:
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
        if self.suite in BULK_SUITES and any(lam >= 0 for lam in self.lams):
            raise ConfigError(
                f"bulk suite {self.suite!r} needs every lambda < 0, got {self.lams}"
            )
        if not self.lams or not self.mus:
            raise ConfigError("lambda and mu grids must be nonempty")
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


def _check(
    checks: list[CheckResult],
    cfg: SuiteConfig,
    name: str,
    claim: str,
    conf: dict,
    samples: int | None = None,
    base: str | None = None,
):
    """Decorator that runs ``body(seed)`` at once and files what it returns.

    The seed derives from ``base`` (default ``name``).  The body returns one
    ``judged`` record, filed as ``name`` with ``claim``, or a list of
    sub-records, each filed as ``{base}_{sub}`` under its own claim.  Any
    exception becomes the one ERROR record ``name``: a failing check never
    aborts the run.
    """

    def run(body):
        seed = check_seed(cfg, base or name)
        filed = {"config": conf, "seed": seed, "samples": samples}
        try:
            out = body(seed)
        except Exception as exc:
            checks.append(
                CheckResult(
                    name=name,
                    status="ERROR",
                    claim=claim,
                    error=f"{type(exc).__name__}: {exc}",
                    **filed,
                )
            )
        else:
            if isinstance(out, list):
                checks.extend(replace(c, name=f"{base}_{c.name}", **filed) for c in out)
            else:
                checks.append(replace(out, name=name, claim=claim, **filed))

    return run


def _on_chart(ge, t: np.ndarray) -> np.ndarray:
    """Samples whose projective denominator e - a t clears the guard of
    ``projective_action``."""
    return np.abs(ge.blocks.e - ge.blocks.a * t) > CHART_GUARD


# ---------------------------------------------------------------------------
# bargmann


def _suite_bargmann(cfg: SuiteConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    for d in cfg.dims:
        base = f"bargmann_d{d}"
        check = partial(
            _check, checks, cfg, conf={"d": d}, samples=cfg.samples, base=base
        )
        structure = bg.flat_bargmann(d)

        @check(f"{base}_axioms", "flat structure axioms")
        def axioms(seed):
            return bg.bargmann_axioms_check(
                structure, samples=cfg.samples, seed=seed, tol=1e-10
            )

        @check(
            f"{base}_conformal_clock",
            "time-dependent factor keeps the rescaled structure compatible",
        )
        def clock(seed):
            _, worst = bg.conformal_equivalence_check(
                lambda x: nk.exp(x[d]), structure, samples=cfg.samples, seed=seed
            )
            return judged(worst, 1e-9)

        @check(f"{base}_conformal_detect", "space-dependent factor is rejected")
        def detect(seed):
            _, worst = bg.conformal_equivalence_check(
                lambda x: nk.exp(x[0]), structure, samples=cfg.samples, seed=seed
            )
            return judged(worst, 1e-9, control=True)

    return checks


# ---------------------------------------------------------------------------
# schrodinger-eq


def _suite_schrodinger(cfg: SuiteConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    params = bg.SchrodingerParams()
    for d in cfg.dims:
        base = f"schrodinger_d{d}"
        check = partial(_check, checks, cfg, conf={"d": d}, samples=cfg.samples)
        structure = bg.flat_bargmann(d)

        @check(
            f"{base}_plane_wave",
            "plane waves with the parabolic dispersion solve the covariant pair",
        )
        def plane_wave(seed):
            rng = np.random.default_rng(seed)
            sampler = SeededSampler(seed, [(-1.0, 1.0)] * (d + 2))
            per = max(2, cfg.samples // 4)
            worst = 0.0
            for _ in range(3):
                psi = bg.plane_wave(d, rng.normal(size=d), params)
                r1, r2 = bg.schrodinger_residual(
                    structure, psi, params, sampler.points(per)
                )
                worst = max(
                    worst,
                    float(bg.complex_magnitude(r1).max()),
                    float(bg.complex_magnitude(r2).max()),
                )
            return judged(worst, 1e-10, extra={"waves": 3, "evaluations": 3 * per})

        @check(
            f"{base}_dispersion_control",
            "dropping the dispersion relation leaves a visible residual",
        )
        def dispersion(seed):
            sampler = SeededSampler(seed, [(-1.0, 1.0)] * (d + 2))
            k = [0.9] * d

            def coeff(x):
                phase = x[d + 1] * (params.mass / params.hbar)
                for i in range(d):
                    phase = phase + k[i] * x[i]
                return bg.nk.cos(phase) + 1j * bg.nk.sin(phase)

            psi = bg.DensityFunction(
                coefficient=coeff, weight=bg.density_weight(d), d=d
            )
            per = max(2, cfg.samples // 4)
            r1, _ = bg.schrodinger_residual(structure, psi, params, sampler.points(per))
            lowest = float(bg.complex_magnitude(r1).min())
            return judged(lowest, 0.1, control=True, extra={"evaluations": per})

        def transport(seed, transform, weight=None):
            rng = np.random.default_rng(seed)
            psi = bg.plane_wave(d, 0.8 * rng.normal(size=d), params)
            per = max(3, cfg.samples // 4)
            res = bg.symmetry_transport_check(
                transform,
                psi,
                structure,
                params,
                samples=per,
                seed=seed,
                weight=weight,
                box=0.8,
            )
            return max(res["r1"], res["r2"]), res, per

        maps = {
            "translation": lambda: bg.translation_map(d, [0.3] * d + [0.2, -0.4]),
            "boost": lambda: bg.boost_map(d, [0.35] * d),
            "dilation": lambda: bg.dilation_map(d, 0.3),
            "expansion": lambda: bg.expansion_map_projective(d, 0.25),
        }
        for mname, maker in maps.items():

            @check(
                f"{base}_transport_{mname}",
                "weighted transport maps solutions to solutions",
            )
            def transported(seed):
                worst, res, per = transport(seed, maker())
                return judged(
                    worst,
                    1e-7,
                    extra={
                        "conformal_residual": res["conformal_residual"],
                        "evaluations": per,
                    },
                )

        @check(
            f"{base}_weight_control",
            "transport without the density weight breaks the equations",
        )
        def weight_control(seed):
            expansion = bg.expansion_map_projective(d, 0.25)
            worst, _, per = transport(seed, expansion, weight=0.0)
            return judged(worst, 1e-3, control=True, extra={"evaluations": per})

    return checks


# ---------------------------------------------------------------------------
# lie-algebra


def _suite_lie_algebra(cfg: SuiteConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    for d in cfg.dims:
        base = f"liealgebra_d{d}"
        check = partial(_check, checks, cfg, conf={"d": d})

        @check(
            f"{base}_commutant_dim",
            "centralizer dimension matches (d^2 + 3d + 8)/2",
        )
        def commutant_dim(seed):
            expected = sch_dimension(d)
            got = len(commutant_stack(d))
            lo = len(commutant_stack(d, tol=1e-11))
            hi = len(commutant_stack(d, tol=1e-9))
            stable = lo == got == hi
            return judged(
                float(abs(got - expected)),
                0.5,
                holds=stable,
                extra={"expected": expected, "got": got, "rank_tol_stable": stable},
            )

        @check(
            f"{base}_closure",
            "brackets of basis elements decompose inside the algebra",
        )
        def closure(seed):
            # row i holds every bracket [B_i, B_j], j > i, as one stack
            stack = commutant_stack(d)
            worst = dict.fromkeys(("commutator", "skew", "block", "vertical"), 0.0)
            for i in range(len(stack) - 1):
                rest = stack[i + 1 :]
                res = sch_residuals(stack[i] @ rest - rest @ stack[i], d)
                for key in worst:
                    worst[key] = max(worst[key], float(res[key].max()))
            residual = max(worst["commutator"], worst["skew"])
            if residual < 1e-10:
                # a bracket inside the algebra must also decompose
                require_sch(worst)
            k = len(stack)
            return judged(residual, 1e-10, extra={"evaluations": k * (k - 1) // 2})

        @check(
            f"{base}_realization",
            "field brackets realize the matrix brackets with a sign flip",
        )
        def realization(seed):
            rng = np.random.default_rng(seed)
            sampler = SeededSampler(seed, [(-1.0, 1.0)] * (d + 2))
            pts = sampler.points(3)
            worst = 0.0
            for _ in range(3):
                e1 = random_algebra_element(d, rng)
                e2 = random_algebra_element(d, rng)
                worst = max(worst, bracket_fields(e1, e2, d, pts)["minus"])
            return judged(worst, 1e-9, extra={"sign": -1, "evaluations": 3 * len(pts)})

        @check(
            f"{base}_witnesses",
            "reflections preserve the vertical generator, time reversal does not",
        )
        def witnesses(seed):
            w = component_witnesses(d)
            zero = max(
                w.conjugation_residual,
                w.commutator_norms["identity"],
                w.commutator_norms["P"],
                max(w.isometry_residuals.values()),
            )
            moved = min(w.commutator_norms["T"], w.commutator_norms["PT"])
            return judged(
                zero,
                1e-12,
                holds=moved > 0.1,
                extra={
                    "commutator_norms": dict(w.commutator_norms),
                    "commutator_must_exceed": 0.1,
                },
            )

    return checks


# ---------------------------------------------------------------------------
# group


def _suite_group(cfg: SuiteConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    for d in cfg.dims:
        base = f"group_d{d}"
        count = max(5, cfg.samples // 2)
        check = partial(_check, checks, cfg, conf={"d": d}, samples=count)

        @check(
            f"{base}_constraints",
            "sampled elements preserve the pairing and the vertical generator",
        )
        def constraints(seed):
            rng = np.random.default_rng(seed)
            G = ambient_gram(d)
            Z0 = build_Z0(d).matrix
            eye = np.eye(d + 4)
            worst = 0.0
            for _ in range(count):
                ge = random_group_element(d, rng)
                A = ge.matrix
                worst = max(
                    worst,
                    float(np.abs(A.T @ G @ A - G).max()),
                    float(np.abs(A @ Z0 - Z0 @ A).max()),
                    float(np.abs(group_inverse(ge).matrix @ A - eye).max()),
                )
            return judged(worst, 1e-10, extra={"elements": count})

        @check(
            f"{base}_projective",
            "chart action lifts to the linear action on the null cone",
        )
        def projective(seed):
            rng = np.random.default_rng(seed)
            sampler = SeededSampler(seed, [(-1.0, 1.0)] * (d + 2))
            pts = sampler.points(4)
            worst = 0.0
            used = 0
            for _ in range(count):
                ge = random_group_element(d, rng)
                r = 1.0 + 0.3 * rng.uniform(size=len(pts))
                keep = _on_chart(ge, pts[:, d])
                if not keep.any():
                    continue
                x, r = list(pts[keep].T), r[keep]
                img, r2 = projective_action(ge, x, r)
                lifted = np.array(cone_point(img, r2)).T
                # one matrix-vector product per sample, rounded as for one point
                moved = (ge.matrix @ np.array(cone_point(x, r)).T[..., None])[..., 0]
                worst = max(worst, float(np.abs(lifted - moved).max()))
                used += len(r)
            if used == 0:
                raise ChartEscapeError("all projective samples escaped")
            return judged(
                worst,
                1e-10,
                extra={"evaluations": used, "escapes": count * len(pts) - used},
            )

        @check(
            f"{base}_pullback",
            "finite action is conformal with the squared-denominator factor",
        )
        def pullback(seed):
            rng = np.random.default_rng(seed)
            metric = flat_metric(d)
            g0 = gram_values(metric, [0.0] * (d + 2))
            sampler = SeededSampler(seed, [(-1.0, 1.0)] * (d + 2))
            pts = sampler.points(4)
            worst = 0.0
            used = 0
            for _ in range(max(3, count // 3)):
                ge = random_group_element(d, rng)
                den = ge.blocks.e - ge.blocks.a * pts[:, d]
                # |den| >= 0.2 keeps every kept sample clear of the chart guard
                keep = np.abs(den) >= 0.2
                if not keep.any():
                    continue
                _, jac, _ = jet_components(
                    lambda x, ge=ge: projective_action(ge, x), pts[keep]
                )
                used += int(keep.sum())
                J = jac.real
                pulled = J.swapaxes(-1, -2) @ g0 @ J
                den2 = (den[keep] * den[keep])[:, None, None]
                worst = max(worst, float(np.abs(pulled - g0 / den2).max()))
            if used == 0:
                raise ChartEscapeError("all pullback samples escaped")
            return judged(worst, 1e-9, extra={"evaluations": used})

        @check(f"{base}_inverse", "inverse element inverts the chart action")
        def inverse(seed):
            rng = np.random.default_rng(seed)
            sampler = SeededSampler(seed, [(-1.0, 1.0)] * (d + 2))
            pts = sampler.points(4)
            rounds = max(3, count // 3)
            worst = 0.0
            used = 0
            for _ in range(rounds):
                ge = random_group_element(d, rng)
                gi = group_inverse(ge)
                x = pts[_on_chart(ge, pts[:, d])]
                if not len(x):
                    continue
                img = np.array(projective_action(ge, list(x.T)))
                keep = _on_chart(gi, img[d])
                if not keep.any():
                    continue
                back = np.array(projective_action(gi, list(img[:, keep])))
                worst = max(worst, float(np.abs(back.T - x[keep]).max()))
                used += int(keep.sum())
            if used == 0:
                raise ChartEscapeError("all inverse samples escaped")
            return judged(
                worst,
                1e-9,
                extra={"evaluations": used, "escapes": rounds * len(pts) - used},
            )

    return checks


# ---------------------------------------------------------------------------
# homogeneous


def _suite_homogeneous(cfg: SuiteConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    for d in cfg.dims:
        base = f"homogeneous_d{d}"
        per = max(2, cfg.samples // 4)
        conf = {"d": d, "lams": list(cfg.lams), "mus": list(cfg.mus)}
        check = partial(_check, checks, cfg, conf=conf, samples=per)

        def grid_points(seed):
            return SeededSampler(seed, hg.bulk_boxes(d)).points(per)

        @check(
            f"{base}_dualpath",
            "ambient pullback equals the chart Gram on the whole grid",
        )
        def dualpath(seed):
            worst = 0.0
            pts = grid_points(seed)
            rng = np.random.default_rng(seed)
            for lam in cfg.lams:
                for mu in cfg.mus:
                    mc = hg.SchrodingerManifoldConfig(d, lam, mu)
                    # the same stream as a (v1, v2) draw per point in turn
                    v = rng.normal(size=(len(pts), 2, d + 3))
                    res = hg.induced_metric(mc, pts, v[:, 0], v[:, 1])
                    worst = max(worst, float(res["difference"].max()))
            return judged(worst, 1e-10)

        @check(f"{base}_clock", "ambient clock equals the chart clock")
        def clock(seed):
            worst = 0.0
            pts = grid_points(seed)
            rng = np.random.default_rng(seed)
            for lam in cfg.lams:
                mc = hg.SchrodingerManifoldConfig(d, lam, cfg.mus[0])
                res = hg.theta_hat(mc, pts, rng.normal(size=(len(pts), d + 3)))
                worst = max(worst, float(res["difference"].max()))
            return judged(worst, 1e-10)

        @check(f"{base}_signature", "every grid metric is Lorentzian")
        def signature(seed):
            pts = grid_points(seed)
            bad = 0
            for lam in cfg.lams:
                for mu in cfg.mus:
                    mc = hg.SchrodingerManifoldConfig(d, lam, mu)
                    bad += int((hg.negative_eigenvalue_count(mc, pts) != 1).sum())
            return judged(float(bad), 0.5)

        @check(
            f"{base}_vertical",
            "the vertical field matches its ambient image, is null and Killing",
        )
        def vertical(seed):
            worst = 0.0
            pts = grid_points(seed)
            for lam in cfg.lams:
                for mu in cfg.mus:
                    mc = hg.SchrodingerManifoldConfig(d, lam, mu)
                    res = hg.xi_hat_consistency(mc, pts)
                    for key in ("pushforward", "nullity", "killing"):
                        worst = max(worst, float(res[key].max()))
            return judged(worst, 1e-10)

        @check(
            f"{base}_einstein",
            "undeformed metric is Einstein exactly at the critical level",
        )
        def einstein(seed):
            pts = grid_points(seed)
            identity = 0.0
            ok = True
            factors = {}
            for lam in cfg.lams:
                mc = hg.SchrodingerManifoldConfig(d, lam, 0.0)
                is_einstein = abs(lam + 0.5) < 1e-12
                computed, predicted = hg.einstein_residual(mc, pts)
                identity = max(identity, float(np.abs(computed - predicted).max()))
                vanish = float(np.abs(computed).max())
                factors[f"{lam:g}"] = (d + 2.0) * (1.0 + 2.0 * lam) / (2.0 * lam)
                if is_einstein:
                    ok = ok and vanish < cfg.tol
                else:
                    ok = ok and vanish > 1e-3
            return judged(identity, cfg.tol, holds=ok, extra={"factors": factors})

        @check(
            f"{base}_nullfluid",
            "deformed metrics satisfy the sourced Einstein identity on the grid",
        )
        def nullfluid(seed):
            pts = grid_points(seed)
            worst = 0.0
            for lam in cfg.lams:
                for mu in cfg.mus:
                    mc = hg.SchrodingerManifoldConfig(d, lam, mu)
                    res, _ = hg.nullfluid_residual(mc, pts)
                    worst = max(worst, float(np.abs(res).max()))
            return judged(worst, cfg.tol)

        @check(
            f"{base}_recovery",
            "the critical normalized metric matches its closed chart form",
        )
        def recovery(seed):
            worst = float(hg.metric_recovery_residual(d, grid_points(seed)).max())
            return judged(worst, 1e-12)

        @check(
            f"{base}_isometry",
            "group elements act by isometries at (lambda, mu) = (-1/2, 1) and (-1, 2)",
        )
        def isometry(seed):
            rng = np.random.default_rng(seed)
            worst = 0.0
            for lam, mu in ((-0.5, 1.0), (-1.0, 2.0)):
                mc = hg.SchrodingerManifoldConfig(d, lam, mu)
                ge = random_group_element(d, rng)
                res = hg.isometry_check(mc, ge, samples=per, seed=seed, tol=cfg.tol)
                worst = max(worst, res["metric_residual"], res["quadric_residual"])
            return judged(worst, cfg.tol)

        @check(
            f"{base}_isometry_control",
            "an ambient isometry that moves the clock fails the deformed metric",
        )
        def isometry_control(seed):
            mc = hg.SchrodingerManifoldConfig(d, -0.5, 1.0)
            res = hg.isometry_check(
                mc, hg.null_plane_boost(d, 1.7), samples=per, seed=seed
            )
            return judged(res["metric_residual"], 1e-3, control=True)

        @check(
            f"{base}_isotropy",
            "stabilizer dimensions give a (d+3)-dim bulk and (d+2)-dim boundary",
            samples=4,
        )
        def isotropy(seed):
            res = hg.isotropy_check(
                hg.SchrodingerManifoldConfig(d, -0.5, 1.0), samples=4, seed=seed
            )
            return judged(
                max(res["bulk_fix_residual"], res["boundary_fix_residual"]),
                1e-10,
                holds=(
                    res["bulk_isotropy_dim"] == res["bulk_isotropy_expected"]
                    and res["boundary_isotropy_dim"]
                    == res["boundary_isotropy_expected"]
                    and res["bulk_space_dim"] == d + 3
                    and res["boundary_space_dim"] == d + 2
                ),
                extra={
                    "bulk_dim": res["bulk_isotropy_dim"],
                    "boundary_dim": res["boundary_isotropy_dim"],
                },
            )

        @check(
            f"{base}_integrability",
            "the bulk clock satisfies the Frobenius condition",
        )
        def integrability(seed):
            pts = grid_points(seed)
            worst = 0.0
            for lam in cfg.lams:
                mc = hg.SchrodingerManifoldConfig(d, lam, cfg.mus[0])
                worst = max(worst, float(hg.integrability_residual(mc, pts).max()))
            return judged(worst, 1e-12)

    return checks


# ---------------------------------------------------------------------------
# boundary


def _suite_boundary(cfg: SuiteConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    for d in cfg.dims:
        base = f"boundary_d{d}"

        @_check(
            checks,
            cfg,
            f"{base}_structure",
            "boundary structure",
            {"d": d},
            cfg.samples,
            base=base,
        )
        def structure(seed):
            return hg.boundary_structure(d, samples=cfg.samples, seed=seed, tol=cfg.tol)

    return checks


# ---------------------------------------------------------------------------
# axioms (expectation-aware over the grid)


def _axiom_expectations(lam: float, mu: float) -> dict[str, bool]:
    critical = abs(lam + 0.5) < 1e-12
    return {
        "axiom1_vertical_extension": True,
        "axiom2_inverse_metric": abs(mu - 1.0) < 1e-12,
        "axiom3_deformation_identity": True,
        "axiom3_einstein": critical,
        "axiom3_conformal_infinity": critical,
        "defining_function": True,
    }


def _suite_axioms(cfg: SuiteConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    samples = max(4, cfg.samples // 4)
    for d in cfg.dims:
        for lam in cfg.lams:
            for mu in cfg.mus:
                name = f"axioms_d{d}_lam{lam:g}_mu{mu:g}"
                conf = {"d": d, "lam": lam, "mu": mu}

                @_check(
                    checks,
                    cfg,
                    name,
                    "audit outcome matches the theory for this (lambda, mu)",
                    conf,
                    samples,
                )
                def audit(seed):
                    mc = hg.SchrodingerManifoldConfig(d, lam, mu)
                    rep = hg.schrodinger_axiom_audit(
                        mc, samples=samples, seed=seed, tol=cfg.tol
                    )
                    expected = _axiom_expectations(lam, mu)
                    statuses = {c.name: c.status for c in rep}
                    worst = max(
                        c.residual
                        for c in rep
                        if c.residual is not None
                        and c.tolerance is not None
                        and expected.get(c.name, False)
                    )
                    extra = {
                        "audit": statuses,
                        "expected": {k: status_of(v) for k, v in expected.items()},
                        "full_pass": all(s == "PASS" for s in statuses.values()),
                        "expected_full": all(expected.values()),
                        "predicted_factor": (d + 2.0)
                        * (1.0 + 2.0 * lam)
                        / (2.0 * lam),
                    }
                    agree = all(statuses[k] == v for k, v in extra["expected"].items())
                    return judged(worst, cfg.tol, holds=agree, extra=extra)

    return checks


# ---------------------------------------------------------------------------
# dispatch and reporting


_BUILDERS = {
    "bargmann": _suite_bargmann,
    "schrodinger-eq": _suite_schrodinger,
    "lie-algebra": _suite_lie_algebra,
    "group": _suite_group,
    "homogeneous": _suite_homogeneous,
    "boundary": _suite_boundary,
    "axioms": _suite_axioms,
}


@dataclass
class RunReport:
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
    # "all" closes SUITES and runs every suite before it, in that order
    for suite in SUITES[:-1] if cfg.suite == "all" else (cfg.suite,):
        checks.extend(_BUILDERS[suite](cfg))
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
            "checks": [c.to_dict() for c in report.checks],
            "summary": report.summary,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
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
