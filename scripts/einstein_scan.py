#!/usr/bin/env python3
"""Scan the coupling lambda and table the Einstein residual.

For each lambda the squashed metric satisfies Ric + (d+2) g = c(lambda) g
with c = (d+2)(1+2 lambda)/(2 lambda); the residual vanishes exactly at
lambda = -1/2.  The table prints the measured max-entry of Ric + (d+2) g,
the predicted coefficient, and their agreement, so a drifting curvature
implementation shows up as a broken third column rather than a silently
shifted minimum.
"""

import argparse

import numpy as np

from schrogeo.homogeneous import (
    SchrodingerManifoldConfig,
    bulk_boxes,
    einstein_factor,
    einstein_residual,
)
from schrogeo.numkernel import SeededSampler


def scan(d: int, lams: np.ndarray, samples: int, seed: int) -> None:
    print(f"d = {d}")
    print(f"{'lambda':>9}  {'|Ric+(d+2)g|':>13}  {'predicted c':>12}  {'identity gap':>13}")
    for lam in lams:
        cfg = SchrodingerManifoldConfig(d, float(lam))
        pts = SeededSampler(seed, bulk_boxes(d)).points(samples)
        computed, predicted = einstein_residual(cfg, pts)
        worst = float(np.abs(computed).max())
        gap = float(np.abs(computed - predicted).max())
        c = einstein_factor(d, float(lam))
        print(f"{lam:9.3f}  {worst:13.3e}  {c:12.4f}  {gap:13.3e}")
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--lam-min", type=float, default=-2.0)
    ap.add_argument("--lam-max", type=float, default=-0.1)
    ap.add_argument("--steps", type=int, default=9)
    ap.add_argument("--samples", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    lams = np.linspace(args.lam_min, args.lam_max, args.steps)
    if not np.any(np.isclose(lams, -0.5)):
        lams = np.sort(np.append(lams, -0.5))[::-1]
    for d in args.dims:
        scan(d, lams, args.samples, args.seed)


if __name__ == "__main__":
    main()
