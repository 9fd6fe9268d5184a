"""Dimension estimation: calibration targets and a construction family.

The box-counting and ball-mass (Frostman-style) estimators are first
calibrated on sets with known dimension -- a segment, a square, and a
Cantor product -- then applied to the nested plane-section families cut
out of a staged construction run.
"""
import math

import numpy as np

from ietkit.analysis import (
    box_dimension,
    build_nested_family,
    cantor_product_family,
    frostman_measure,
)
from ietkit.construction import ExponentScale, make_schedule, run_construction


def main() -> None:
    print("calibration targets:")
    seg = (np.linspace(0, 1, 2048, endpoint=False) + 0.5 / 2048).reshape(-1, 1)
    fit = box_dimension(seg, [2.0**-k for k in range(1, 10)])
    print(f"  segment box dimension: {fit.estimate:.4f}  (target 1)")

    g = np.linspace(0, 1, 64, endpoint=False) + 0.5 / 64
    square = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    fit = box_dimension(square, [2.0**-k for k in range(1, 6)])
    print(f"  square box dimension:  {fit.estimate:.4f}  (target 2)")

    fam = cantor_product_family(6)
    fro = frostman_measure(fam)
    target = 2 * math.log(2) / math.log(3)
    print(f"  Cantor x Cantor ball-mass exponent: {fro.exponent:.4f}  "
          f"(target {target:.4f})")

    print("\nnested plane-section families from a 3-stage construction:")
    schedule = make_schedule(1, ExponentScale.linear(), stages=3)
    run = run_construction(4, schedule, seed=11)
    families = build_nested_family(run, planes=3, seed=3)
    for idx, nf in enumerate(families):
        fro = frostman_measure(nf)
        areas = [sum(p.area for p in lev) for lev in nf.levels]
        print(f"  plane {idx}: depth {nf.depth}, "
              f"areas {['%.3g' % a for a in areas]}, "
              f"ball-mass exponent {fro.exponent:.3f}")
    print("  (level diameters shrink super-exponentially, so at this depth "
          "every\n   ball at the coarse radii carries the full mass and the "
          "fitted exponent\n   degenerates; the estimator is meaningful on "
          "geometrically nested\n   families like the Cantor product above)")


if __name__ == "__main__":
    main()
