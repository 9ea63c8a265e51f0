#!/usr/bin/env python
"""3-D axisymmetric granular column collapse (the paper's §7 scaling
direction) and the classic runout–aspect-ratio relation.

Granular-physics benchmark: for cylindrical columns, experiments (Lube et
al. 2004) find the normalized radial runout grows with the initial aspect
ratio. The 3-D MPM reproduces that monotone trend.
"""

import numpy as np

from repro.mpm3d import column_collapse_3d, radial_runout


def main() -> None:
    print("=== 3-D column collapse: runout vs aspect ratio ===")
    print(f"{'aspect a':>9} | {'particles':>9} | {'runout dR (m)':>13} | "
          f"{'dR / R0':>8}")
    results = []
    for aspect in (0.5, 1.0, 1.5):
        solver, meta = column_collapse_3d(aspect_ratio=aspect,
                                          cells_per_unit=14,
                                          column_radius=0.12)
        # run until the column settles
        while solver.time < 0.8:
            solver.step()
        runout = radial_runout(solver.particles.positions, meta["center"],
                               meta["column_radius"])
        norm = runout / meta["column_radius"]
        results.append((aspect, norm))
        print(f"{aspect:>9.1f} | {solver.particles.count:>9} | "
              f"{runout:>13.3f} | {norm:>8.2f}")

    trend = all(results[i][1] <= results[i + 1][1]
                for i in range(len(results) - 1))
    print(f"\n  normalized runout increases with aspect ratio: {trend}")
    print("  (the experimental scaling the paper's 2-D inverse problem"
          " implicitly relies on)")


if __name__ == "__main__":
    main()
