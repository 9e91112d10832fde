"""Jump-to-extinction walkthrough.

A tent of positive saturation sitting inside a negative (elliptic) background
is evolved with the smoothed nonlinearity b_n.  The positive phase shrinks,
the two free-boundary fronts move inward, and at a finite extinction time the
whole field collapses onto the stationary elliptic profile -- here simply the
constant -1 dictated by the boundary data.

Run with::

    python3 demos/01_jump_extinction.py [outdir]

which prints a short progress table and, if an output directory is given,
writes field.csv / front.csv in the same format as ``ellpar solve``.
"""

import sys

import numpy as np

from ellpar.cli import write_field_csv, _write_front_csv
from ellpar.harness import make_jump_scenario
from ellpar.solver import run


def main():
    scenario = make_jump_scenario(grid=401, n=32, T=0.12, dt=2.5e-3)
    out = run(scenario.spec)

    print("jump scenario: 401 nodes, smoothing index n = 32, dt = 2.5e-3")
    print(f"{'t':>7} {'max u':>9} {'min u':>9} {'fronts':>22}")
    for j in range(0, len(out.times), 8):
        fr = ", ".join(f"{f:+.3f}" for f in out.fronts[j]) or "--"
        print(f"{out.times[j]:7.3f} {out.values[j].max():9.4f} "
              f"{out.values[j].min():9.4f} {fr:>22}")

    print(f"\nextinction time: {out.extinction_time:.4f}")
    # at finite n the field relaxes to the elliptic state over a few steps
    # after extinction; measure the distance at the final time level
    print(f"final-time sup-distance to the stationary state (-1): "
          f"{np.max(np.abs(out.values[-1] + 1.0)):.2e}")
    print(f"newton iterations total: {out.newton_iterations}")

    if len(sys.argv) > 1:
        import os

        outdir = sys.argv[1]
        os.makedirs(outdir, exist_ok=True)
        write_field_csv(os.path.join(outdir, "field.csv"), out.to_grid_field())
        _write_front_csv(os.path.join(outdir, "front.csv"), out)
        print(f"wrote field.csv and front.csv to {outdir}")


if __name__ == "__main__":
    main()
