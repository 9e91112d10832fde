"""Sup/inf-convolution regularization pipeline on a solved field.

Starting from two ordered solutions of the jump problem (one raised, one
lowered), the script

1. inf-convolves the upper field W and sup-convolves the lower field Z over
   the translated regularization body Xi_r,
2. confirms domination (Z above its base, W below its base) and the exact
   duality W[u] = -Z[-u],
3. checks interior-ball regularity of the level sets {Z >= 0} and {W <= 0},
4. locates the first crossing time of the ordered pair (none, if the initial
   separation dominates the convolution inflation).

The body Xi_r is the Minkowski sum of a space disk of radius r and the
flattened set {|x|^3 + |t|^2 < r^2}; convolving shrinks the usable grid by
r + r^(2/3) in space and r in time, so the fields must live on a domain
comfortably larger than r.
"""

import numpy as np

from ellpar.harness import make_comparison_pair, make_jump_scenario
from ellpar.regularize import (
    GridField,
    crossing_time,
    inf_convolve,
    interior_ball_check,
    sup_convolve,
)
from ellpar.solver import run


def main():
    base = make_jump_scenario(grid=801, n=32, T=0.3, dt=2.5e-3)
    lower, upper = make_comparison_pair(base, gap=0.5)
    print("solving the ordered pair (801 nodes, separation 0.5) ...")
    lo = run(lower.spec).to_grid_field()
    hi = run(upper.spec).to_grid_field()

    r = 0.01
    Z = sup_convolve(lo, r)
    W = inf_convolve(hi, r)
    print(f"convolved with r = {r}: output grid "
          f"{Z.values.shape[1]} x {Z.values.shape[0]} (space x time)")

    base_lo = lo.values[Z.t_slice, Z.x_slice]
    base_hi = hi.values[W.t_slice, W.x_slice]
    print(f"domination: min(Z - u) = {np.min(Z.values - base_lo):.3e}, "
          f"min(v - W) = {np.min(base_hi - W.values):.3e}")

    negZ = sup_convolve(GridField(hi.x, hi.times, -hi.values), r)
    print(f"duality W[v] == -Z[-v] exact: "
          f"{np.array_equal(W.values, -negZ.values)}")

    for conv, level in ((Z, "Z>=0"), (W, "W<=0")):
        rep = interior_ball_check(conv, level)
        print(f"interior-ball check on {{{level}}}: checked {rep.checked} "
              f"boundary nodes, passed: {rep.passed}")

    rep = crossing_time(Z, W)
    if rep.t0 is None:
        print(f"no crossing: min gap W - Z = "
              f"{np.min(W.values - Z.values):.4f} > 0 throughout")
    else:
        print(f"first crossing at t0 = {rep.t0:.4f}, nodes {rep.contact_nodes}")


if __name__ == "__main__":
    main()
