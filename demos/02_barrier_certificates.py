"""Barrier certificates: solving for parameters and verifying margins.

Three closed-form barrier families are instantiated and then checked by
sampling their validity windows:

* a radial power barrier (two-phase, moving circular front) for the minimal
  Pucci operator, including the flux-ordering gap on the zero level set;
* a heat-kernel barrier used to confine the free boundary near t = 0;
* a divergence-form logarithmic barrier for the flux operator with a
  saturation weight Psi.

Each verification reports the worst strictness margin over the sampled
window; positive means the classical sub/supersolution inequalities hold
with room to spare.  The script also shows the critical front radius beyond
which no radial power barrier exists for the given constants.
"""

from ellpar.barriers import (
    BarrierInfeasible,
    critical_radius,
    solve_heatkernel_barrier,
    solve_logdiv_barrier,
    solve_radial_barrier,
    verify_subsolution_margin,
)
from ellpar.nonlinearity import BSpec, PsiSpec
from ellpar.operators import OperatorSpec


def main():
    op = OperatorSpec(kind="pucci-minus", lam=1.0, Lam=1.2,
                      delta1=0.5, delta0=0.2, n_dim=3)

    print("== radial power barrier ==")
    bar = solve_radial_barrier(op, rho0=1.0, a_hat=1.0, b_hat=-0.5,
                               omega_hat=0.3)
    print(f"gamma = {bar.gamma}, alpha = {bar.alpha:.4f}, "
          f"beta = {bar.beta:.4f}, c = {bar.c:.4f}")
    rep = verify_subsolution_margin(bar, samples=2000)
    print(f"worst margin: {rep.worst_margin:.3e}  "
          f"flux gap |Dphi+| - |Dphi-|: {rep.flux_gap:.6f}  "
          f"passed: {rep.passed}")

    rho_c = critical_radius(op)
    print(f"critical front radius rho_c = {rho_c:.4f}")
    try:
        solve_radial_barrier(op, rho0=1.01 * rho_c, a_hat=1.0, b_hat=-0.5,
                             omega_hat=0.3)
    except BarrierInfeasible as exc:
        print(f"beyond rho_c the construction fails as expected: {exc}")

    print("\n== heat-kernel barrier ==")
    hk = solve_heatkernel_barrier(op, d=0.5, delta=0.01)
    rep = verify_subsolution_margin(hk)
    print(f"k = {hk.k:.4f}, eta = {hk.eta:.4e}, eps = {hk.eps:.4e}")
    print(f"worst squeeze margin: {rep.worst_margin:.3e}  passed: {rep.passed}")

    print("\n== divergence-form logarithmic barrier ==")
    div = OperatorSpec(kind="divergence", n_dim=2, psi=PsiSpec())
    ld = solve_logdiv_barrier(div, BSpec(), omega=1.0, rho0=2.0, M=1.0)
    print(f"k1 = {ld.k1:.4f}, k2 = {ld.k2:.4f}, eta = {ld.eta:.4f}, "
          f"k = {ld.k:.4f}, a = {ld.a:.6f}")
    rep = verify_subsolution_margin(ld)
    print(f"worst margin: {rep.worst_margin:.3e}  passed: {rep.passed}")


if __name__ == "__main__":
    main()
