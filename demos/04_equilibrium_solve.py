"""Solving the stationary fixed point directly.

The infinite-network stationary law is a truncated product form whose
four intensities must solve a consistency system: each intensity is a
rate ratio times the probability that a fresh reservation is accepted.
The solver reduces the system to one scalar equation along a curve and
bisects the conserved car density against the target.

The script sweeps the load and the reservation speed, then shows the
capacity-one corner where everything is solvable on paper.
"""

from duores import (
    ModelParams,
    prob_no_available,
    prob_saturated,
    product_form,
    solve_equilibrium,
)


def main() -> None:
    print("sweep 1: car density s at fixed rates (lam=1, mu=1, nu=2, K=3)")
    print("  s      rho1     rho2     P[reject]  max residual")
    for s in (0.3, 0.9, 1.5, 2.1, 2.7):
        rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3), s)
        reject = prob_no_available(product_form(rep.rho, 3))
        print(f"  {s:.1f}   {rep.rho.rho1:7.4f}  {rep.rho.rho2:7.4f}"
              f"    {reject:.4f}     {rep.max_residual:.1e}")

    print("\nsweep 2: reservation speed nu at fixed density (s=1.5)")
    print("  nu       eta1      rho2     P[saturated]")
    for nu in (0.5, 2.0, 10.0, 1000.0):
        rep = solve_equilibrium(ModelParams(lam=1.0, mu=1.0, nu=nu, K=3), 1.5)
        print(f"  {nu:6.1f}  {rep.rho.eta1:8.4f}  {rep.rho.rho2:7.4f}"
              f"     {prob_saturated(product_form(rep.rho, 3)):.4f}")
    print("slow reservations (small nu) pile up reserved spaces and cars;")
    print("fast ones (large nu) vanish from the state, eta1 -> 0")

    # capacity one, fast reservations: the fill equation collapses to a
    # quadratic and the answer is exact
    p = ModelParams(lam=2.0, mu=1.0, nu=1e8, K=1)
    rep = solve_equilibrium(p, 0.75)
    print("\ncapacity-one corner (lam=2, mu=1, nu->inf, s=3/4)")
    print(f"  solver: rho1 = {rep.rho.rho1:.9f}, rho2 = {rep.rho.rho2:.9f}")
    print("  exact:  rho1 = 1, rho2 = 2")
    print(f"  residuals: {rep.max_residual:.2e}, "
          f"bisection evaluations: {rep.fill_evaluations}")


if __name__ == "__main__":
    main()
