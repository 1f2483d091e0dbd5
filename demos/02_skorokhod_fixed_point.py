"""The coupled running-max / running-min fixed point on a sample driver.

Given a driving path a, an array of its values on the grid, the running
extremes (M, I) of the perturbed path x = a + alpha*M + beta*I solve

    (1-alpha) M_k = max_{j<=k} (a_j + beta I_j)
    (beta-1)  I_k = max_{j<=k} (-a_j - alpha M_j)

and plain iteration of the M self-map contracts at rate |rho|.
"""

import numpy as np

import psde

rng = np.random.default_rng(7)
n = 2000
a = np.concatenate(([0.0], np.cumsum(rng.standard_normal(n) * 0.02)))

params = psde.validate_params(0.6, 0.3)
sol = psde.solve_max_min(a, params)
x = sol.perturbed_path(a, params)

print(f"alpha = {params.alpha}, beta = {params.beta}, rho = {params.rho:.4f}")
print(f"converged in {sol.iterations} sweeps, residual {sol.residual:.2e}")
print(f"driver range   [{a.min():+.4f}, {a.max():+.4f}]")
print(f"perturbed path [{x.min():+.4f}, {x.max():+.4f}]")

print("\nFixed-point invariants:")
print(f"  M is the running max of x:  {np.max(np.abs(sol.m_path - np.maximum.accumulate(x))):.2e}")
print(f"  I is the running min of x:  {np.max(np.abs(sol.i_path - np.minimum.accumulate(x))):.2e}")
print(f"  M_0 = I_0 = a_0/(1-alpha-beta): {sol.m_path[0]:.6f} vs {a[0] / 0.1:.6f}")

print("\nSweep-to-sweep contraction, bounded by |rho| = {:.4f}:".format(abs(params.rho)))
ratios = psde.contraction_rate(a, params, 8)
for m, r in enumerate(ratios, start=1):
    print(f"  sweep {m}: ratio {r:.4f}")

print("\nDecoupled special case beta = 0: one sweep is exact")
sol0 = psde.solve_max_min(a, psde.validate_params(0.6, 0.0))
print(f"  M == runmax(a)/(1-alpha): "
      f"{np.max(np.abs(sol0.m_path - np.maximum.accumulate(a) / 0.4)):.2e}")
print(f"  contraction sequence is empty: "
      f"{len(psde.contraction_rate(a, psde.validate_params(0.6, 0.0), 8)) == 0}")
