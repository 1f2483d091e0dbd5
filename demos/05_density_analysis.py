"""Terminal-law statistics: moments, KS against the analytic law, atom scan.

For beta = 0, sigma = 1, b = 0, x = 0 the terminal value is
W_T + c * max W_T with c = alpha/(1-alpha), whose density is the closed-form
integral of the joint endpoint/maximum law along w + c*m = v.  The ensemble
below uses a fairly fine grid because the discrete running maximum is
biased low by about 0.58*sqrt(dt).
"""

import math

import numpy as np

import psde
from psde.simulate import SimConfig

model = psde.named_model("unit")
params = psde.validate_params(0.5, 0.0)
n_paths = 40_000
cfg = SimConfig(x0_seed_value=0.0, horizon=1.0, n_steps=4000, rng_seed=17)
ensemble = psde.generate_ensemble(model, params, cfg, n_paths)
vals = ensemble.terminal_values

target = math.sqrt(2.0 / math.pi)
se = float(np.std(vals)) / math.sqrt(n_paths)
print(f"sample mean {np.mean(vals):.5f} vs E[X_1] = sqrt(2/pi) = {target:.5f} "
      f"({abs(np.mean(vals) - target) / se:.1f} standard errors)")

law = psde.reference_singly_perturbed(params.alpha, 1.0)
ks = psde.ks_test(ensemble, law)
print(f"KS vs closed-form reference: {ks.statistic:.5f} "
      f"(1% critical {ks.critical_1pct:.5f}, passes: {ks.passes_1pct})")

print("\nAtom scan: max bin mass shrinks linearly with the bin width")
for w in (1e-1, 1e-2, 1e-3):
    scan = psde.atom_scan(ensemble, w)
    print(f"  bin {w:7.3f}: max mass {scan.max_mass:.5f} near v = {scan.location:+.3f}")

est = psde.kde(ensemble)
sup_err = float(np.max(np.abs(est.density - law.density(est.grid))))
print(f"\nKDE (bandwidth {est.bandwidth:.4f}) integrates to {est.integral():.4f}; "
      f"sup distance to the reference density {sup_err:.4f}")

print("\nSanity: alpha = 0 gives the exact standard Gaussian at any resolution")
gauss = psde.generate_ensemble(
    model, psde.validate_params(0.0, 0.0), SimConfig(0.0, 1.0, 50, 23), 40_000
)
g = psde.ks_test(gauss, psde.reference_gaussian(0.0, 1.0))
print(f"  KS {g.statistic:.5f} (1% critical {g.critical_1pct:.5f}, passes: {g.passes_1pct})")
