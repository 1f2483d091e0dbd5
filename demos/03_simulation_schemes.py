"""Two ways to one path: per-step implicit Euler vs the outer fixed point.

Both schemes discretize the same perturbed dynamics on a shared Brownian
driver.  They satisfy the same discrete fixed-point system, so their gap is
set by the outer stopping tolerance rather than by the step size: refining
the grid leaves it at noise level.
"""

import numpy as np

import psde
from psde import Scheme, SimConfig

model = psde.named_model("smooth-generic")
params = psde.validate_params(0.4, 0.3)

print("Scheme agreement on a shared driver, refined by Brownian bridges:")
for cfg, inc in psde.refinement_ladder(SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=100, rng_seed=1), 3):
    n = cfg.n_steps
    per_step = psde.simulate_per_step(model, params, cfg, inc)
    picard = psde.simulate_picard(model, params, cfg, inc)
    gap = np.max(np.abs(per_step.x - picard.x))
    print(f"  n = {n:4d} (dt = {cfg.dt:.4f})  sup|X_ps - X_pic| = {gap:.3e}")

cfg = SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=400, rng_seed=1)
path = psde.simulate_per_step(model, params, cfg)
print(f"\nX_0 = x/(1 - alpha - beta) = {path.x[0]:.6f} (x = 0.5, alpha+beta = 0.7)")
res = psde.path_residual(path, model, params)
print(f"per-step dynamics residual: {np.max(np.abs(res)):.2e} (machine precision)")
print(f"running extremes track the path: "
      f"{np.array_equal(path.m, np.maximum.accumulate(path.x))}")

print("\nSingly perturbed closed form (beta = 0, sigma = 1, b = 0, x = 0):")
unit = psde.named_model("unit")
p = psde.validate_params(0.5, 0.0)
c = p.alpha / (1.0 - p.alpha)
cfg = SimConfig(x0_seed_value=0.0, horizon=1.0, n_steps=1000, rng_seed=5)
path = psde.simulate_per_step(unit, p, cfg)
ref = path.w + c * np.maximum(np.maximum.accumulate(path.w), 0.0)
print(f"  x_k = W_k + {c:.1f} * max W_k reproduced to {np.max(np.abs(path.x - ref)):.2e}")

print("\nDeterminism: same seed, same bits:")
again = psde.simulate(unit, p, cfg)
print(f"  identical arrays: {np.array_equal(path.x, again.x)}")
print(f"  scheme dispatch: {psde.simulate(unit, p, cfg).x[-1]:.6f} "
      f"(per-step) vs {psde.simulate(unit, p, SimConfig(0.0, 1.0, 1000, 5, Scheme.PICARD)).x[-1]:.6f} (picard)")
