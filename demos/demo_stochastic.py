"""Stochastic center clustering: minimize the expected maximum distance.

Independent stochastic points realize at client locations with known
probabilities. The solver sweeps a uniform discount T downward, solving a
probability-weighted discount instance at each step, and keeps the output at
the smallest T that passes the beta*T acceptance test. The certified chain
bounds the expected maximum by (alpha + beta) * T_star.
"""

import math

from discmed import (
    brute_stochastic_opt,
    eval_expected_max,
    generate_stochastic,
    realization_probs,
    solve_stochastic_center,
)

stoch = generate_stochastic(n_facilities=4, n_points=4, kind="uniform", seed=5)
print(f"{len(stoch.points)} stochastic points over {len(stoch.base.clients)} locations")
for pt in stoch.points:
    print(f"  {pt.pid}: {{{', '.join(f'{j}: {q:.2f}' for j, q in sorted(pt.dist.items()))}}}")

probs = realization_probs(stoch)
print("per-location realization probabilities:",
      {j: round(p, 3) for j, p in probs.items() if p > 0})

# ---------------------------------------------------------------------------
# the sweep

S, rep = solve_stochastic_center(stoch, tau=1.985, epsilon=0.2)
print(f"\nsweep ({len(rep.sweep)} steps):")
for step in rep.sweep:
    mark = "ok " if step.passed else "REJ"
    print(f"  T = {step.T:7.3f}  cost = {step.cost:8.4f}  [{mark}] -> {step.solution}")
print(f"T* = {rep.t_star:.4f}  (fallback flagged: {rep.flagged})")

# ---------------------------------------------------------------------------
# exact evaluation and the certified constant

value = eval_expected_max(stoch, S)
outcomes = math.prod(
    sum(q > 0 for q in pt.dist.values()) + (pt.none_probability() > 0) for pt in stoch.points
)
print(f"\nE[max] of the output: exact {value:.4f} over {outcomes} realization outcomes")
print(f"certified: E[max] <= (alpha + beta) T* = {(rep.alpha + rep.beta) * rep.t_star:.4f}")

opt = brute_stochastic_opt(stoch)
print(f"exhaustive stochastic optimum {opt.value:.4f} at {opt.optimum}")
print(f"guarantee constant 3(1 + 2 eps)(alpha + beta) = {rep.guarantee_constant:.2f}")
assert value <= rep.guarantee_constant * opt.value + 1e-9
print("value / optimum =", round(value / opt.value, 3) if opt.value else "0 (exact cover)")
