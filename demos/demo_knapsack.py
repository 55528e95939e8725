"""Knapsack-constrained median with discounts.

The naive relaxation has an unbounded integrality gap, so the solver
enumerates extended instances (pre-selected facilities F0 plus pruned
clients) against a geometric grid of objective estimates, strengthens the
relaxation with distance caps and per-facility star-cost caps, rounds with
virtual clients pinning F0 open, and resolves the at most two fractional
coordinates a vertex can carry. Enumeration-heavy by design: this 3x5
instance has 9,615 tasks and takes 3-5 s on a 2-core x86 VM.
"""

import time

from discmed import brute_opt, discounted_cost, generate, solve_knapmeddis
from discmed.knapsack import enumerate_estimates, sparsify_structures, theoretical_caps

rho, delta, eps, tau = 0.5, 2.0 / 3.0, 0.25, 1.9

inst = generate(n_facilities=3, n_clients=5, kind="knapsack", discount_scale=0.4, seed=9)
weights = inst.constraint.weights
print("facility weights:", {f: round(w, 2) for f, w in weights.items()})
print(f"budget W = {inst.constraint.budget}")

# ---------------------------------------------------------------------------
# the enumeration the solver is about to sweep

cap1, cap2 = theoretical_caps(rho, delta)
pairs = enumerate_estimates(inst, eps)
structures = sparsify_structures(inst, rho, delta)
print(f"\ntheoretical caps: {cap1} pre-selections, {cap2} removal balls")
print(f"{len(pairs)} (c0, EST) pairs  x  {len(structures)} (F0, C') structures")

t0 = time.time()
rep = solve_knapmeddis(inst, tau=tau, rho=rho, delta=delta, epsilon=eps)
print(f"\nsolved in {time.time() - t0:.1f}s; "
      f"{rep.extras['evaluated']} extended instances evaluated, "
      f"{rep.extras['feasible']} feasible, {rep.extras['reused']} of them "
      "settled with no LP solve by the vertex of the task above them in their chain")

print(f"opened {rep.solution} (weight {sum(weights[f] for f in rep.solution):.2f})")
print(f"alpha'' = {rep.alpha:.4f}; EST coefficient = {rep.extras['estCoefficient']:.3f}")
print(f"winning candidate: F0 = {rep.extras['bestF0']}, EST = {rep.extras['bestEst']:.4f}")

for cert in rep.certificates:
    print(f"  certificate {cert.name}: {cert.lhs:.4g} vs {cert.rhs:.4g} -> {cert.holds}")

# ---------------------------------------------------------------------------
# the honest, rho-dependent guarantee against the exhaustive optimum

opt = brute_opt(inst)
lhs = discounted_cost(inst, rep.solution, rep.alpha)
rhs = rep.extras["estCoefficient"] * (1 + eps) * opt.value
print(f"\nbrute-force optimum {opt.value:.4f} at {opt.optimum}")
print(f"cost at alpha'' discounts {lhs:.4f} <= {rhs:.4f} -> {lhs <= rhs + 1e-6}")
assert lhs <= rhs + 1e-6
