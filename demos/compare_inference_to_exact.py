"""How close do the unfolded inference engines get to the true marginals?

For small problems we can enumerate all 2^E joint assignments of the edge
variables and compute exact posteriors.  This script samples random
3-word problems (9 candidate edges, 27 pairwise couplings), runs
mean-field and loopy belief propagation at increasing depth, and prints
how far each engine's marginals sit from the enumeration oracle.

Run:  python3 demos/compare_inference_to_exact.py
"""

import numpy as np

from sdparse.exact import exact_infer
from sdparse.pipeline import run_inference
from sdparse.synthetic import random_potentials

INSTANCES = 100
LENGTH = 3

rng = np.random.default_rng(12345)
instances = [random_potentials(LENGTH, rng, unary_scale=1.0, coupling_scale=0.1)
             for _ in range(INSTANCES)]
print(f"{INSTANCES} random problems, {LENGTH} words each "
      f"({len(instances[0].edge_set)} edge variables, "
      f"{len(instances[0].pair_edges()[0])} couplings per problem)")
print("exact posteriors by full enumeration ...")
references = [exact_infer(pot) for pot in instances]

print()
print(f"{'engine':>6} {'depth':>5} {'mean |err|':>12} {'max |err|':>12}")
for engine in ("mf", "lbp"):
    for iterations in (1, 2, 3, 5):
        errors = []
        for pot, ref in zip(instances, references):
            q = run_inference(pot, engine, iterations).marginals()
            errors.extend(abs(q[e] - ref.marginals[e]) for e in pot.edge_set.edges)
        print(f"{engine:>6} {iterations:>5} {np.mean(errors):>12.6f} "
              f"{np.max(errors):>12.6f}")

print()
print("With weak couplings both engines are within a fraction of a percent")
print("of exact by depth 3.  Crank the coupling scale up to see them drift:")
print()
strong = [random_potentials(LENGTH, rng, unary_scale=1.0, coupling_scale=1.0)
          for _ in range(INSTANCES)]
strong_refs = [exact_infer(pot) for pot in strong]
for engine in ("mf", "lbp"):
    errors = []
    for pot, ref in zip(strong, strong_refs):
        q = run_inference(pot, engine, 3).marginals()
        errors.extend(abs(q[e] - ref.marginals[e]) for e in pot.edge_set.edges)
    print(f"coupling scale 1.0, depth 3: {engine:>4} "
          f"mean |err| = {np.mean(errors):.6f}, max = {np.max(errors):.6f}")
