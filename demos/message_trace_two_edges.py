"""The smallest interesting problem: two edges, one coupling of log 2.

Both edges have zero unary score, and a single sibling part pays log 2
when both are on.  Every quantity has a closed form here, which makes
the two engines' behavior easy to watch:

* exact:       Z = 1 + 1 + 1 + 2 = 5, so P(edge on) = 3/5 = 0.6
* mean-field:  each edge iterates q <- logistic(q * ln 2), a damped
               climb 0.5, 0.586, 0.600, 0.603, ... -> 0.60300 (not 0.6:
               the factored approximation overshoots on positive
               couplings)
* belief prop: the factor graph is a tree, so messages are exact after
               one round and the beliefs land on 0.6 on the nose

Run:  python3 demos/message_trace_two_edges.py
"""

import math

from sdparse.exact import exact_infer
from sdparse.lbp import lbp_run
from sdparse.pipeline import run_inference
from sdparse.synthetic import two_edge_instance

pot = two_edge_instance(math.log(2.0))
print("edges:", pot.edge_set.edges, "| coupling: sib part worth log 2 =",
      round(math.log(2.0), 6))

exact = exact_infer(pot)
print(f"\nexact enumeration: log Z = {exact.log_partition:.6f} "
      f"(closed form log 5 = {math.log(5):.6f})")
for edge, p in sorted(exact.marginals.items()):
    print(f"  P({edge[0]}->{edge[1]} on) = {p:.6f}")

print("\nmean-field trajectory (q for edge 0->1 per iteration):")
state = run_inference(pot, "mf", 8)
q_scalar = 0.5
for t in range(state.iterations + 1):
    q = float(state.q1(t)[0])
    print(f"  t={t}: q = {q:.6f}   scalar recurrence -> {q_scalar:.6f}")
    q_scalar = 1.0 / (1.0 + math.exp(-q_scalar * math.log(2.0)))
final = run_inference(pot, "mf", 200).marginals()[(0, 1)]
print(f"  fixed point after 200 iterations: {final:.10f}")

print("\nbelief propagation (exact on this tree by t=1):")
state = run_inference(pot, "lbp", 3)
for t in range(state.iterations + 1):
    q = float(state.q1(t)[0])
    print(f"  t={t}: belief = {q:.6f}")
print("directed messages after the first round (log m(1) - log m(0)):")
# lbp_run hands each sweep's message tensors to on_sweep; the sibling
# tensor's cell [i, j, k] carries the message (i, j) -> (i, k)
sweeps = []
lbp_run(pot, 1, on_sweep=sweeps.append)
for i, j, k in ((0, 2, 1), (0, 1, 2)):
    print(f"  {(i, j)} -> {(i, k)} via sib part (0, 1, 2): "
          f"log-odds = {float(sweeps[0]['sib'][i, j, k]):.6f} "
          f"(closed form log 1.5 = {math.log(1.5):.6f})")
