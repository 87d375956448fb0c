"""Sample the path between two random networks and check it moves at
constant speed.

The aligned representation interpolates the two weight matrices linearly
on a shared node set. Distances measured between interpolants divide out
to the same speed everywhere along the path.
"""
import numpy as np

from gwnet import GwParams, MeasureNetwork, evaluate, geodesic_aligned, \
    gw_distance

rng = np.random.default_rng(0)

X = MeasureNetwork(rng.standard_normal((4, 4)), np.full(4, 0.25))
Y = MeasureNetwork(rng.standard_normal((6, 6)), np.full(6, 1 / 6))

g = geodesic_aligned(X, Y, GwParams(restarts=4, rng_seed=0))
print(f"representation size {g.size}, half-length {g.half_length:.6f}")

# ------------------------------------------------------- sampled distances
ts = np.linspace(0.0, 1.0, 5)
prev = evaluate(g, ts[0])
for t in ts[1:]:
    cur = evaluate(g, t)
    d = gw_distance(prev, cur,
                    GwParams(given=np.diag(prev.mu)))
    print(f"d(path({t - 0.25:.2f}), path({t:.2f})) = {d:.6f}   "
          f"expected {0.25 * g.half_length:.6f}")
    prev = cur
