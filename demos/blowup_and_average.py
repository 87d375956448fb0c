"""Walk through the smallest interesting pair: a single self-loop versus
a two-node swap.

The only coupling spreads the one node over both targets, so the blow-up
copies it twice and the two networks suddenly live on the same node set.
Averaging them entrywise is then legal, and the iterative mean lands on
exactly that average.
"""
import numpy as np

from gwnet import MeasureNetwork, blow_up, frechet_mean, gw_distance, solve_gw

X = MeasureNetwork(np.array([[1.0]]), np.array([1.0]))
Y = MeasureNetwork(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))

print("distance:", gw_distance(X, Y))

# ------------------------------------------------------------------ blow-up
coupling, report = solve_gw(X, Y)
print("coupling:", coupling.matrix.tolist(), "cost:", report.cost)

pair = blow_up(X, Y, coupling)
print("expanded base weights:\n", pair.omega_xhat)
print("expanded target weights:\n", pair.omega_yhat)
print("shared measure:", pair.mu_hat)

# ------------------------------------------------------------------ average
# with both members on one node set, the mean is their entrywise average
result = frechet_mean([pair.base_network(), Y])
print("mean weights:\n", result.network.omega)
print("mean loss:", result.loss, "converged:", result.converged)
