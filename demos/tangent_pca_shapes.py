"""Principal directions of a family of perturbed networks.

A base network is nudged along two fixed directions with random strengths.
Log-mapping the family onto the base and running the weighted PCA finds
those two directions again, with the explained variance split matching the
strengths used to generate the data.
"""
import numpy as np

from gwnet import (GwParams, MeasureNetwork, featurize,
                   project_along_component, tangent_pca, vectorize_at_base)

rng = np.random.default_rng(1)

n = 4
base = MeasureNetwork(rng.standard_normal((n, n)), np.full(n, 1.0 / n))
d1 = rng.standard_normal((n, n))
d2 = rng.standard_normal((n, n))

family = []
for _ in range(12):
    a = 0.10 * rng.standard_normal()
    b = 0.03 * rng.standard_normal()
    family.append(base.with_omega(base.omega + a * d1 + b * d2))

# ------------------------------------------------------------------- pca
ds = vectorize_at_base(base, family, GwParams(given=np.diag(base.mu)))
result = tangent_pca(ds)
print("explained variance ratios:",
      np.round(result.explained_variance_ratios, 4))

# walking along the first component sweeps out the dominant deformation
for s in (-0.2, 0.0, 0.2):
    net = project_along_component(result, ds.base, 0, s)
    print(f"s={s:+.1f}: first row of weights", np.round(net.omega[0], 3))

# ------------------------------------------------------------- features
F = featurize(ds)
print("feature matrix:", F.shape,
      "gram diag:", np.round(np.diag(F @ F.T), 5))
