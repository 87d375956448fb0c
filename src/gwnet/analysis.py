"""Principal component analysis in the tangent space at a common base.

The data is a FrechetGradient: frechet_gradient, the alignment step of the
mean iteration, log-maps every network onto one common blow-up of the
base, and its rows (FrechetGradient.vectors) are the flattened aligned
differences, whose natural inner product is weighted by the products
mu_i mu_j of the base measure (FrechetGradient.weights). A mean keeps its
last gradient, so tangent_pca(frechet_mean(S).gradient) is PCA at the
mean. PCA happens in that weighted geometry via the k x k Gram matrix of
centered rows, which is cheap because collections are small while the
flattened dimension is the squared base size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import GwnetError, MeasureNetwork, check_count
from .gw import GwParams
from .frechet import FrechetGradient, FrechetParams, frechet_gradient
from .tangent import exp_map, TangentVector


@dataclass(frozen=True)
class PcaResult:
    """Weighted principal directions of a tangent dataset at its base.

    Components have unit norm and are pairwise orthogonal in the weighted
    inner product. Ratios are the explained variance fractions, descending;
    they sum to 1 over the full rank. Empty when the data had no variance.
    """

    base: MeasureNetwork          # the dataset's base, of N nodes
    mean: np.ndarray              # length N^2
    components: np.ndarray        # num_components x N^2
    explained_variance_ratios: np.ndarray

    @property
    def num_components(self) -> int:
        return self.components.shape[0]


def vectorize_at_base(base: MeasureNetwork, nets: list[MeasureNetwork],
                      gw_params: GwParams | None = None) -> FrechetGradient:
    """frechet_gradient of nets at base, from cold solves, or every member
    from gw_params.given when it is set: its rows are the members' aligned
    differences from one common blow-up of the base."""
    return frechet_gradient(nets, base,
                            FrechetParams(gw=gw_params or GwParams()))


def tangent_pca(ds: FrechetGradient,
                num_components: int | None = None) -> PcaResult:
    """PCA of the rows of ds in the weighted inner product.

    Centers at the dataset mean row, eigendecomposes the k x k Gram matrix
    of centered rows, and lifts eigenvectors back to weighted-unit
    directions. Degenerate data (all rows equal) yields a result with no
    components rather than an error. num_components caps how many are kept
    (None keeps all, 0 none); anything but a count >= 0 raises GwnetError.
    """
    vectors = ds.vectors
    k = vectors.shape[0]
    if k < 2:
        raise GwnetError("need at least 2 networks for principal components")
    if num_components is not None:
        num_components = check_count(num_components, "num_components", 0)
    mean = vectors.mean(axis=0)
    centered = vectors - mean
    gram = (centered * ds.weights) @ centered.T
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]
    total = float(evals.sum())
    scale = float(np.max(np.abs(vectors))) if vectors.size else 0.0
    if total <= (k * scale * 1e-14) ** 2:
        empty = np.zeros((0, vectors.shape[1]))
        return PcaResult(base=ds.base, mean=mean, components=empty,
                         explained_variance_ratios=np.zeros(0))
    rank = int(np.sum(evals > total * 1e-14))
    keep = rank if num_components is None else min(num_components, rank)
    comps = np.empty((keep, vectors.shape[1]))
    for i in range(keep):
        d = evecs[:, i] @ centered
        comps[i] = d / np.sqrt(evals[i])
    ratios = evals[:keep] / total
    return PcaResult(base=ds.base, mean=mean, components=comps,
                     explained_variance_ratios=ratios)


def project_along_component(result: PcaResult, component_index: int,
                            s: float) -> MeasureNetwork:
    """Network at signed step s along one principal direction from the
    dataset mean, on the result's base. The index must be an integer in
    range; anything else raises GwnetError."""
    i = check_count(component_index, "component")
    if not 0 <= i < result.num_components:
        raise GwnetError(f"component {i} out of range "
                         f"(have {result.num_components})")
    n = result.base.size
    vec = result.mean + s * result.components[i]
    return exp_map(TangentVector(result.base, vec.reshape(n, n)))


def featurize(ds: FrechetGradient) -> np.ndarray:
    """Feature matrix for downstream learners.

    Rows are the tangent rows scaled entrywise by sqrt of the weights, so
    plain Euclidean dot products between feature rows equal the weighted
    tangent inner products.
    """
    return ds.vectors * np.sqrt(ds.weights)[None, :]
