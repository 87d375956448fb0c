"""Vectorization of network collections at a common base, and principal
component analysis in the tangent space.

Every network is log-mapped onto one common blow-up of the base by
frechet_gradient, the alignment step of the mean iteration; the flattened
aligned differences form a data matrix whose natural inner product is
weighted by the products mu_i mu_j of the base measure. PCA happens in
that weighted geometry via the k x k Gram matrix of centered rows, which
is cheap because collections are small while the flattened dimension is
the squared base size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import GwnetError, MeasureNetwork, check_count
from .gw import GwParams
from .frechet import FrechetParams, frechet_gradient
from .tangent import exp_map, TangentVector


@dataclass(frozen=True)
class TangentDataset:
    """Flattened tangent vectors of a collection at one common base."""

    base: MeasureNetwork
    vectors: np.ndarray           # k x N^2, one row per input network
    weights: np.ndarray           # length N^2, the products mu_i mu_j

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class PcaResult:
    """Weighted principal directions of a tangent dataset.

    Components have unit norm and are pairwise orthogonal in the weighted
    inner product. Ratios are the explained variance fractions, descending;
    they sum to 1 over the full rank. Empty when the data had no variance.
    """

    mean: np.ndarray              # length N^2
    components: np.ndarray        # num_components x N^2
    explained_variance_ratios: np.ndarray

    @property
    def num_components(self) -> int:
        return self.components.shape[0]


def vectorize_at_base(base: MeasureNetwork, nets: list[MeasureNetwork],
                      gw_params: GwParams | None = None) -> TangentDataset:
    """Log-map each network onto one common blow-up of the base and
    flatten.

    Rows are omega_target_k - omega_base on that common base, in row-major
    order: the targets of frechet_gradient at the base, from cold solves,
    or every member from gw_params.given when it is set.
    """
    grad = frechet_gradient(nets, base,
                            FrechetParams(gw=gw_params or GwParams()))
    final = grad.base
    rows = np.stack([(T - final.omega).ravel() for T in grad.targets])
    weights = np.outer(final.mu, final.mu).ravel()
    return TangentDataset(base=final, vectors=rows, weights=weights)


def tangent_pca(ds: TangentDataset,
                num_components: int | None = None) -> PcaResult:
    """PCA of the dataset rows in the weighted inner product.

    Centers at the dataset mean row, eigendecomposes the k x k Gram matrix
    of centered rows, and lifts eigenvectors back to weighted-unit
    directions. Degenerate data (all rows equal) yields a result with no
    components rather than an error. num_components caps how many are kept
    (None keeps all, 0 none); anything but a count >= 0 raises GwnetError.
    """
    k = ds.count
    if k < 2:
        raise GwnetError("need at least 2 networks for principal components")
    if num_components is not None:
        num_components = check_count(num_components, "num_components", 0)
    mean = ds.vectors.mean(axis=0)
    centered = ds.vectors - mean
    gram = (centered * ds.weights) @ centered.T
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]
    total = float(evals.sum())
    scale = float(np.max(np.abs(ds.vectors))) if ds.vectors.size else 0.0
    if total <= (k * scale * 1e-14) ** 2:
        empty = np.zeros((0, ds.vectors.shape[1]))
        return PcaResult(mean=mean, components=empty,
                         explained_variance_ratios=np.zeros(0))
    rank = int(np.sum(evals > total * 1e-14))
    keep = rank if num_components is None else min(num_components, rank)
    comps = np.empty((keep, ds.vectors.shape[1]))
    for i in range(keep):
        d = evecs[:, i] @ centered
        comps[i] = d / np.sqrt(evals[i])
    ratios = evals[:keep] / total
    return PcaResult(mean=mean, components=comps,
                     explained_variance_ratios=ratios)


def project_along_component(result: PcaResult, base: MeasureNetwork,
                            component_index: int, s: float) -> MeasureNetwork:
    """Network at signed step s along one principal direction from the
    dataset mean."""
    if not 0 <= component_index < result.num_components:
        raise GwnetError(f"component {component_index} out of range "
                         f"(have {result.num_components})")
    n = base.size
    if result.mean.size != n * n:
        raise GwnetError(
            f"base has {n} nodes, but the dataset rows have "
            f"{result.mean.size} entries, not {n * n}")
    vec = result.mean + s * result.components[component_index]
    v = TangentVector(base, vec.reshape(n, n))
    return exp_map(v)


def featurize(ds: TangentDataset) -> np.ndarray:
    """Feature matrix for downstream learners.

    Rows are the tangent rows scaled entrywise by sqrt of the weights, so
    plain Euclidean dot products between feature rows equal the weighted
    tangent inner products.
    """
    return ds.vectors * np.sqrt(ds.weights)[None, :]
