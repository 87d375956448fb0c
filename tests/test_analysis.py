import numpy as np
import pytest

from gwnet import (GwnetError, featurize, project_along_component,
                   tangent_pca, vectorize_at_base)

from conftest import diagonal_start, random_network
from oracles import dense_weighted_pca


def _aligned_family(rng, n, count, spread=0.05):
    """Same-size perturbations of one network; identity couplings stay
    optimal, so the base never grows and rows are exact differences."""
    A = random_network(rng, n)
    return A, [A.with_omega(A.omega + spread * rng.standard_normal((n, n)))
               for _ in range(count)]


# --------------------------------------------------------------- vectorize

def test_vectorize_rows_are_aligned_differences():
    rng = np.random.default_rng(50)
    A, nets = _aligned_family(rng, 3, 4)
    ds = vectorize_at_base(A, nets, diagonal_start(A))
    assert ds.base.size == 3
    for row, net in zip(ds.vectors, nets):
        assert np.allclose(row, (net.omega - A.omega).ravel(), atol=1e-12)
    assert np.allclose(ds.weights, np.outer(A.mu, A.mu).ravel())


def test_vectorize_rejects_an_empty_collection(two_swap):
    with pytest.raises(GwnetError):
        vectorize_at_base(two_swap, [])


# --------------------------------------------------------------------- pca

def test_rank_one_family_has_a_single_component():
    rng = np.random.default_rng(51)
    A = random_network(rng, 3)
    direction = rng.standard_normal((3, 3))
    nets = [A.with_omega(A.omega + t * direction)
            for t in (-0.1, -0.05, 0.05, 0.1)]
    ds = vectorize_at_base(A, nets, diagonal_start(A))
    result = tangent_pca(ds)
    assert result.num_components == 1
    assert result.explained_variance_ratios[0] == pytest.approx(1.0, abs=1e-9)
    # the component is the direction, weighted-normalized, up to sign
    w = ds.weights
    d = direction.ravel()
    d = d / np.sqrt(float((d * d * w).sum()))
    c = result.components[0]
    assert min(np.abs(c - d).max(), np.abs(c + d).max()) <= 1e-8


def test_pca_matches_the_dense_oracle():
    rng = np.random.default_rng(52)
    A, nets = _aligned_family(rng, 3, 5)
    ds = vectorize_at_base(A, nets, diagonal_start(A))
    result = tangent_pca(ds)
    mean, comps, ratios = dense_weighted_pca(ds.vectors, ds.weights)
    assert np.allclose(result.mean, mean, atol=1e-12)
    assert result.num_components == comps.shape[0]
    assert np.allclose(result.explained_variance_ratios, ratios, atol=1e-9)
    for mine, ref in zip(result.components, comps):
        assert min(np.abs(mine - ref).max(), np.abs(mine + ref).max()) <= 1e-8


def test_components_are_orthonormal_in_the_weighted_product():
    rng = np.random.default_rng(53)
    A, nets = _aligned_family(rng, 4, 6)
    ds = vectorize_at_base(A, nets, diagonal_start(A))
    result = tangent_pca(ds)
    G = (result.components * ds.weights) @ result.components.T
    assert np.allclose(G, np.eye(result.num_components), atol=1e-9)


def test_ratios_are_descending_and_sum_to_one():
    rng = np.random.default_rng(54)
    A, nets = _aligned_family(rng, 3, 6)
    ds = vectorize_at_base(A, nets, diagonal_start(A))
    result = tangent_pca(ds)
    r = result.explained_variance_ratios
    assert np.all(np.diff(r) <= 1e-12)
    assert r.sum() == pytest.approx(1.0, abs=1e-9)


def test_degenerate_data_yields_no_components():
    rng = np.random.default_rng(55)
    A = random_network(rng, 3)
    ds = vectorize_at_base(A, [A, A, A], diagonal_start(A))
    result = tangent_pca(ds)
    assert result.num_components == 0
    assert result.explained_variance_ratios.size == 0


def test_num_components_caps_the_output():
    rng = np.random.default_rng(56)
    A, nets = _aligned_family(rng, 3, 6)
    ds = vectorize_at_base(A, nets, diagonal_start(A))
    result = tangent_pca(ds, num_components=2)
    assert result.num_components == 2
    assert tangent_pca(ds, num_components=0).components.shape == \
        (0, ds.vectors.shape[1])
    for count in (-1, 2.5, "2", float("nan")):
        with pytest.raises(GwnetError):
            tangent_pca(ds, num_components=count)


def test_pca_needs_at_least_two_networks():
    rng = np.random.default_rng(57)
    A = random_network(rng, 3)
    ds = vectorize_at_base(A, [A], diagonal_start(A))
    with pytest.raises(GwnetError):
        tangent_pca(ds)


# -------------------------------------------------------------- projection

def test_projection_at_zero_is_the_mean_shape():
    rng = np.random.default_rng(58)
    A, nets = _aligned_family(rng, 3, 4)
    ds = vectorize_at_base(A, nets, diagonal_start(A))
    result = tangent_pca(ds)
    net = project_along_component(result, 0, 0.0)
    expect = ds.base.omega + result.mean.reshape(3, 3)
    assert np.allclose(net.omega, expect, atol=1e-12)


def test_projection_moves_linearly_along_the_component():
    rng = np.random.default_rng(59)
    A, nets = _aligned_family(rng, 3, 4)
    ds = vectorize_at_base(A, nets, diagonal_start(A))
    result = tangent_pca(ds)
    plus = project_along_component(result, 0, 1.0)
    minus = project_along_component(result, 0, -1.0)
    diff = (plus.omega - minus.omega).ravel()
    assert np.allclose(diff, 2.0 * result.components[0], atol=1e-12)


def test_projection_checks_the_component_index():
    rng = np.random.default_rng(60)
    A, nets = _aligned_family(rng, 3, 4)
    ds = vectorize_at_base(A, nets, diagonal_start(A))
    result = tangent_pca(ds)
    with pytest.raises(GwnetError, match="out of range"):
        project_along_component(result, result.num_components, 0.5)
    with pytest.raises(GwnetError, match="component -1 out of range"):
        project_along_component(result, -1, 0.5)
    for index in (1.5, True):
        with pytest.raises(GwnetError, match="component must be an integer"):
            project_along_component(result, index, 0.5)


# ---------------------------------------------------------------- features

def test_feature_dot_products_equal_weighted_inner_products():
    rng = np.random.default_rng(61)
    A, nets = _aligned_family(rng, 3, 5)
    ds = vectorize_at_base(A, nets, diagonal_start(A))
    F = featurize(ds)
    gram_feat = F @ F.T
    gram_weighted = (ds.vectors * ds.weights) @ ds.vectors.T
    assert np.allclose(gram_feat, gram_weighted, atol=1e-12)
