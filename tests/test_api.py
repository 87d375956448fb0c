import inspect
from dataclasses import fields

import gwnet


def test_every_public_name_resolves():
    assert len(set(gwnet.__all__)) == len(gwnet.__all__)
    for name in gwnet.__all__:
        assert hasattr(gwnet, name), name


def test_every_public_attribute_is_listed():
    public = {name for name, obj in vars(gwnet).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public <= set(gwnet.__all__)


def test_removed_names_stay_removed():
    assert not hasattr(gwnet, "NotVertexCouplingError")
    assert "NotVertexCouplingError" not in gwnet.__all__
    assert not hasattr(gwnet.BlowupPlan, "expand_target")
    # the copy counts u and v are derived from the indices, not stored
    assert [f.name for f in fields(gwnet.BlowupPlan)] == [
        "source_index", "target_index"]
    assert "lift" not in [f.name for f in fields(gwnet.FrechetGradient)]
    for name in ("FULL_STEPS", "ARMIJO_BETA", "ARMIJO_SIGMA"):
        assert not hasattr(gwnet.frechet, name), name
    assert "warm" not in inspect.signature(gwnet.frechet_loss).parameters
    assert not hasattr(gwnet, "distortion_tensor")
    assert "distortion_tensor" not in gwnet.__all__
    assert not hasattr(gwnet.gw, "distortion_tensor")
    assert "max_iters_exceeded" not in [
        f.name for f in fields(gwnet.FrechetResult)]
    assert not hasattr(gwnet, "geodesic_naive")
    assert "geodesic_naive" not in gwnet.__all__
    assert not hasattr(gwnet.geodesics, "geodesic_naive")
    assert not hasattr(gwnet, "to_vertex_coupling")
    assert "to_vertex_coupling" not in gwnet.__all__
    assert not hasattr(gwnet.alignment, "to_vertex_coupling")
    assert "init_coupling" not in [f.name for f in fields(gwnet.GwParams)]
    for func in (gwnet.binarize, gwnet.support_size):
        assert "threshold" not in inspect.signature(func).parameters
    assert "gw_params" not in inspect.signature(
        gwnet.support_size_sweep).parameters


def test_solver_and_mean_settings():
    assert [f.name for f in fields(gwnet.GwParams)] == [
        "max_outer_iters", "given", "restarts", "rng_seed"]
    assert [f.name for f in fields(gwnet.FrechetParams)] == [
        "max_iters", "compress", "gw"]
