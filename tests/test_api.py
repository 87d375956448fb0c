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
    assert not hasattr(gwnet, "validate_network")
    assert "validate_network" not in gwnet.__all__
    assert not hasattr(gwnet.networks, "validate_network")
    # a file's name alone chooses its format
    for func in (gwnet.write_network, gwnet.read_network):
        assert "format" not in inspect.signature(func).parameters
    # no program read or wrote tangent files; the expansion couplings and
    # the cold-solve loss are test oracles
    for module, names in (
            (gwnet.tangent, ("tangent_to_dict", "tangent_from_dict",
                             "write_tangent", "read_tangent")),
            (gwnet.alignment, ("expansion_coupling_source",
                               "expansion_coupling_target")),
            (gwnet.frechet, ("frechet_loss",))):
        for name in names:
            assert not hasattr(gwnet, name), name
            assert name not in gwnet.__all__, name
            assert not hasattr(module, name), name
    assert "plan" not in [f.name for f in fields(gwnet.TangentVector)]
    assert not hasattr(gwnet.BlowupPlan, "v")
    assert not hasattr(gwnet.AlignedPair, "target_network")
    # the mean's base is glued in one step, so nothing replays or lifts
    # onto a grown base
    assert not hasattr(gwnet.BlowupPlan, "expand")
    assert not hasattr(gwnet.frechet, "_lift_coupling")
    # frechet_gradient is the one step that aligns a collection to a base
    assert not hasattr(gwnet, "sequential_log")
    assert "sequential_log" not in gwnet.__all__
    for name in ("sequential_log", "_SequentialLog", "_compress_log"):
        assert not hasattr(gwnet.frechet, name), name
    # settings and outputs that no program set or read
    assert [f.name for f in fields(gwnet.MeasureNetwork)] == ["omega", "mu"]
    for func, name in ((gwnet.uniform_network, "labels"),
                       (gwnet.frechet_mean, "seed_rng"),
                       (gwnet.asymmetry_sweep, "params")):
        assert name not in inspect.signature(func).parameters, name
    assert "permutation" not in [f.name for f in fields(gwnet.SbmRun)]
    assert "weights" not in [f.name for f in fields(gwnet.PcaResult)]
    two = gwnet.uniform_network([[0.0, 1.0], [1.0, 0.0]])
    assert isinstance(gwnet.align(two, two), gwnet.AlignedPair)
    prob = gwnet.OtProblem(two.omega, two.mu, two.mu)
    assert isinstance(gwnet.solve_linear_ot(prob), gwnet.Coupling)


def test_solver_and_mean_settings():
    assert [f.name for f in fields(gwnet.GwParams)] == [
        "max_outer_iters", "given", "restarts", "rng_seed"]
    assert [f.name for f in fields(gwnet.FrechetParams)] == [
        "max_iters", "compress", "gw"]
