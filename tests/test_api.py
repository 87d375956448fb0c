import ast
import inspect
from dataclasses import fields
from pathlib import Path

import gwnet

ROOT = Path(__file__).resolve().parents[1]


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
    assert not hasattr(gwnet.AlignedPair, "expand_target")
    # an aligned pair holds its own node maps; the copy counts are derived
    # from them, not stored
    assert [f.name for f in fields(gwnet.AlignedPair)] == [
        "omega_xhat", "omega_yhat", "mu_hat", "source_index", "target_index"]
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
    assert not hasattr(gwnet.AlignedPair, "v")
    assert not hasattr(gwnet.AlignedPair, "target_network")
    # the mean's base is glued in one step, so nothing replays or lifts
    # onto a grown base
    assert not hasattr(gwnet.AlignedPair, "expand")
    assert not hasattr(gwnet.frechet, "_lift_coupling")
    # frechet_gradient is the one step that aligns a collection to a base
    assert not hasattr(gwnet, "sequential_log")
    assert "sequential_log" not in gwnet.__all__
    for name in ("sequential_log", "_SequentialLog", "_compress_log"):
        assert not hasattr(gwnet.frechet, name), name
    # an aligned pair carries its node maps itself, and the compressed
    # representative is one compressed frechet_gradient step
    for module, name in ((gwnet.alignment, "BlowupPlan"),
                         (gwnet.frechet, "compress_log")):
        assert not hasattr(gwnet, name), name
        assert name not in gwnet.__all__, name
        assert not hasattr(module, name), name
    assert not hasattr(gwnet.alignment, "_square")
    # settings and outputs that no program set or read
    assert [f.name for f in fields(gwnet.MeasureNetwork)] == ["omega", "mu"]
    for func, name in ((gwnet.frechet_mean, "seed_rng"),
                       (gwnet.asymmetry_sweep, "params")):
        assert name not in inspect.signature(func).parameters, name
    assert "permutation" not in [f.name for f in fields(gwnet.SbmRun)]
    assert "weights" not in [f.name for f in fields(gwnet.PcaResult)]
    two = gwnet.MeasureNetwork([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    assert isinstance(gwnet.align(two, two), gwnet.AlignedPair)
    prob = gwnet.OtProblem(two.omega, two.mu, two.mu)
    assert isinstance(gwnet.solve_linear_ot(prob), gwnet.Coupling)
    # public code that only tests called
    for module, names in (
            (gwnet.gw, ("gw_gradient",)),
            (gwnet.tangent, ("injectivity_radius", "GeodesicCertificate",
                             "geodesic_certificate", "inner_product", "norm",
                             "BaseMismatchError")),
            (gwnet.networks, ("uniform_network",))):
        for name in names:
            assert not hasattr(gwnet, name), name
            assert name not in gwnet.__all__, name
            assert not hasattr(module, name), name
    for name in ("__add__", "__sub__", "__mul__", "__rmul__",
                 "_check_same_base"):
        assert name not in vars(gwnet.TangentVector), name


def test_every_exported_name_has_a_program_caller():
    """Every name in __all__ is referenced by the library outside
    __init__.py, by bench/ (its test files excluded) or by demos/.

    A reference is an ast.Name or ast.Attribute with that name anywhere in
    those files, so this cannot see dead code that only other dead code
    calls: an exported function whose one caller no program calls passes.
    """
    files = [f for f in (ROOT / "src" / "gwnet").glob("*.py")
             if f.name != "__init__.py"]
    files += [f for f in (ROOT / "bench").glob("*.py")
              if not f.name.startswith("test_")]
    files += list((ROOT / "demos").glob("*.py"))
    seen = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    assert sorted(set(gwnet.__all__) - seen) == []


def test_solver_and_mean_settings():
    assert [f.name for f in fields(gwnet.GwParams)] == [
        "max_outer_iters", "given", "restarts", "rng_seed"]
    assert [f.name for f in fields(gwnet.FrechetParams)] == [
        "max_iters", "compress", "gw"]
