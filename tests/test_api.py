import ast
import importlib
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
    # the compressed step takes its targets in closed form, not from a
    # blow-up
    assert not hasattr(gwnet.alignment, "_block_average")
    # settings and outputs that no program set or read
    assert [f.name for f in fields(gwnet.MeasureNetwork)] == ["omega", "mu"]
    for func, name in ((gwnet.frechet_mean, "seed_rng"),
                       (gwnet.asymmetry_sweep, "params")):
        assert name not in inspect.signature(func).parameters, name
    assert "permutation" not in [f.name for f in fields(gwnet.SbmRun)]
    assert "weights" not in [f.name for f in fields(gwnet.PcaResult)]
    two = gwnet.MeasureNetwork([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    assert isinstance(gwnet.geodesic_aligned(two, two).pair,
                      gwnet.AlignedPair)
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
    # one way into each alignment: log_map blows up the coupling it is
    # given, geodesic_aligned solves first, and nothing else wraps blow_up
    for name in ("align", "binarize"):
        assert not hasattr(gwnet, name), name
        assert name not in gwnet.__all__, name
        assert not hasattr(gwnet.alignment, name), name
    assert list(inspect.signature(gwnet.log_map).parameters) == [
        "X", "Y", "coupling"]
    assert list(inspect.signature(gwnet.geodesic_aligned).parameters) == [
        "X", "Y", "params"]
    # restart vertices come from the transport solver
    assert not hasattr(gwnet, "northwest_corner")
    assert "northwest_corner" not in gwnet.__all__
    assert not hasattr(gwnet.gw, "northwest_corner")
    # one home for each fact: the file functions alone hold a network's
    # json form, solve_gw alone reads a warm start, a PCA result carries
    # its base, and a dataset's weights come from its base measure
    for name in ("network_to_dict", "network_from_dict"):
        assert not hasattr(gwnet, name), name
        assert name not in gwnet.__all__, name
        assert not hasattr(gwnet.networks, name), name
    assert not hasattr(gwnet.frechet, "_check_warm")
    assert list(inspect.signature(
        gwnet.project_along_component).parameters) == [
            "result", "component_index", "s"]
    assert "base" in [f.name for f in fields(gwnet.PcaResult)]
    # one record from the mean to PCA: the tangent dataset is the
    # FrechetGradient, which a mean keeps; a coupling's support is the size
    # of its checked blow-up
    for module, name in ((gwnet.analysis, "TangentDataset"),
                         (gwnet.alignment, "support_size")):
        assert not hasattr(gwnet, name), name
        assert name not in gwnet.__all__, name
        assert not hasattr(module, name), name
    assert [f.name for f in fields(gwnet.FrechetResult)] == [
        "gradient", "converged", "iterations", "trace"]
    # the mean's gradient is a plain matrix on FrechetGradient.base
    assert not hasattr(gwnet.frechet, "TangentVector")
    for module in (gwnet.alignment, gwnet.tangent):
        for name in ("solve_gw", "GwParams"):
            assert not hasattr(module, name), (module.__name__, name)
    # one error class: no program caught the subclasses by name
    for module, name in (
            (gwnet.networks, "NonSquareError"),
            (gwnet.networks, "NonProbabilityError"),
            (gwnet.networks, "NonFiniteEntryError"),
            (gwnet.networks, "DimensionMismatchError"),
            (gwnet.networks, "ParseError"),
            (gwnet.linear_ot, "InfeasibleMarginalsError"),
            (gwnet.gw, "NegativeRadicandError"),
            (gwnet.geodesics, "OutOfRangeError")):
        assert not hasattr(gwnet, name), name
        assert name not in gwnet.__all__, name
        assert not hasattr(module, name), name
    # no program read the solver's objective trace
    assert "objective_trace" not in [f.name for f in fields(gwnet.SolveReport)]
    # solve_gw alone applies the start rule, and the mean builds its next
    # starts itself
    assert not hasattr(gwnet.frechet, "_warm_params")
    assert not hasattr(gwnet.alignment, "_expansion_matrix")
    # networks._coupling_of is the one reading of a coupling argument
    for name in ("_as_matrix", "_check_shapes"):
        assert not hasattr(gwnet.gw, name), name


def test_every_raise_in_the_library_raises_gwnet_error():
    """Every raise statement in src/gwnet raises GwnetError, or re-raises:
    a bare raise, or a raise of a name an except clause bound."""
    wrong = []
    for f in sorted((ROOT / "src" / "gwnet").glob("*.py")):
        tree = ast.parse(f.read_text(encoding="utf-8"))
        caught = {node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler) and node.name}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and (exc.id == "GwnetError"
                                              or exc.id in caught):
                continue
            wrong.append(f"{f.name}:{node.lineno}")
    assert wrong == []


def test_every_other_exception_class_is_caught_by_name():
    """An exception class defined in src/gwnet other than GwnetError is
    caught by name somewhere in src/gwnet, bench/ or demos/; a class no
    program tells apart from GwnetError is GwnetError."""
    defined = set()
    for f in (ROOT / "src" / "gwnet").glob("*.py"):
        if f.name == "__init__.py":
            continue
        module = importlib.import_module(f"gwnet.{f.stem}")
        defined.update(name for name, obj in vars(module).items()
                       if isinstance(obj, type)
                       and issubclass(obj, BaseException)
                       and obj.__module__ == module.__name__)
    assert "GwnetError" in defined
    caught = set()
    files = list((ROOT / "src" / "gwnet").glob("*.py"))
    files += list((ROOT / "bench").glob("*.py"))
    files += list((ROOT / "demos").glob("*.py"))
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, ast.Name):
                        caught.add(name.id)
                    elif isinstance(name, ast.Attribute):
                        caught.add(name.attr)
    assert sorted(defined - caught - {"GwnetError"}) == []


def test_every_exported_name_has_a_program_caller():
    """Every function in __all__ is called, and every other name in it is
    referenced, by the library outside __init__.py, by bench/ (its test
    files excluded) or by demos/.

    A call is an ast.Call whose callee is a Name or an Attribute with the
    function's name, so a field of the same name (SolveReport.gw_distance)
    does not hide an exported function that no program calls. A reference
    is an ast.Name or ast.Attribute with the name anywhere in those files.
    Neither sees dead code that only other dead code calls: an exported
    function whose one caller no program calls passes.
    """
    seen, called = set(), set()
    for f in _program_files():
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Call):
                called.add(getattr(node.func, "id",
                                   getattr(node.func, "attr", None)))
    funcs = {name for name in gwnet.__all__
             if inspect.isfunction(getattr(gwnet, name))}
    assert sorted(funcs - called) == []
    assert sorted(set(gwnet.__all__) - funcs - seen) == []


def _program_files() -> list[Path]:
    """The library outside __init__.py, bench/ without its tests, demos/."""
    files = [f for f in (ROOT / "src" / "gwnet").glob("*.py")
             if f.name != "__init__.py"]
    files += [f for f in (ROOT / "bench").glob("*.py")
              if not f.name.startswith("test_")]
    return files + list((ROOT / "demos").glob("*.py"))


def test_every_parameter_is_passed_by_a_program():
    """Every parameter of every function in __all__ is passed at some call
    of it in the program files: by keyword, by position, or through * or
    ** (which count for every parameter). A call is an ast.Call whose
    callee is a Name or an Attribute with the function's name. Classes
    are not covered."""
    funcs = {name: inspect.signature(getattr(gwnet, name)).parameters
             for name in gwnet.__all__
             if inspect.isfunction(getattr(gwnet, name))}
    passed = {name: set() for name in funcs}
    for f in _program_files():
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee not in funcs:
                continue
            params = list(funcs[callee])
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed[callee].update(params)
                continue
            passed[callee].update(params[:len(node.args)])
            passed[callee].update(k.arg for k in node.keywords)
    unpassed = sorted(f"{name}.{p}" for name, params in funcs.items()
                      for p, spec in params.items()
                      if p not in passed[name]
                      and spec.kind not in (spec.VAR_POSITIONAL,
                                            spec.VAR_KEYWORD))
    assert unpassed == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never refers to. A dotted `import a.b`
    binds `a`; `from __future__` imports are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    files = [f for f in (ROOT / "src" / "gwnet").glob("*.py")
             if f.name != "__init__.py"]
    files += list((ROOT / "tests").glob("*.py"))
    files += list((ROOT / "demos").glob("*.py"))
    unused = {f"{f.parent.name}/{f.name}": names for f in files
              if (names := _unused_imports(f))}
    assert unused == {}


def test_solver_and_mean_settings():
    assert [f.name for f in fields(gwnet.GwParams)] == [
        "max_outer_iters", "given", "restarts", "rng_seed"]
    assert [f.name for f in fields(gwnet.FrechetParams)] == [
        "max_iters", "compress", "gw"]
