import csv
import json

import numpy as np
import pytest

import gwnet.cli
from gwnet import (FrechetParams, GwParams, GwnetError, MeasureNetwork,
                   SbmSpec, compressed_average, evaluate, featurize,
                   frechet_mean, generate_sbm, geodesic_aligned, gw_distance,
                   read_network, tangent_pca, vectorize_at_base,
                   write_network)
from gwnet.cli import main

from conftest import random_network


def _write(net, path):
    write_network(net, path)
    return str(path)


@pytest.fixture
def example_files(tmp_path, one_node, two_swap):
    x = _write(one_node, tmp_path / "one.json")
    y = _write(two_swap, tmp_path / "swap.json")
    return x, y


# ---------------------------------------------------------------- distance

def test_distance_prints_and_writes_the_coupling(example_files, tmp_path,
                                                 capsys):
    x, y = example_files
    out = tmp_path / "coupling.json"
    rc = main(["distance", x, y, "--out", str(out)])
    assert rc == 0
    assert "gwDistance 0.353553391" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["matrix"] == [[0.5, 0.5]]
    assert payload["cost"] == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert payload["gwDistance"] == pytest.approx(np.sqrt(0.5) / 2, rel=1e-12)
    assert payload["converged"] is True
    # the only feasible coupling is already optimal, so no steps are taken
    assert payload["iterations"] >= 0


def test_distance_on_a_missing_file_fails_cleanly(tmp_path, capsys):
    rc = main(["distance", str(tmp_path / "no.json"),
               str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_distance_on_a_malformed_file_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"omega\": [[0, 1]]}")
    rc = main(["distance", str(bad), str(bad)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["distance", "{bad}", "{y}"],
    ["geodesic", "{x}", "{bad}"],
    ["compress", "{bad}", "{y}"],
    ["mean", "{x}", "{y}", "--seed-net", "{bad}"],
    ["pca", "{x}", "{y}", "--base", "{bad}"],
    ["featurize", "{x}", "{y}", "--base", "{bad}"],
])
def test_every_network_read_names_a_file_that_does_not_parse(
        argv, example_files, tmp_path, capsys):
    # a file that does not parse, and well-formed ones whose network is
    # invalid: the error names the file either way
    x, y = example_files
    bad = tmp_path / "bad.json"
    for text, message in (
            ("{bad", "invalid json"),
            ('{"omega": [[0, 1], [1, 0]], "mu": [0.6, 0.6]}',
             "mu sums to 1.2, expected 1"),
            ('{"omega": [[0, 1, 2], [3, 4, 5]], "mu": [0.5, 0.5]}',
             "omega must be square, got shape (2, 3)")):
        bad.write_text(text)
        args = [a.format(x=x, y=y, bad=bad) for a in argv]
        assert main(args + ["--out", str(tmp_path / "out")]) == 1
        assert f"error: {bad}: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------- geodesic

def test_geodesic_writes_interpolants_and_manifest(example_files, tmp_path,
                                                   capsys):
    x, y = example_files
    outdir = tmp_path / "geo"
    rc = main(["geodesic", x, y, "--ts", "0,0.5,1", "--out", str(outdir),
               "--mask-threshold", "0.5"])
    assert rc == 0
    assert "halfLength 0.353553391" in capsys.readouterr().out
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["ts"] == [0.0, 0.5, 1.0]
    assert manifest["size"] == 2
    assert manifest["halfLength"] == pytest.approx(np.sqrt(0.5) / 2)
    assert manifest["lowWeightMask"] == [False, False]
    assert manifest["files"] == ["t_0.0000.json", "t_0.5000.json",
                                 "t_1.0000.json"]
    mid = read_network(outdir / "t_0.5000.json")
    assert np.array_equal(mid.omega, [[0.5, 1.0], [1.0, 0.5]])
    assert np.array_equal(mid.mu, [0.5, 0.5])


def test_geodesic_checks_every_t_before_writing(example_files, tmp_path,
                                                capsys):
    x, y = example_files
    outdir = tmp_path / "geo"
    outdir.mkdir()
    rc = main(["geodesic", x, y, "--ts", "0,0.5,2", "--out", str(outdir)])
    assert rc == 1
    assert "[0, 1]" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5"])
def test_geodesic_rejects_a_mask_threshold_that_is_not_finite_and_nonnegative(
        example_files, tmp_path, capsys, threshold):
    # every comparison with nan is false: a nan threshold flags no node
    x, y = example_files
    outdir = tmp_path / "geo"
    outdir.mkdir()
    rc = main(["geodesic", x, y, "--out", str(outdir),
               f"--mask-threshold={threshold}"])
    assert rc == 1
    assert "--mask-threshold" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


def test_geodesic_rejects_ts_that_name_the_same_file(example_files, tmp_path,
                                                     capsys):
    # t_0.1000.json for both: the second network would overwrite the first
    x, y = example_files
    outdir = tmp_path / "geo"
    outdir.mkdir()
    rc = main(["geodesic", x, y, "--ts", "0.10001,0.10002,0.5",
               "--out", str(outdir)])
    assert rc == 1
    assert "t_0.1000.json" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []
    # a repeated value names its file twice, as before
    assert main(["geodesic", x, y, "--ts", "0.5,0.5", "--out",
                 str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["files"] == ["t_0.5000.json", "t_0.5000.json"]


# -------------------------------------------------------------------- mean

def test_mean_command_recovers_the_midpoint(tmp_path, two_swap, capsys):
    xhat = MeasureNetwork(np.ones((2, 2)), np.array([0.5, 0.5]))
    indir = tmp_path / "members"
    indir.mkdir()
    _write(xhat, indir / "a_flat.json")
    _write(two_swap, indir / "b_swap.json")
    out = tmp_path / "mean.json"
    rc = main(["mean", str(indir), "--out", str(out)])
    assert rc == 0
    assert "loss 0.031250000" in capsys.readouterr().out
    mean = read_network(out)
    Z = MeasureNetwork(np.array([[0.5, 1.0], [1.0, 0.5]]),
                       np.array([0.5, 0.5]))
    assert gw_distance(mean, Z, GwParams(restarts=8)) <= 1e-6
    trace = (tmp_path / "mean.json.trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,loss,baseSize"
    assert len(trace) >= 2


def test_mean_takes_one_seed_flag_only(example_files, tmp_path, capsys):
    x, y = example_files
    out = tmp_path / "mean.json"
    rc = main(["mean", x, y, "--seed-net", x, "--seed-size", "3",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--seed-net" in err and "--seed-size" in err
    assert not out.exists()


# ---------------------------------------------------------------- compress

def test_compress_command_averages_at_the_base_size(tmp_path, two_swap):
    X = MeasureNetwork(np.array([[0.0]]), np.array([1.0]))
    x = _write(X, tmp_path / "point.json")
    y = _write(two_swap, tmp_path / "swap.json")
    out = tmp_path / "avg.json"
    rc = main(["compress", x, y, "--out", str(out)])
    assert rc == 0
    avg = read_network(out)
    assert np.array_equal(avg.omega, [[0.25]])


# --------------------------------------------------------------------- pca

@pytest.fixture
def family_dir(tmp_path):
    rng = np.random.default_rng(70)
    A = random_network(rng, 3)
    nets = [A] + [A.with_omega(A.omega + 0.05 * rng.standard_normal((3, 3)))
                  for _ in range(3)]
    indir = tmp_path / "family"
    indir.mkdir()
    for k, net in enumerate(nets):
        _write(net, indir / f"net{k}.json")
    return indir, nets


def test_pca_command_matches_the_library(family_dir, tmp_path, capsys):
    indir, nets = family_dir
    out = tmp_path / "pca.json"
    # --grid=-1,1 keeps argparse from reading the value as a flag
    rc = main(["pca", str(indir), "--components", "1", "--grid=-1,1",
               "--out", str(out)])
    assert rc == 0
    assert "ratios [" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    ds = vectorize_at_base(nets[0], nets, GwParams(restarts=0, rng_seed=0))
    result = tangent_pca(ds, 1)
    assert payload["explainedVarianceRatios"] == \
        result.explained_variance_ratios.tolist()
    assert payload["baseSize"] == ds.base.size
    assert np.allclose(payload["components"], result.components)
    for s in ("+1.000", "-1.000"):
        assert (tmp_path / f"pca_c0_s{s}.json").exists()


def test_pca_rejects_a_bad_grid_before_it_solves(family_dir, tmp_path,
                                                 capsys):
    indir, _ = family_dir
    out = tmp_path / "pca.json"
    assert main(["pca", str(indir), "--grid", "0,x", "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0,nan", "inf", "-inf,1"])
def test_pca_rejects_a_step_that_is_not_finite_before_it_solves(
        family_dir, tmp_path, capsys, grid):
    indir, _ = family_dir
    out = tmp_path / "pca.json"
    assert main(["pca", str(indir), f"--grid={grid}", "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.glob("pca*")) == []


def test_pca_rejects_steps_that_name_the_same_file(family_dir, tmp_path,
                                                   capsys):
    indir, _ = family_dir
    out = tmp_path / "pca.json"
    assert main(["pca", str(indir), "--grid=0.1,0.1001",
                 "--out", str(out)]) == 1
    assert "s+0.100.json" in capsys.readouterr().err
    assert list(tmp_path.glob("pca*")) == []
    # a repeated step writes the same network twice
    assert main(["pca", str(indir), "--grid=0.1,0.1", "--components", "1",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.glob("pca*")) == [
        "pca.json", "pca_c0_s+0.100.json"]


def test_pca_checks_the_component_count_before_it_reads(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["pca", str(missing), "--components", "-1",
                 "--out", str(tmp_path / "pca.json")]) == 1
    err = capsys.readouterr().err
    assert "error: --components must be at least 0, got -1" in err
    assert "io error" not in err


# --------------------------------------------------------------- featurize

def test_featurize_command_round_trips_the_features(family_dir, tmp_path):
    indir, nets = family_dir
    labels = tmp_path / "labels.csv"
    labels.write_text("net0,groupA\nnet1,groupB\n")
    out = tmp_path / "features.csv"
    rc = main(["featurize", str(indir), "--labels", str(labels),
               "--out", str(out)])
    assert rc == 0
    ds = vectorize_at_base(nets[0], nets, GwParams(restarts=0, rng_seed=0))
    feats = featurize(ds)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label"] + [f"f{i}" for i in range(feats.shape[1])]
    assert [r[0] for r in rows[1:]] == ["groupA", "groupB", "net2", "net3"]
    got = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    assert np.array_equal(got, feats)


def test_featurize_labels_that_are_not_utf8_fail_cleanly(family_dir,
                                                         tmp_path, capsys):
    indir, _ = family_dir
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"n0,\xff\xfe\n")
    out = tmp_path / "features.csv"
    rc = main(["featurize", str(indir), "--labels", str(labels),
               "--out", str(out)])
    assert rc == 1
    assert f"error: {labels}: not utf-8 text" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------- solver flags

@pytest.mark.parametrize("command", ["pca", "featurize", "compress"])
def test_solver_flags_reach_the_library(command, family_dir, example_files,
                                        monkeypatch):
    seen = []

    def capture(*args):
        seen.append(args[-1])
        raise GwnetError("captured")

    monkeypatch.setattr(gwnet.cli, "vectorize_at_base", capture)
    monkeypatch.setattr(gwnet.cli, "compressed_average", capture)
    inputs = list(example_files) if command == "compress" \
        else [str(family_dir[0])]
    rc = main([command, *inputs, "--max-iters", "7", "--restarts", "3",
               "--seed", "5"])
    assert rc == 1
    # compress hands over FrechetParams, the others GwParams
    params = getattr(seen[0], "gw", seen[0])
    assert (params.max_outer_iters, params.restarts, params.rng_seed) == \
        (7, 3, 5)


def test_mean_flags_reach_the_mean(family_dir, monkeypatch):
    seen = []

    def capture(nets, params, **kwargs):
        seen.append(params)
        raise GwnetError("captured")

    monkeypatch.setattr(gwnet.cli, "frechet_mean", capture)
    rc = main(["mean", str(family_dir[0]), "--max-iters", "7", "--restarts",
               "3", "--seed", "5"])
    assert rc == 1
    # on mean, --max-iters caps the mean iterations, not Frank-Wolfe
    params = seen[0]
    assert params.max_iters == 7
    assert (params.gw.max_outer_iters, params.gw.restarts,
            params.gw.rng_seed) == (200, 3, 5)


# --------------------------------------------------------------- sbm tools

def test_sbm_gen_writes_a_noiseless_draw(tmp_path, capsys):
    out = tmp_path / "net.json"
    rc = main(["sbm-gen", "--block-sizes", "2,2", "--means", "1,2;3,4",
               "--variance", "0", "--out", str(out)])
    assert rc == 0
    net = read_network(out)
    assert net.size == 4
    assert set(np.unique(net.omega)) == {1.0, 2.0, 3.0, 4.0}


def test_sbm_experiment_reports_noiseless_recovery(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["sbm-experiment", "--block-sizes", "3,3",
               "--means", "4,1;2,3", "--variance", "0",
               "--runs", "1", "--out", str(out)])
    assert rc == 0
    assert "passCount 1/1" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["passCount"] == 1
    assert payload["target"] == [[2.0, 0.5], [1.0, 1.5]]
    assert len(payload["runs"]) == 1
    assert payload["runs"][0]["maxDeviation"] <= 1e-9
    assert len(payload["recovered"]) == 1


def test_sbm_experiment_writes_csv_rows(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["sbm-experiment", "--block-sizes", "3,3",
               "--means", "4,1;2,3", "--variance", "0",
               "--runs", "2", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert list(rows[0]) == ["seed", "maxDeviation", "passed",
                             "singleShotMaxDeviation", "iterations",
                             "converged"]
    assert all(r["passed"] == "True" for r in rows)


# ------------------------------------------------------------------ sweeps

def test_support_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["support-sweep", "--sizes", "3", "--trials", "2",
               "--out", str(out)])
    assert rc == 0
    assert "n=3:median=" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == {"n", "trial", "support_size", "ratio"}


def test_support_sweep_prints_half_integer_medians(tmp_path, capsys):
    # this seed's two trials have supports 5 and 8
    rc = main(["support-sweep", "--sizes", "5", "--trials", "2", "--seed",
               "3", "--out", str(tmp_path / "sweep.csv")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "n=5:median=6.5"


def test_support_sweep_writes_json_to_a_json_name(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["support-sweep", "--sizes", "3", "--trials", "2",
               "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert [set(row) for row in rows] == [
        {"n", "trial", "support_size", "ratio"}] * 2


def test_asym_sweep_writes_csv(tmp_path):
    out = tmp_path / "asym.csv"
    rc = main(["asym-sweep", "--mode", "diagonal", "--alphas", "0,1",
               "--n-seeds", "1", "--sizes", "3,3", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["alpha"] for r in rows} == {"0.0", "1.0"}
    assert all(r["converged"] in ("True", "False") for r in rows)


def test_asym_sweep_refuses_three_sizes_with_the_library_message(tmp_path,
                                                                 capsys):
    out = tmp_path / "asym.csv"
    assert main(["asym-sweep", "--sizes", "3,3,3", "--n-seeds", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: sizes must hold two sizes, got [3, 3, 3]\n"
    assert not out.exists()


# ------------------------------------------------------------ file names

@pytest.mark.parametrize("command", ["mean", "compress", "sbm-gen",
                                     "geodesic"])
def test_network_outputs_read_back_as_named(command, example_files,
                                            tmp_path):
    x, y = example_files
    X, Y = read_network(x), read_network(y)
    out = tmp_path / "out.csv"
    if command == "mean":
        argv = ["mean", x, y, "--out", str(out)]
        expected = frechet_mean([X, Y], FrechetParams()).network
    elif command == "compress":
        argv = ["compress", x, y, "--out", str(out)]
        expected = compressed_average(X, Y, FrechetParams())
    elif command == "sbm-gen":
        argv = ["sbm-gen", "--block-sizes", "2,2", "--means", "1,2;3,4",
                "--out", str(out)]
        expected = generate_sbm(SbmSpec((2, 2), np.array([[1.0, 2.0],
                                                          [3.0, 4.0]]),
                                        variance=5.0))
    else:
        argv = ["geodesic", x, y, "--ts", "0.5", "--format", "csv",
                "--out", str(tmp_path)]
        out = tmp_path / "t_0.5000.csv"
        expected = evaluate(geodesic_aligned(X, Y), 0.5)
    assert main(argv) == 0
    back = read_network(out)
    assert np.array_equal(back.omega, expected.omega)
    assert np.array_equal(back.mu, expected.mu)


@pytest.mark.parametrize("command, name", [("featurize", "f.json"),
                                           ("distance", "c.csv"),
                                           ("pca", "p.csv")])
def test_other_outputs_follow_the_file_name(command, name, family_dir,
                                            tmp_path, monkeypatch, capsys):
    indir, nets = family_dir
    out = tmp_path / name
    if command == "featurize":
        assert main(["featurize", str(indir), "--out", str(out)]) == 0
        ds = vectorize_at_base(nets[0], nets, GwParams(restarts=0,
                                                       rng_seed=0))
        feats = featurize(ds)
        rows = json.loads(out.read_text())
        assert [row["label"] for row in rows] == [f"net{k}"
                                                  for k in range(4)]
        assert np.array_equal([[row[f"f{i}"] for i in range(feats.shape[1])]
                               for row in rows], feats)
        return

    # the coupling and the pca payload are JSON only: refused unsolved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(gwnet.cli, "solve_gw", no_solve)
    monkeypatch.setattr(gwnet.cli, "vectorize_at_base", no_solve)
    inputs = [str(indir / "net0.json"), str(indir / "net1.json")]
    assert main([command, *inputs, "--out", str(out)]) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ directories

def test_directory_inputs_are_all_its_files(example_files, tmp_path):
    X, Y = (read_network(f) for f in example_files)
    indir = tmp_path / "in"
    indir.mkdir()
    # any name but *.csv holds JSON, so x.txt is a network like y.json
    write_network(X, indir / "x.txt")
    write_network(Y, indir / "y.json")
    (indir / ".notes").write_text("names starting with a dot are skipped")
    out = tmp_path / "mean.json"
    assert main(["mean", str(indir), "--out", str(out)]) == 0
    expected = frechet_mean([X, Y], FrechetParams()).network
    back = read_network(out)
    assert np.array_equal(back.omega, expected.omega)
    assert np.array_equal(back.mu, expected.mu)


def test_mean_into_its_input_directory_runs_again(example_files, tmp_path,
                                                 capsys):
    X, Y = (read_network(f) for f in example_files)
    indir = tmp_path / "in"
    indir.mkdir()
    write_network(X, indir / "x.json")
    write_network(Y, indir / "y.json")
    out = indir / "mean.json"
    printed = []
    for _ in range(2):
        assert main(["mean", str(indir), "--out", str(out)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0].startswith("loss ")
    assert printed[1] == printed[0]
    # the earlier output is read when it is named
    M = read_network(out)
    assert main(["mean", str(indir), str(out), "--out", str(out)]) == 0
    loss = frechet_mean([X, Y, M], FrechetParams()).loss
    assert capsys.readouterr().out.startswith(f"loss {loss:.9f} ")


def test_featurize_into_its_input_directory_runs_again(family_dir):
    indir, _ = family_dir
    out = indir / "f.csv"
    written = []
    for _ in range(2):
        assert main(["featurize", str(indir), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1] == written[0]


@pytest.mark.parametrize("command", ["mean", "pca"])
def test_an_empty_input_directory_fails_cleanly(command, tmp_path, capsys):
    indir = tmp_path / "in"
    indir.mkdir()
    out = tmp_path / "out.json"
    assert main([command, str(indir), "--out", str(out)]) == 1
    assert "no input networks found" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [b"not a network", b"\xff\xfe\x00"])
def test_a_directory_file_that_does_not_parse_fails(content, example_files,
                                                    tmp_path, capsys):
    indir = tmp_path / "in"
    indir.mkdir()
    write_network(read_network(example_files[0]), indir / "x.json")
    (indir / "z.txt").write_bytes(content)
    assert main(["mean", str(indir), "--out", str(tmp_path / "m.json")]) == 1
    assert "z.txt" in capsys.readouterr().err


# ------------------------------------------------------------------ parser

@pytest.mark.parametrize("argv", [
    ["sbm-gen", "--means", "abc"],
    ["sbm-gen", "--block-sizes", "2,2", "--means", "1,2;3"],
    ["sbm-gen", "--block-sizes", "2,2", "--means-file", "{bad}"],
    ["sbm-experiment", "--runs", "0"],
    ["asym-sweep", "--sizes", "0"],
    ["asym-sweep", "--sizes", "3,3,3"],
    ["support-sweep", "--sizes", "0"],
    ["support-sweep", "--sizes", "3", "--trials", "0"],
    ["support-sweep", "--sizes", "3", "--trials", "-1"],
    ["asym-sweep", "--n-seeds", "0"],
    ["mean", "{x}", "{y}", "--seed-size", "-2"],
    ["mean", "{x}", "{y}", "--seed-size", "0"],
    ["pca", "{x}", "{y}", "--components", "-1"],
    ["mean", "{x}", "{y}", "--max-iters", "0"],
    ["sbm-gen", "--variance", "nan"],
    ["sbm-experiment", "--bound", "nan"],
])
def test_malformed_numbers_fail_cleanly(argv, example_files, tmp_path,
                                        capsys):
    x, y = example_files
    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2], [3")
    argv = [a.format(x=x, y=y, bad=bad) for a in argv]
    argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["distance", "{x}", "{y}", "--restarts", "1"],
    ["sbm-gen", "--block-sizes", "2,2", "--means", "1,2;3,4"],
    ["support-sweep", "--sizes", "3", "--trials", "1"],
    ["asym-sweep", "--sizes", "3", "--n-seeds", "1"],
    ["mean", "{x}", "{y}", "--seed-size", "2"],
])
def test_a_negative_seed_fails_cleanly(argv, example_files, tmp_path,
                                       capsys):
    x, y = example_files
    argv = [a.format(x=x, y=y) for a in argv]
    out = tmp_path / "out.json"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: rng_seed must be at least 0, got -1\n"
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["--means", "inf,1;1,1"], "means"),
    (["--means-file", "{big}"], "means"),
    (["--means", "1,2;3,4", "--variance", "inf"], "variance"),
])
def test_non_finite_block_model_inputs_fail_before_drawing(argv, field,
                                                           tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text("[[1e400, 1], [1, 1]]")
    out = tmp_path / "g.json"
    argv = [a.format(big=big) for a in argv]
    assert main(["sbm-gen", "--block-sizes", "2,2", *argv,
                 "--out", str(out)]) == 1
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_sbm_experiment_takes_at_most_nine_blocks(tmp_path, capsys):
    sizes = ["--block-sizes", ",".join(["1"] * 10),
             "--means", ";".join([",".join(["0"] * 10)] * 10)]
    out = tmp_path / "r.json"
    assert main(["sbm-experiment", *sizes, "--out", str(out)]) == 1
    assert "error: at most 9 blocks, got 10" in capsys.readouterr().err
    assert not out.exists()
    # drawing a network has no such bound
    assert main(["sbm-gen", *sizes, "--out", str(out)]) == 0
    assert read_network(out).size == 10


@pytest.mark.parametrize("argv", [["sbm-gen"],
                                  ["sbm-experiment", "--runs", "1"]])
def test_a_means_file_holding_an_object_fails_cleanly(argv, tmp_path, capsys):
    means = tmp_path / "m.json"
    means.write_text('{"a": 1}')
    assert main(argv + ["--block-sizes", "2,2",
                        "--means-file", str(means)]) == 1
    assert f"error: {means}: " in capsys.readouterr().err


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_no_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
