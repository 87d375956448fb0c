import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from gwnet import (Coupling, FrechetParams, GwParams, GwnetError,
                   MeasureNetwork, blow_up, distortion_matrix,
                   frechet_gradient, log_map, read_network, solve_gw,
                   write_network)
from gwnet.alignment import glue
from conftest import measure_networks, random_network


def test_example_networks_validate(one_node, two_swap):
    assert one_node.size == 1
    assert two_swap.size == 2
    assert two_swap.mu.sum() == 1.0


def test_non_square_rejected():
    with pytest.raises(GwnetError, match="omega must be square"):
        MeasureNetwork(np.zeros((2, 3)), np.array([0.5, 0.5]))
    with pytest.raises(GwnetError, match="omega must be square"):
        MeasureNetwork(np.zeros(3), np.full(3, 1 / 3))


def test_uniform_network_rejects_the_empty_matrix():
    # a network needs at least one node; the empty matrix is refused
    # before any division by the node count
    with pytest.raises(GwnetError, match="omega must be square"):
        MeasureNetwork(np.zeros((0, 0)), np.zeros(0))


def test_mu_sum_off_rejected():
    with pytest.raises(GwnetError, match="mu sums to .*, expected 1"):
        MeasureNetwork(np.array([[0.0, 1.0], [1.0, 0.0]]),
                       np.array([0.6, 0.5]))


def test_mu_nonpositive_rejected():
    with pytest.raises(GwnetError, match="mu entries must be strictly"):
        MeasureNetwork(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(GwnetError, match="mu entries must be strictly"):
        MeasureNetwork(np.zeros((2, 2)), np.array([1.5, -0.5]))


def test_non_finite_rejected():
    with pytest.raises(GwnetError, match="omega contains non-finite"):
        MeasureNetwork(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(GwnetError, match="omega contains non-finite"):
        MeasureNetwork(np.array([[np.inf, 0], [0, 0.0]]),
                       np.array([0.5, 0.5]))
    with pytest.raises(GwnetError, match="mu contains non-finite"):
        MeasureNetwork(np.zeros((2, 2)), np.array([np.nan, 0.5]))


def test_mu_renormalized_to_exact_unit_sum():
    mu = np.array([0.5, 0.5 + 5e-10])
    net = MeasureNetwork(np.zeros((2, 2)), mu)
    assert net.mu.sum() == 1.0


def test_mu_dimension_must_match():
    with pytest.raises(GwnetError):
        MeasureNetwork(np.zeros((2, 2)), np.array([1.0]))


def test_arrays_frozen(two_swap):
    with pytest.raises(ValueError):
        two_swap.omega[0, 0] = 7.0
    with pytest.raises(ValueError):
        two_swap.mu[0] = 0.7


def test_with_omega_keeps_measure(two_swap):
    net = two_swap.with_omega(np.ones((2, 2)))
    assert np.array_equal(net.omega, np.ones((2, 2)))
    assert np.array_equal(net.mu, two_swap.mu)


def test_dict_round_trip(tmp_path, two_swap):
    # a json file holds one object of two nested lists, and the network
    # rebuilds from them
    path = tmp_path / "n.json"
    write_network(two_swap, path)
    d = json.loads(path.read_text())
    assert d == {"omega": two_swap.omega.tolist(), "mu": two_swap.mu.tolist()}
    back = MeasureNetwork(d["omega"], d["mu"])
    assert np.array_equal(back.omega, two_swap.omega)
    assert np.array_equal(back.mu, two_swap.mu)


def test_json_round_trip_exact(tmp_path, two_swap):
    path = tmp_path / "y.json"
    write_network(two_swap, path)
    back = read_network(path)
    assert np.array_equal(back.omega, two_swap.omega)
    assert np.array_equal(back.mu, two_swap.mu)


def test_json_bytes_are_what_json_dump_writes(tmp_path):
    rng = np.random.default_rng(37)
    net = MeasureNetwork(rng.standard_normal((5, 5)) * 1e-7,
                         rng.dirichlet(np.ones(5)))
    path = tmp_path / "net.json"
    write_network(net, path)
    with open(tmp_path / "dump.json", "w", encoding="utf-8") as fh:
        json.dump({"omega": net.omega.tolist(), "mu": net.mu.tolist()}, fh)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    net = MeasureNetwork(rng.standard_normal((4, 4)), np.full(4, 0.25))
    path = tmp_path / "n.csv"
    write_network(net, path)
    back = read_network(path)
    assert np.array_equal(back.omega, net.omega)
    assert np.array_equal(back.mu, net.mu)


def _same_bits(a: MeasureNetwork, b: MeasureNetwork) -> bool:
    return (a.omega.tobytes() == b.omega.tobytes()
            and a.mu.tobytes() == b.mu.tobytes())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(measure_networks())
def test_property_networks_rebuild_and_read_back_bit_for_bit(
        tmp_path_factory, net):
    assert _same_bits(MeasureNetwork(net.omega, net.mu), net)
    assert _same_bits(net.with_omega(net.omega), net)
    folder = tmp_path_factory.mktemp("round_trip")
    for name in ("net.json", "net.csv"):
        write_network(net, folder / name)
        assert _same_bits(read_network(folder / name), net), name


@pytest.mark.parametrize("labels", [["a", "b"], 5, "ab"])
def test_a_labels_key_is_ignored_on_read(labels, tmp_path):
    # networks carry no node labels; files that still hold them read back
    d = {"omega": [[0.0, 1.0], [2.0, 0.0]], "mu": [0.25, 0.75],
         "labels": labels}
    path = tmp_path / "n.json"
    path.write_text(json.dumps(d))
    net = read_network(path)
    assert np.array_equal(net.omega, d["omega"])
    assert np.array_equal(net.mu, d["mu"])
    write_network(net, tmp_path / "back.json")
    assert json.loads((tmp_path / "back.json").read_text()) == {
        "omega": d["omega"], "mu": d["mu"]}


def test_file_name_chooses_format(tmp_path, two_swap):
    for name, fmt in (("n.csv", "csv"), ("n.json", "json"),
                      ("n.txt", "json")):
        path = tmp_path / name
        write_network(two_swap, path)
        text = path.read_text()
        if fmt == "csv":
            assert text.startswith("mu,")
        else:
            assert json.loads(text) == {"omega": two_swap.omega.tolist(),
                                        "mu": two_swap.mu.tolist()}
        back = read_network(path)
        assert np.array_equal(back.omega, two_swap.omega)
        assert np.array_equal(back.mu, two_swap.mu)


def test_csv_missing_mu_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n1.0,0.0\n")
    with pytest.raises(GwnetError, match="must start with a 'mu,...' line"):
        read_network(path)
    # a mu line with no omega rows
    path.write_text("mu,1.0\n")
    with pytest.raises(GwnetError, match="csv network has no omega rows"):
        read_network(path)


def test_csv_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mu,0.5,0.5\n0,x\n1,0\n")
    with pytest.raises(GwnetError, match="non-numeric csv entry"):
        read_network(path)


def test_json_non_numeric(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"omega": [[0, "x"], [1, 0]],
                                "mu": [0.5, 0.5]}))
    with pytest.raises(GwnetError, match="non-numeric network data"):
        read_network(path)


def test_json_rectangular_omega(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"omega": [[0, 1, 2], [3, 4, 5]],
                                "mu": [0.5, 0.5]}))
    with pytest.raises(GwnetError):
        read_network(path)


def test_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GwnetError, match="invalid json"):
        read_network(path)


def test_json_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"omega": [[1.0]]}))
    with pytest.raises(GwnetError, match="needs 'omega' and 'mu' fields"):
        read_network(path)


def test_coupling_validation():
    p = np.array([0.5, 0.5])
    q = np.array([0.5, 0.5])
    Coupling(np.eye(2) * 0.5, p, q)
    with pytest.raises(GwnetError):
        Coupling(np.array([[0.6, -0.1], [0.0, 0.5]]), p, q)
    with pytest.raises(GwnetError):
        Coupling(np.full((2, 2), 0.25), p, np.array([0.9, 0.1]))
    with pytest.raises(GwnetError, match="must be 1-D"):
        Coupling(np.full((1, 2), 0.5), np.array(1.0), q)
    for bad in ([np.nan, 0.5], [np.inf, 0.5]):
        with pytest.raises(GwnetError, match="contain non-finite entries"):
            Coupling(np.eye(2) * 0.5, p, np.array(bad))
        with pytest.raises(GwnetError, match="contain non-finite entries"):
            Coupling(np.eye(2) * 0.5, np.array(bad), q)


# every entry point that takes a coupling C of X and Y, as call(X, Y, C)
COUPLING_ENTRY_POINTS = {
    "solve_gw given": lambda X, Y, C: solve_gw(X, Y, GwParams(given=C)),
    "frechet_gradient warm": lambda X, Y, C: frechet_gradient(
        [Y], X, warm=[C]),
    "frechet_gradient compressed warm": lambda X, Y, C: frechet_gradient(
        [Y], X, FrechetParams(compress="to_seed_size"), warm=[C]),
    "distortion_matrix": distortion_matrix,
    "blow_up": blow_up,
    "log_map": log_map,
    "glue": lambda X, Y, C: glue(X, [Y], [C]),
}


@pytest.mark.parametrize("call", COUPLING_ENTRY_POINTS.values(),
                         ids=COUPLING_ENTRY_POINTS)
def test_every_coupling_argument_is_a_coupling_or_a_matrix(call):
    """A solved Coupling and its matrix give the same bits, and a matrix
    or a Coupling that does not couple the two measures is refused with
    the marginal it misses."""
    rng = np.random.default_rng(29)
    X = random_network(rng, 3, uniform_mu=False)
    Y = random_network(rng, 4, uniform_mu=False)
    C, _ = solve_gw(X, Y, GwParams(restarts=2))
    assert pickle.dumps(call(X, Y, C)) == pickle.dumps(call(X, Y, C.matrix))
    p = random_network(rng, 3, uniform_mu=False).mu
    q = random_network(rng, 4, uniform_mu=False).mu
    for bad, marginal in ((2 * C.matrix, "row"),
                          (Coupling(np.outer(p, Y.mu), p, Y.mu), "row"),
                          (Coupling(np.outer(X.mu, q), X.mu, q), "column")):
        with pytest.raises(GwnetError, match=f"{marginal} sums do not match "
                                             f"the {marginal} marginal"):
            call(X, Y, bad)
