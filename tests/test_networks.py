import json

import numpy as np
import pytest
from hypothesis import given, settings

from gwnet import (Coupling, GwnetError, MeasureNetwork, NonFiniteEntryError,
                   NonProbabilityError, NonSquareError, ParseError,
                   network_from_dict, network_to_dict, read_network,
                   uniform_network, write_network)
from conftest import measure_networks


def test_example_networks_validate(one_node, two_swap):
    assert one_node.size == 1
    assert two_swap.size == 2
    assert two_swap.mu.sum() == 1.0


def test_non_square_rejected():
    with pytest.raises(NonSquareError):
        MeasureNetwork(np.zeros((2, 3)), np.array([0.5, 0.5]))
    with pytest.raises(NonSquareError):
        MeasureNetwork(np.zeros(3), np.full(3, 1 / 3))


def test_mu_sum_off_rejected():
    with pytest.raises(NonProbabilityError):
        MeasureNetwork(np.array([[0.0, 1.0], [1.0, 0.0]]),
                       np.array([0.6, 0.5]))


def test_mu_nonpositive_rejected():
    with pytest.raises(NonProbabilityError):
        MeasureNetwork(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(NonProbabilityError):
        MeasureNetwork(np.zeros((2, 2)), np.array([1.5, -0.5]))


def test_non_finite_rejected():
    with pytest.raises(NonFiniteEntryError):
        MeasureNetwork(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(NonFiniteEntryError):
        MeasureNetwork(np.array([[np.inf, 0], [0, 0.0]]),
                       np.array([0.5, 0.5]))
    with pytest.raises(NonFiniteEntryError):
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


def test_uniform_network():
    net = uniform_network(np.arange(9.0).reshape(3, 3))
    assert np.allclose(net.mu, 1 / 3)
    with pytest.raises(NonSquareError):
        uniform_network(np.zeros((2, 3)))


def test_dict_round_trip(two_swap):
    d = network_to_dict(two_swap)
    back = network_from_dict(d)
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
        json.dump(network_to_dict(net), fh)
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
    assert network_to_dict(net) == {"omega": d["omega"], "mu": d["mu"]}


def test_file_name_chooses_format(tmp_path, two_swap):
    for name, fmt in (("n.csv", "csv"), ("n.json", "json"),
                      ("n.txt", "json")):
        path = tmp_path / name
        write_network(two_swap, path)
        text = path.read_text()
        if fmt == "csv":
            assert text.startswith("mu,")
        else:
            assert json.loads(text) == network_to_dict(two_swap)
        back = read_network(path)
        assert np.array_equal(back.omega, two_swap.omega)
        assert np.array_equal(back.mu, two_swap.mu)


def test_csv_missing_mu_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n1.0,0.0\n")
    with pytest.raises(ParseError):
        read_network(path)
    # a mu line with no omega rows
    path.write_text("mu,1.0\n")
    with pytest.raises(ParseError):
        read_network(path)


def test_csv_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mu,0.5,0.5\n0,x\n1,0\n")
    with pytest.raises(ParseError):
        read_network(path)


def test_json_non_numeric(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"omega": [[0, "x"], [1, 0]],
                                "mu": [0.5, 0.5]}))
    with pytest.raises(ParseError, match="non-numeric network data"):
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
    with pytest.raises(ParseError):
        read_network(path)


def test_json_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"omega": [[1.0]]}))
    with pytest.raises(ParseError):
        read_network(path)


def test_coupling_validation():
    p = np.array([0.5, 0.5])
    q = np.array([0.5, 0.5])
    Coupling(np.eye(2) * 0.5, p, q)
    with pytest.raises(GwnetError):
        Coupling(np.array([[0.6, -0.1], [0.0, 0.5]]), p, q)
    with pytest.raises(GwnetError):
        Coupling(np.full((2, 2), 0.25), p, np.array([0.9, 0.1]))
    for bad in ([np.nan, 0.5], [np.inf, 0.5]):
        with pytest.raises(NonFiniteEntryError):
            Coupling(np.eye(2) * 0.5, p, np.array(bad))
        with pytest.raises(NonFiniteEntryError):
            Coupling(np.eye(2) * 0.5, np.array(bad), q)
