import json
import math
from pathlib import Path

import numpy as np
import pytest

from opftrack import cli, networks
from opftrack.feeder import (
    FeederError,
    FeederModel,
    LineSegment,
    build_admittance,
    feeder_from_dict,
    feeder_to_dict,
    load_feeder,
    save_feeder,
    validate_feeder,
)


def test_two_bus_partition_hand_values():
    # single segment z = 0.01 + 0.01j, so 1/z = 50 - 50j
    adm = build_admittance(networks.two_bus())
    ys = 1.0 / (0.01 + 0.01j)
    assert ys == pytest.approx(50.0 - 50.0j)
    assert np.allclose(adm.Y.toarray(), [[ys]])
    assert np.allclose(adm.ybar, [-ys])


def test_line_charging_splits_half_per_terminal():
    adm = build_admittance(networks.two_bus(y_shunt=0.02j))
    ys = 1.0 / (0.01 + 0.01j)
    assert adm.Y.toarray()[0, 0] == pytest.approx(ys + 0.01j)
    assert adm.ybar[0] == pytest.approx(-ys)


def test_chain_assembly_matches_manual():
    z = 0.02 + 0.04j
    adm = build_admittance(networks.chain(3, z=z))
    ys = 1.0 / z
    manual = np.zeros((4, 4), dtype=complex)
    for a, b in ((0, 1), (1, 2), (2, 3)):
        manual[a, b] -= ys
        manual[b, a] -= ys
        manual[a, a] += ys
        manual[b, b] += ys
    # the slack column of the full matrix, then the network block
    assert np.allclose(adm.ybar, manual[1:, 0])
    assert np.allclose(adm.Y.toarray(), manual[1:, 1:])


def test_relabeling_permutes_admittance():
    base = networks.random_radial(8, seed=11, shunt_prob=0.5)
    rng = np.random.default_rng(5)
    new_of = dict(enumerate(rng.permutation(np.arange(1, 9)) , start=1))
    new_of[0] = 0
    relabeled = FeederModel(
        n_nodes=8,
        lines=tuple(
            LineSegment(int(new_of[ln.from_node]), int(new_of[ln.to_node]), ln.z, ln.y_shunt)
            for ln in base.lines
        ),
        der_nodes=tuple(int(new_of[n]) for n in base.der_nodes),
        monitored_nodes=tuple(int(new_of[n]) for n in base.monitored_nodes),
    )
    a1 = build_admittance(base)
    a2 = build_admittance(relabeled)
    perm = np.zeros((8, 8))
    for old in range(1, 9):
        perm[new_of[old] - 1, old - 1] = 1.0
    assert np.allclose(a2.Y.toarray(), perm @ a1.Y.toarray() @ perm.T)
    assert np.allclose(a2.ybar, perm @ a1.ybar)


def _valid_dict():
    return {
        "n_nodes": 2,
        "lines": [
            {"from": 0, "to": 1, "r_pu": 0.01, "x_pu": 0.02},
            {"from": 1, "to": 2, "r_pu": 0.01, "x_pu": 0.02, "b_shunt_pu": 0.001},
        ],
        "der_nodes": [{"node": 2, "s_rating_pu": 0.5}],
        "monitored_nodes": [1, 2],
    }


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda f: f.lines.append(LineSegment(0, 9, 0.01j)), "outside"),
        (lambda f: f.lines.append(LineSegment(2, 2, 0.01j)), "self loop"),
        (lambda f: f.lines.append(LineSegment(0, 2, 0j)), "zero series impedance"),
        (lambda f: f.lines.append(LineSegment(1, 0, 0.05j)), "duplicate line corridor"),
        (lambda f: f.lines.pop(), "disconnected"),
        (lambda f: f.der_nodes.clear(), "no DER buses"),
        (lambda f: f.monitored_nodes.clear(), "no monitored buses"),
        (lambda f: f.der_nodes.append(2), "duplicate DER"),
        (lambda f: f.der_nodes.append(7), "outside 1..2"),
        (lambda f: f.ratings.append(0.5), "length does not match"),
        (lambda f: f.ratings.__setitem__(0, -1.0), "must be positive"),
        (lambda f: f.ratings.__setitem__(0, math.inf), "must be positive and finite"),
        (lambda f: setattr(f, "slack", 0j), "slack voltage magnitude must be positive and finite"),
        (lambda f: setattr(f, "slack", complex(math.nan, 0.0)), "slack voltage magnitude"),
    ],
)
def test_validation_diagnostics(mutate, fragment):
    class Bag:
        lines = [LineSegment(0, 1, 0.01 + 0.01j), LineSegment(1, 2, 0.01 + 0.01j)]
        der_nodes = [2]
        monitored_nodes = [1, 2]
        ratings = [0.5]
        slack = 1.0 + 0j

    mutate(Bag)
    feeder = FeederModel(
        n_nodes=2,
        lines=tuple(Bag.lines),
        der_nodes=tuple(Bag.der_nodes),
        monitored_nodes=tuple(Bag.monitored_nodes),
        der_ratings=tuple(Bag.ratings),
        slack_voltage=Bag.slack,
    )
    diags = validate_feeder(feeder)
    assert any(fragment in d for d in diags), diags
    with pytest.raises(FeederError):
        build_admittance(feeder)


def test_clean_feeder_has_no_diagnostics():
    assert validate_feeder(networks.feeder36()) == []
    assert validate_feeder(networks.two_bus()) == []


def test_degenerate_network_rejected():
    # second segment essentially open: reduced block numerically singular
    feeder = FeederModel(
        n_nodes=2,
        lines=(LineSegment(0, 1, 0.01 + 0.01j), LineSegment(1, 2, 1e12 + 0j)),
        der_nodes=(2,),
        monitored_nodes=(2,),
    )
    with pytest.raises(FeederError, match="degenerate"):
        build_admittance(feeder)


def test_dict_round_trip_identity():
    fd = networks.feeder36()
    assert feeder_from_dict(feeder_to_dict(fd)) == fd


def test_file_round_trip(tmp_path):
    fd = networks.random_radial(6, seed=2, shunt_prob=0.3)
    path = tmp_path / "net.json"
    save_feeder(fd, str(path))
    again = load_feeder(str(path))
    assert again.n_nodes == fd.n_nodes
    assert again.der_nodes == fd.der_nodes
    a, b = build_admittance(again), build_admittance(fd)
    assert np.allclose(a.ybar, b.ybar)
    assert np.allclose(a.Y.toarray(), b.Y.toarray())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.__setitem__("bogus", 1),
        lambda d: d["lines"][0].__setitem__("length_km", 2.0),
        lambda d: d["der_nodes"][0].__setitem__("kind", "pv"),
        lambda d: d.__setitem__("slack", {"magnitude_pu": 1.0, "freq_hz": 60}),
    ],
)
def test_unknown_keys_rejected(mutate):
    data = _valid_dict()
    mutate(data)
    with pytest.raises(FeederError, match="unknown key"):
        feeder_from_dict(data)


def test_malformed_description_rejected():
    data = _valid_dict()
    del data["lines"]
    with pytest.raises(FeederError, match="malformed"):
        feeder_from_dict(data)
    with pytest.raises(FeederError):
        feeder_from_dict([1, 2, 3])


FEEDER36 = Path(__file__).resolve().parents[1] / "data" / "feeder36.json"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        # bus ids are JSON integers: no truncated floats, strings or booleans
        (lambda d: d["lines"][3].update({"from": 3.9}),
         "lines[3].from: expected an integer, got 3.9"),
        (lambda d: d["lines"][0].update(to=1.0), "lines[0].to: expected an integer, got 1.0"),
        (lambda d: d.update(n_nodes="36"), 'n_nodes: expected an integer, got "36"'),
        (lambda d: d["der_nodes"][0].update(node="4"),
         'der_nodes[0].node: expected an integer, got "4"'),
        (lambda d: d["monitored_nodes"].__setitem__(0, True),
         "monitored_nodes[0]: expected an integer, got true"),
        # electrical values are finite JSON numbers
        (lambda d: d["lines"][0].update(r_pu=True),
         "lines[0].r_pu: expected a finite number, got true"),
        (lambda d: d["lines"][1].update(x_pu="0.01"),
         'lines[1].x_pu: expected a finite number, got "0.01"'),
        (lambda d: d["lines"][2].update(b_shunt_pu=math.inf),
         "lines[2].b_shunt_pu: expected a finite number, got Infinity"),
        (lambda d: d["der_nodes"][0].update(s_rating_pu=math.nan),
         "der_nodes[0].s_rating_pu: expected a finite number, got NaN"),
        (lambda d: d["der_nodes"][1].update(s_rating_pu=math.inf),
         "der_nodes[1].s_rating_pu: expected a finite number, got Infinity"),
        (lambda d: d["slack"].update(magnitude_pu=math.nan),
         "slack.magnitude_pu: expected a finite number, got NaN"),
        (lambda d: d["slack"].update(angle_deg=-math.inf),
         "slack.angle_deg: expected a finite number, got -Infinity"),
        (lambda d: d["slack"].update(magnitude_pu=0.0),
         "slack.magnitude_pu must be positive, got 0.0"),
        (lambda d: d["slack"].update(magnitude_pu=-1.0),
         "slack.magnitude_pu must be positive, got -1.0"),
        # the model carries no base power, so the key is an unknown one
        (lambda d: d.update(base_power_va=1.0e6),
         "unknown key(s) ['base_power_va'] in feeder description"),
    ],
)
def test_validate_rejects_wrong_types_and_values(tmp_path, capsys, mutate, fragment):
    data = json.loads(FEEDER36.read_text(encoding="utf-8"))
    mutate(data)
    path = tmp_path / "feeder.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    lines = (out + err).strip().splitlines()
    assert len(lines) == 1 and fragment in lines[0] and str(path) in lines[0], lines


def test_shipped_feeder36_file_is_networks_feeder36():
    assert networks.feeder36() == load_feeder(str(FEEDER36))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FeederError, match="not valid JSON"):
        load_feeder(str(path))


def test_reduced_index_helpers():
    fd = networks.feeder36()
    assert list(fd.der_indices()) == [n - 1 for n in fd.der_nodes]
    assert list(fd.monitored_indices()) == [n - 1 for n in fd.monitored_nodes]
    assert fd.n_der == 18
    assert len(fd.der_ratings) == 18
    assert fd.der_ratings.count(0.35) == 2 and fd.der_ratings.count(0.3) == 1
