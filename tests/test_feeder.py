import json
import math
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from dense_helpers import dense_admittance, tree_admittance
from hypothesis import given, settings
from hypothesis import strategies as st
from small_feeders import chain, two_bus

from opftrack import cli, networks
from opftrack.feeder import (
    DENSE_Z_MAX_NODES,
    FeederError,
    FeederModel,
    TreeFactor,
    _column,
    _int,
    _number,
    build_admittance,
    feeder_from_dict,
    feeder_to_dict,
    load_feeder,
    save_feeder,
    validate_feeder,
)


def _reduced_blocks(fd):
    """The reduced block Y as both representations of ``fd`` give it back.

    The inverse of the dense ``z``, and of the tree factor's solve of the
    identity; each kept slack column ``ybar`` beside it.
    """
    eye = np.eye(fd.n_nodes, dtype=complex)
    return [
        (np.linalg.inv(adm.solve(eye)), adm.ybar)
        for adm in (build_admittance(fd), tree_admittance(fd))
    ]


def test_two_bus_partition_hand_values():
    # single segment z = 0.01 + 0.01j, so 1/z = 50 - 50j
    ys = 1.0 / (0.01 + 0.01j)
    assert ys == pytest.approx(50.0 - 50.0j)
    for y, ybar in _reduced_blocks(two_bus()):
        assert np.allclose(y, [[ys]])
        assert np.allclose(ybar, [-ys])


def test_the_dense_inverse_is_kept_up_to_the_crossover_size():
    n = DENSE_Z_MAX_NODES
    fd = networks.random_radial(n, seed=0, shunt_prob=0.5)
    at = build_admittance(fd)
    above = build_admittance(networks.random_radial(n + 1, seed=0, shunt_prob=0.5))
    assert at.z.shape == (n, n) and at.tree is None
    assert np.allclose(dense_admittance(fd)[1:, 1:] @ at.z, np.eye(n), rtol=0.0, atol=1e-9)
    assert at.solve == at.z.dot
    assert above.z is None and isinstance(above.tree, TreeFactor)
    assert above.solve == above.tree.solve


def test_line_charging_splits_half_per_terminal():
    ys = 1.0 / (0.01 + 0.01j)
    for y, ybar in _reduced_blocks(two_bus(y_shunt=0.02j)):
        assert y[0, 0] == pytest.approx(ys + 0.01j)
        assert ybar[0] == pytest.approx(-ys)


def test_chain_assembly_matches_manual():
    z = 0.02 + 0.04j
    ys = 1.0 / z
    manual = np.zeros((4, 4), dtype=complex)
    for a, b in ((0, 1), (1, 2), (2, 3)):
        manual[a, b] -= ys
        manual[b, a] -= ys
        manual[a, a] += ys
        manual[b, b] += ys
    # the slack column of the full matrix, then the network block
    for y, ybar in _reduced_blocks(chain(3, z=z)):
        assert np.allclose(ybar, manual[1:, 0])
        assert np.allclose(y, manual[1:, 1:])


def test_relabeling_permutes_admittance():
    base = networks.random_radial(8, seed=11, shunt_prob=0.5)
    rng = np.random.default_rng(5)
    new_of = np.concatenate([[0], rng.permutation(np.arange(1, 9))])
    relabeled = replace(
        base,
        terminals=new_of[base.terminals],
        der_nodes=tuple(new_of[n] for n in base.der_nodes),
        monitored_nodes=tuple(new_of[n] for n in base.monitored_nodes),
    )
    perm = np.zeros((8, 8))
    for old in range(1, 9):
        perm[new_of[old] - 1, old - 1] = 1.0
    for (y1, ybar1), (y2, ybar2) in zip(_reduced_blocks(base), _reduced_blocks(relabeled)):
        assert np.allclose(y2, perm @ y1 @ perm.T)
        assert np.allclose(ybar2, perm @ ybar1)


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
        (lambda f: f.lines.append((0, 9, 0.01j)), "outside"),
        (lambda f: f.lines.append((2, 2, 0.01j)), "self loop"),
        (lambda f: f.lines.append((0, 2, 0j)), "zero series impedance"),
        (lambda f: f.lines.append((1, 0, 0.05j)), "duplicate line corridor"),
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
        lines = [(0, 1, 0.01 + 0.01j), (1, 2, 0.01 + 0.01j)]
        der_nodes = [2]
        monitored_nodes = [1, 2]
        ratings = [0.5]
        slack = 1.0 + 0j

    mutate(Bag)
    feeder = FeederModel(
        n_nodes=2,
        terminals=[ln[:2] for ln in Bag.lines],
        z=[ln[2] for ln in Bag.lines],
        y_shunt=np.zeros(len(Bag.lines)),
        der_nodes=tuple(Bag.der_nodes),
        monitored_nodes=tuple(Bag.monitored_nodes),
        der_ratings=tuple(Bag.ratings),
        slack_voltage=Bag.slack,
    )
    diags = validate_feeder(feeder)
    assert any(fragment in d for d in diags), diags
    with pytest.raises(FeederError):
        build_admittance(feeder)


@pytest.mark.parametrize(
    "der_nodes, ratings",
    [((2, 2), (0.5,)), ((2, 7), (0.5,)), ((2,), (0.5, 0.5))],
    ids=["duplicate DER", "outside 1..2", "length does not match"],
)
def test_writer_rejects_der_lists_of_unequal_length(der_nodes, ratings, tmp_path):
    # the mismatched cases of test_validation_diagnostics: the file format
    # pairs each DER bus with its rating, so the writer may not drop one
    feeder = FeederModel(
        n_nodes=2,
        terminals=[(0, 1), (1, 2)],
        z=[0.01 + 0.01j] * 2,
        y_shunt=np.zeros(2),
        der_nodes=der_nodes,
        monitored_nodes=(1, 2),
        der_ratings=ratings,
    )
    with pytest.raises(FeederError, match="der_ratings length does not match der_nodes"):
        feeder_to_dict(feeder)
    path = tmp_path / "feeder.json"
    with pytest.raises(FeederError, match="der_ratings length does not match der_nodes"):
        save_feeder(feeder, str(path))
    assert not path.exists()


def test_clean_feeder_has_no_diagnostics():
    assert validate_feeder(networks.feeder36()) == []
    assert validate_feeder(two_bus()) == []


def test_degenerate_network_rejected():
    # second segment essentially open: reduced block numerically singular
    feeder = FeederModel(
        n_nodes=2,
        terminals=[(0, 1), (1, 2)],
        z=[0.01 + 0.01j, 1e12 + 0j],
        y_shunt=[0j, 0j],
        der_nodes=(2,),
        monitored_nodes=(2,),
    )
    with pytest.raises(FeederError, match="degenerate"):
        build_admittance(feeder)


def test_dict_round_trip_identity():
    fd = networks.feeder36()
    assert feeder_to_dict(feeder_from_dict(feeder_to_dict(fd))) == feeder_to_dict(fd)


def test_file_round_trip(tmp_path):
    fd = networks.random_radial(6, seed=2, shunt_prob=0.3)
    path = tmp_path / "net.json"
    save_feeder(fd, str(path))
    again = load_feeder(str(path))
    assert again.n_nodes == fd.n_nodes
    assert again.der_nodes == fd.der_nodes
    a, b = build_admittance(again), build_admittance(fd)
    assert np.allclose(a.ybar, b.ybar)
    assert np.allclose(a.z, b.z)


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
        # containers have their JSON type: lists of objects, an object for the slack
        (lambda d: d.update(slack=1), "slack: expected an object, got 1"),
        (lambda d: d.update(der_nodes=5), "der_nodes: expected a list, got 5"),
        (lambda d: d.update(lines={"from": 1}), "lines: expected a list, got an object"),
        (lambda d: d["lines"].__setitem__(0, [0, 1]), "lines[0]: expected an object, got [0, 1]"),
        (lambda d: d.update(monitored_nodes="12"),
         'monitored_nodes: expected a list, got "12"'),
        # bus ids are int64: a column beyond it is named by its first bad row
        (lambda d: d["lines"][3].update({"from": 2**70}),
         f"lines[3].from: {2**70} is outside the int64 range"),
        (lambda d: d["lines"][5].update(to=-(2**63) - 1),
         f"lines[5].to: {-(2**63) - 1} is outside the int64 range"),
        (lambda d: d["der_nodes"][2].update(node=2**63),
         f"der_nodes[2].node: {2**63} is outside the int64 range"),
        (lambda d: d["monitored_nodes"].__setitem__(1, 2**64),
         f"monitored_nodes[1]: {2**64} is outside the int64 range"),
        (lambda d: d.update(n_nodes=2**63), f"n_nodes: {2**63} is outside the int64 range"),
        # an integer beyond the float range is not a finite number
        *[
            pytest.param(
                lambda d, row=row, key=key: row(d).update({key: -(2**1100)}),
                f"{where}.{key}: expected a finite number, got {-(2**1100)}",
                id=f"{where}.{key}: -2**1100",
            )
            for where, row, keys in [
                ("lines[3]", lambda d: d["lines"][3], ("r_pu", "x_pu", "b_shunt_pu")),
                ("der_nodes[4]", lambda d: d["der_nodes"][4], ("s_rating_pu",)),
                ("slack", lambda d: d["slack"], ("magnitude_pu", "angle_deg")),
            ]
            for key in keys
        ],
        # a missing key is named with the object that lacks it
        (lambda d: d["lines"][3].pop("x_pu"), "missing required key 'x_pu' in lines[3]"),
        (lambda d: d["der_nodes"][0].pop("node"), "missing required key 'node' in der_nodes[0]"),
        (lambda d: d.pop("monitored_nodes"),
         "missing required key 'monitored_nodes' in feeder description"),
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


_FLOAT_MAX = int(sys.float_info.max)
# values at the edges of int64 and of the float range (float() rounds the
# integers below max + half an ulp to max), and of the wrong type
_EDGE_VALUES = {
    "int64_max": 2**63 - 1,
    "int64_max+1": 2**63,
    "int64_min": -(2**63),
    "int64_min-1": -(2**63) - 1,
    "float_max": _FLOAT_MAX,
    "float_max+half_ulp": _FLOAT_MAX + 2**969,
    "float_max+ulp": _FLOAT_MAX + 2**970,
    "-2**1024": -(2**1024),
    "2**1100": 2**1100,
    "1.5": 1.5,
    "inf": math.inf,
    "true": True,
}


@pytest.mark.parametrize("value", list(_EDGE_VALUES.values()), ids=list(_EDGE_VALUES))
@pytest.mark.parametrize("check", [_int, _number])
def test_a_column_rejects_what_its_per_value_check_rejects(value, check):
    def fails(run):
        try:
            run()
        except (TypeError, ValueError):
            return True
        return False

    assert fails(lambda: _column([0, value, 1], check)) == fails(lambda: check(value, "x"))


def test_shipped_feeder36_file_is_networks_feeder36():
    assert feeder_to_dict(networks.feeder36()) == feeder_to_dict(load_feeder(str(FEEDER36)))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FeederError, match="not valid JSON"):
        load_feeder(str(path))


def test_load_names_the_file_of_a_number_json_cannot_convert(tmp_path):
    # a 5000-digit integer passes the JSON grammar but not int(); the error
    # names the file as for any other unreadable feeder
    d = json.loads((Path(__file__).resolve().parents[1] / "data" / "feeder36.json").read_text())
    d["lines"][3]["r_pu"] = 0.125
    path = tmp_path / "big.json"
    path.write_text(json.dumps(d).replace("0.125", "9" * 5000))
    with pytest.raises(FeederError, match=f"^{path}: not valid JSON: Exceeds the limit"):
        load_feeder(str(path))


def test_reduced_index_helpers():
    fd = networks.feeder36()
    assert list(fd.der_indices()) == [n - 1 for n in fd.der_nodes]
    assert list(fd.monitored_indices()) == [n - 1 for n in fd.monitored_nodes]
    assert fd.n_der == 18
    assert len(fd.der_ratings) == 18
    assert fd.der_ratings.count(0.35) == 2 and fd.der_ratings.count(0.3) == 1


def _plus_lines(fd, rows):
    """``fd`` with the uncharged lines ``(from, to, z)`` of ``rows`` appended."""
    return replace(
        fd,
        terminals=np.vstack([fd.terminals, [row[:2] for row in rows]]),
        z=np.append(fd.z, [row[2] for row in rows]),
        y_shunt=np.append(fd.y_shunt, np.zeros(len(rows))),
    )


def test_line_diagnostics_keep_line_order():
    feeder = _plus_lines(
        chain(2), [(1, 0, 0.05j), (0, 9, 0.01j), (0, 2, 0j), (2, 2, 0.01j)]
    )
    assert validate_feeder(feeder) == [
        "duplicate line corridor (0,1)",
        "line (0,9) has endpoint outside 0..2",
        "line (0,2) has zero series impedance",
        "line (2,2) is a self loop",
    ]


def test_a_zero_impedance_line_connects_nothing():
    fd = chain(2)
    cut = replace(fd, z=np.array([fd.z[0], 0j]))
    assert validate_feeder(cut) == [
        "line (1,2) has zero series impedance",
        "disconnected: 2 components over buses 0..2",
    ]


def test_connectivity_is_counted_over_the_buses_the_lines_touch():
    # every bus no line reaches is one component, and nothing is sized by n_nodes
    fd = networks.feeder36()
    for n in (10**6, 2**62, 2**63 - 1):
        tracemalloc.start()
        try:
            diags = validate_feeder(replace(fd, n_nodes=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diags == [f"disconnected: {n - 35} components over buses 0..{n}"]
        assert peak < 1e6, peak


def test_line_arrays_must_agree_in_length():
    fd = chain(3)
    for bad in (dict(z=fd.z[:2]), dict(y_shunt=fd.y_shunt[:2]), dict(terminals=fd.terminals.T)):
        with pytest.raises(ValueError, match="line arrays need shapes"):
            replace(fd, **bad)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**16), data=st.data())
def test_a_tree_minus_j_lines_has_j_plus_1_components(n, seed, data):
    fd = networks.random_radial(n, seed, shunt_prob=0.5)
    drop = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    keep = np.setdiff1d(np.arange(n), list(drop))
    cut = replace(fd, terminals=fd.terminals[keep], z=fd.z[keep], y_shunt=fd.y_shunt[keep])
    assert validate_feeder(cut) == [f"disconnected: {len(drop) + 1} components over buses 0..{n}"]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**16), data=st.data())
def test_a_reversed_copy_of_a_line_is_one_duplicate(n, seed, data):
    fd = networks.random_radial(n, seed, shunt_prob=0.5)
    i = data.draw(st.integers(0, n - 1))
    a, b = fd.terminals[i].tolist()
    assert validate_feeder(_plus_lines(fd, [(b, a, fd.z[i])])) == [
        f"duplicate line corridor ({min(a, b)},{max(a, b)})"
    ]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**16))
def test_save_load_save_is_byte_identical(n, seed):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        save_feeder(networks.random_radial(n, seed, shunt_prob=0.5), str(first))
        save_feeder(load_feeder(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()


# values of the wrong JSON type for an integer field and for a number field,
# and the non-finite numbers json writes as NaN / Infinity
_NOT_INTEGERS = (1.0, "3", True, None, [1], {"a": 1})
_NOT_NUMBERS = ("0.01", True, False, None, [0.5], {"a": 1})
_NON_FINITE = (math.nan, math.inf, -math.inf)
_FIELDS = {
    "lines": {"from": "int", "to": "int", "r_pu": "num", "x_pu": "num", "b_shunt_pu": "num"},
    "der_nodes": {"node": "int", "s_rating_pu": "num"},
}
_REQUIRED = {"lines": ("from", "to", "r_pu", "x_pu"), "der_nodes": ("node",)}


@st.composite
def _corruption(draw, data):
    # one bad cell in a random row: (list, row, apply, expected message)
    lst = draw(st.sampled_from(["lines", "der_nodes", "monitored_nodes"]))
    i = draw(st.integers(0, len(data[lst]) - 1))
    if lst == "monitored_nodes":
        value = draw(st.sampled_from(_NOT_INTEGERS))
        return lst, i, lambda rows: rows.__setitem__(i, value), (
            f"monitored_nodes[{i}]: expected an integer, got {json.dumps(value)}"
        )
    kind = draw(st.sampled_from(["type", "non_finite", "unknown", "missing"]))
    if kind == "unknown":
        key = draw(st.sampled_from(["bogus", "length_km", "kind"]))
        return lst, i, lambda rows: rows[i].__setitem__(key, 1.0), (
            f"unknown key(s) ['{key}'] in {lst}[{i}]"
        )
    if kind == "missing":
        key = draw(st.sampled_from(_REQUIRED[lst]))
        return lst, i, lambda rows: rows[i].pop(key), (
            f"missing required key {key!r} in {lst}[{i}]"
        )
    fields = _FIELDS[lst]
    numbers = [k for k, t in fields.items() if t == "num"]
    key = draw(st.sampled_from(numbers if kind == "non_finite" else list(fields)))
    if kind == "non_finite":
        value, want = draw(st.sampled_from(_NON_FINITE)), "a finite number"
    elif fields[key] == "int":
        value, want = draw(st.sampled_from(_NOT_INTEGERS)), "an integer"
    else:
        value, want = draw(st.sampled_from(_NOT_NUMBERS)), "a finite number"
    return lst, i, lambda rows: rows[i].__setitem__(key, value), (
        f"{lst}[{i}].{key}: expected {want}, got {json.dumps(value)}"
    )


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 80), seed=st.integers(0, 2**16), data=st.data())
def test_a_corrupt_cell_is_named_by_its_row_and_field(n, seed, data):
    # each list is checked a column at a time; the message is the per-row
    # check's for the first bad row, also with a second bad row after it
    fd = networks.random_radial(n, seed, shunt_prob=0.5, der_nodes=tuple(range(1, n + 1, 2)))
    clean = feeder_to_dict(fd)
    lst, i, corrupt, message = data.draw(_corruption(clean))
    bad = json.loads(json.dumps(clean))
    corrupt(bad[lst])
    rows = len(clean[lst])
    if i + 1 < rows and data.draw(st.booleans()):
        later = data.draw(st.integers(i + 1, rows - 1))
        bad[lst][later] = -0.5 if lst == "monitored_nodes" else "not a row"
    with pytest.raises(FeederError) as err:
        feeder_from_dict(bad)
    assert str(err.value) == f"malformed feeder description: {message}"


def test_a_clean_file_reads_as_the_per_value_conversions():
    # bus ids stay Python ints; numbers, ints among them, read as float()
    data = feeder_to_dict(networks.random_radial(30, 5, shunt_prob=0.5, der_nodes=(3, 9)))
    data["lines"][4].update(r_pu=2, x_pu=-0.0)
    del data["lines"][6]["b_shunt_pu"]
    del data["der_nodes"][1]["s_rating_pu"]
    fd = feeder_from_dict(data)
    assert fd.z[4] == complex(2.0, -0.0) and math.copysign(1.0, fd.z[4].imag) == -1.0
    assert fd.y_shunt[6] == 0j
    assert fd.der_ratings[1] == 1.0 and type(fd.der_ratings[0]) is float
    assert fd.terminals.tolist() == [[row["from"], row["to"]] for row in data["lines"]]
    for k, row in enumerate(data["lines"]):
        assert fd.z[k] == complex(float(row["r_pu"]), float(row["x_pu"]))
