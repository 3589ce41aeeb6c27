"""Feeder data model, validation, and nodal admittance assembly.

Models a single-phase (balanced equivalent) distribution network: buses
``0..N`` with bus 0 the slack at the substation transformer, pi-model line
segments, and per-unit quantities throughout: the feeder file, the model
and every computation are in pu, and no base power is carried.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

__all__ = [
    "RCOND_LIMIT",
    "FeederError",
    "LineSegment",
    "FeederModel",
    "AdmittanceMatrix",
    "validate_feeder",
    "build_admittance",
    "feeder_from_dict",
    "feeder_to_dict",
    "load_feeder",
    "save_feeder",
]

# reciprocal-condition threshold below which the reduced admittance block
# is treated as numerically singular
RCOND_LIMIT = 1e-10

SLACK = 0

# right-hand-side columns per sparse solve: wider blocks go to multithreaded
# BLAS, which on a 2-vCPU host took 15-100 ms for 100-600 columns at N = 36
# against under 1 ms in blocks of this width
SOLVE_BLOCK = 32


class FeederError(ValueError):
    """Structurally invalid or numerically degenerate network."""


@dataclass(frozen=True)
class LineSegment:
    """Pi-model line segment.

    Parameters
    ----------
    from_node, to_node : int
        Terminal buses; 0 denotes the slack bus.
    z : complex
        Series impedance in pu. Must be nonzero.
    y_shunt : complex
        Total line-charging admittance in pu; half is lumped at each
        terminal.
    """

    from_node: int
    to_node: int
    z: complex
    y_shunt: complex = 0j


@dataclass(frozen=True)
class FeederModel:
    """Static network description.

    ``der_nodes`` are the buses hosting controllable inverters (ordered,
    no duplicates, slack excluded) and ``der_ratings`` their apparent
    power ratings in pu; ``monitored_nodes`` are the buses whose voltage
    magnitudes are metered and regulated.
    """

    n_nodes: int
    lines: tuple[LineSegment, ...]
    der_nodes: tuple[int, ...]
    monitored_nodes: tuple[int, ...]
    der_ratings: tuple[float, ...] = ()
    slack_voltage: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "der_nodes", tuple(int(n) for n in self.der_nodes))
        object.__setattr__(
            self, "monitored_nodes", tuple(int(n) for n in self.monitored_nodes)
        )
        ratings = tuple(float(s) for s in self.der_ratings)
        if not ratings:
            ratings = tuple(1.0 for _ in self.der_nodes)
        object.__setattr__(self, "der_ratings", ratings)

    @property
    def n_der(self) -> int:
        return len(self.der_nodes)

    def der_indices(self) -> np.ndarray:
        """0-based row indices of the DER buses in the reduced ordering."""
        return np.asarray([n - 1 for n in self.der_nodes], dtype=int)

    def monitored_indices(self) -> np.ndarray:
        """0-based row indices of the metered buses in the reduced ordering."""
        return np.asarray([n - 1 for n in self.monitored_nodes], dtype=int)


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Partitioned bus admittance matrix, factored once.

    Holds what the solves use of the full ``(N+1) x (N+1)`` matrix: the
    slack-to-network column ``ybar`` and the reduced network block ``Y``
    (sparse CSC), whose row i is bus i + 1. ``lu`` is the sparse LU factor of
    ``Y`` that every solve with ``Y`` uses, and ``rcond`` its estimated 1-norm
    reciprocal condition number.
    """

    ybar: np.ndarray
    Y: sp.csc_matrix
    lu: SuperLU
    rcond: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``Y^{-1} rhs`` for a vector or an N x K array, from the stored factor."""
        if rhs.ndim == 1 or rhs.shape[1] <= SOLVE_BLOCK:
            return self.lu.solve(rhs)
        return np.hstack(
            [
                self.lu.solve(rhs[:, j : j + SOLVE_BLOCK])
                for j in range(0, rhs.shape[1], SOLVE_BLOCK)
            ]
        )


def validate_feeder(feeder: FeederModel) -> list[str]:
    """Run structural checks and return a list of diagnostics (empty if clean).

    Checks: bus indices in range, no self loops, nonzero series impedances,
    no duplicate line corridors, graph connectivity over all buses including
    the slack, nonempty in-range DER / monitored sets, positive finite DER
    ratings and a positive finite slack voltage magnitude.
    """
    diags: list[str] = []
    n = feeder.n_nodes
    if n < 1:
        diags.append(f"n_nodes must be >= 1, got {n}")
        return diags

    seen: set[tuple[int, int]] = set()
    indexable: list[LineSegment] = []
    for ln in feeder.lines:
        if not (0 <= ln.from_node <= n and 0 <= ln.to_node <= n):
            diags.append(
                f"line ({ln.from_node},{ln.to_node}) has endpoint outside 0..{n}"
            )
            continue
        if ln.from_node == ln.to_node:
            diags.append(f"line ({ln.from_node},{ln.to_node}) is a self loop")
            continue
        if ln.z == 0:
            diags.append(
                f"line ({ln.from_node},{ln.to_node}) has zero series impedance"
            )
            continue
        key = (min(ln.from_node, ln.to_node), max(ln.from_node, ln.to_node))
        if key in seen:
            diags.append(f"duplicate line corridor ({key[0]},{key[1]})")
            continue
        seen.add(key)
        indexable.append(ln)

    # connectivity over buses 0..N via union-find on the usable lines
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ln in indexable:
        ra, rb = find(ln.from_node), find(ln.to_node)
        if ra != rb:
            parent[ra] = rb
    roots = {find(i) for i in range(n + 1)}
    if len(roots) != 1:
        diags.append(f"disconnected: {len(roots)} components over buses 0..{n}")

    if not feeder.der_nodes:
        diags.append("no DER buses declared")
    if not feeder.monitored_nodes:
        diags.append("no monitored buses declared")
    for label, nodes in (("DER", feeder.der_nodes), ("monitored", feeder.monitored_nodes)):
        if len(set(nodes)) != len(nodes):
            diags.append(f"duplicate {label} bus ids")
        for node in nodes:
            if not (1 <= node <= n):
                diags.append(f"{label} bus {node} outside 1..{n}")
    if len(feeder.der_ratings) != len(feeder.der_nodes):
        diags.append("der_ratings length does not match der_nodes")
    elif not all(0.0 < s < math.inf for s in feeder.der_ratings):
        diags.append("DER ratings must be positive and finite")
    v0 = abs(feeder.slack_voltage)
    if not 0.0 < v0 < math.inf:
        diags.append(f"slack voltage magnitude must be positive and finite, got {v0!r}")
    return diags


def build_admittance(feeder: FeederModel) -> AdmittanceMatrix:
    """Assemble the partitioned bus admittance matrix and factor it.

    Each line contributes ``1/z`` between its terminals plus half of
    ``y_shunt`` at each terminal; the reduced block is assembled directly
    in CSC form from the line list, so a radial feeder costs O(N). It is
    factored once with ``splu``. Raises :class:`FeederError` if the feeder
    fails validation or if the reduced block is numerically singular: its
    reciprocal 1-norm condition number, ``1 / (||Y||_1 ||Y^{-1}||_1)``
    with ``||Y^{-1}||_1`` estimated from solves with the factor, is below
    ``RCOND_LIMIT`` (or the factorization finds an exactly zero pivot).
    """
    diags = validate_feeder(feeder)
    if diags:
        raise FeederError("; ".join(diags))

    n = feeder.n_nodes
    a = np.asarray([ln.from_node for ln in feeder.lines])
    b = np.asarray([ln.to_node for ln in feeder.lines])
    ys = np.asarray([1.0 / ln.z for ln in feeder.lines])
    # self terms of buses 0..N, summed in line order
    diag = np.zeros(n + 1, dtype=complex)
    half = ys + np.asarray([ln.y_shunt for ln in feeder.lines]) / 2.0
    np.add.at(diag, np.column_stack([a, b]).ravel(), np.repeat(half, 2))
    # validation rules out self loops and duplicate corridors, so each
    # off-diagonal entry comes from exactly one line and needs no summing
    inner = (a > 0) & (b > 0)
    rows = np.concatenate([np.arange(n), a[inner] - 1, b[inner] - 1])
    cols = np.concatenate([np.arange(n), b[inner] - 1, a[inner] - 1])
    vals = np.concatenate([diag[1:], -ys[inner], -ys[inner]])
    order = np.lexsort((rows, cols))
    Y = sp.csc_matrix(
        (vals[order], rows[order], np.searchsorted(cols[order], np.arange(n + 1))),
        shape=(n, n),
    )
    ybar = np.zeros(n, dtype=complex)
    ybar[a[~inner] + b[~inner] - 1] = -ys[~inner]
    try:
        # Y is structurally symmetric: order on Y + Y^T and keep diagonal
        # pivots unless one falls below a tenth of its column's largest
        # entry; on a radial feeder this leaves almost no fill-in
        lu = splu(
            Y,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # an exactly zero pivot
        rcond = 0.0
    else:
        # largest absolute row sum, which is ||Y||_1 because Y is symmetric
        y_norm = float(np.bincount(Y.indices, np.abs(Y.data), n).max())
        rcond = 1.0 / (y_norm * _inverse_norm1(lu, n))
    if not rcond >= RCOND_LIMIT:
        raise FeederError(
            f"degenerate network: reduced admittance rcond {rcond:.3e} < {RCOND_LIMIT:.0e}"
        )
    return AdmittanceMatrix(ybar=ybar, Y=Y, lu=lu, rcond=rcond)


def _inverse_norm1(lu: SuperLU, n: int) -> float:
    # Hager's estimate of ||Y^{-1}||_1 (Higham's complex form): ascend from
    # the uniform vector to the unit vector with the steepest solve; a lower
    # bound that is exact for most matrices, at a few solves each way
    x = np.full(n, 1.0 / n, dtype=complex)
    est = 0.0
    for _ in range(5):
        y = lu.solve(x)
        new = float(np.sum(np.abs(y)))
        if not math.isfinite(new):
            return math.inf
        if new <= est:
            break
        est = new
        mag = np.abs(y)
        z = lu.solve(np.where(mag > 0, y / np.where(mag > 0, mag, 1.0), 1.0), trans="H")
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= np.vdot(z, x).real:
            break
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
    return est


# ---------------------------------------------------------------------------
# feeder description files (JSON, strict keys)

_TOP_KEYS = {
    "n_nodes",
    "slack",
    "lines",
    "der_nodes",
    "monitored_nodes",
}
_SLACK_KEYS = {"magnitude_pu", "angle_deg"}
_LINE_KEYS = {"from", "to", "r_pu", "x_pu", "b_shunt_pu"}
_DER_KEYS = {"node", "s_rating_pu"}


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise FeederError(f"unknown key(s) {sorted(unknown)} in {where}")


def _int(value: object, where: str, i: int = 0) -> int:
    """A JSON integer (a boolean is not one); ``where.format(i)`` names it."""
    if type(value) is not int:
        raise TypeError(f"{where.format(i)}: expected an integer, got {json.dumps(value)}")
    return value


def _number(value: object, where: str, i: int = 0) -> float:
    """A finite JSON number (a boolean is not one); ``where.format(i)`` names it."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise TypeError(f"{where.format(i)}: expected a finite number, got {json.dumps(value)}")
    return float(value)


def feeder_from_dict(data: dict) -> FeederModel:
    """Build a :class:`FeederModel` from the documented mapping.

    Rejects unknown keys, bus ids that are not JSON integers and electrical
    values that are not finite JSON numbers.
    """
    if not isinstance(data, dict):
        raise FeederError("feeder description must be a mapping")
    _check_keys(data, _TOP_KEYS, "feeder description")
    try:
        n_nodes = _int(data["n_nodes"], "n_nodes")
        slack = data.get("slack", {"magnitude_pu": 1.0, "angle_deg": 0.0})
        _check_keys(slack, _SLACK_KEYS, "slack")
        v0_mag = _number(slack.get("magnitude_pu", 1.0), "slack.magnitude_pu")
        if v0_mag <= 0.0:  # rect would read a negative magnitude as a phase flip
            raise ValueError(f"slack.magnitude_pu must be positive, got {v0_mag!r}")
        v0 = cmath.rect(
            v0_mag, math.radians(_number(slack.get("angle_deg", 0.0), "slack.angle_deg"))
        )
        lines = []
        for i, row in enumerate(data["lines"]):
            _check_keys(row, _LINE_KEYS, f"lines[{i}]")
            lines.append(
                LineSegment(
                    from_node=_int(row["from"], "lines[{}].from", i),
                    to_node=_int(row["to"], "lines[{}].to", i),
                    z=complex(
                        _number(row["r_pu"], "lines[{}].r_pu", i),
                        _number(row["x_pu"], "lines[{}].x_pu", i),
                    ),
                    y_shunt=complex(
                        0.0, _number(row.get("b_shunt_pu", 0.0), "lines[{}].b_shunt_pu", i)
                    ),
                )
            )
        ders = []
        ratings = []
        for i, row in enumerate(data["der_nodes"]):
            _check_keys(row, _DER_KEYS, f"der_nodes[{i}]")
            ders.append(_int(row["node"], "der_nodes[{}].node", i))
            ratings.append(_number(row.get("s_rating_pu", 1.0), "der_nodes[{}].s_rating_pu", i))
        monitored = [
            _int(m, "monitored_nodes[{}]", i) for i, m in enumerate(data["monitored_nodes"])
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FeederError(f"malformed feeder description: {exc}") from exc
    return FeederModel(
        n_nodes=n_nodes,
        lines=tuple(lines),
        der_nodes=tuple(ders),
        monitored_nodes=tuple(monitored),
        der_ratings=tuple(ratings),
        slack_voltage=v0,
    )


def feeder_to_dict(feeder: FeederModel) -> dict:
    """Inverse of :func:`feeder_from_dict` (round-trips exactly)."""
    return {
        "n_nodes": feeder.n_nodes,
        "slack": {
            "magnitude_pu": abs(feeder.slack_voltage),
            "angle_deg": math.degrees(cmath.phase(feeder.slack_voltage)),
        },
        "lines": [
            {
                "from": ln.from_node,
                "to": ln.to_node,
                "r_pu": ln.z.real,
                "x_pu": ln.z.imag,
                "b_shunt_pu": ln.y_shunt.imag,
            }
            for ln in feeder.lines
        ],
        "der_nodes": [
            {"node": n, "s_rating_pu": s}
            for n, s in zip(feeder.der_nodes, feeder.der_ratings)
        ],
        "monitored_nodes": list(feeder.monitored_nodes),
    }


def load_feeder(path: str) -> FeederModel:
    """:func:`feeder_from_dict` of the JSON file ``path``; a :class:`FeederError` names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return feeder_from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise FeederError(f"{path}: not valid JSON: {exc}") from exc
        except FeederError as exc:
            raise FeederError(f"{path}: {exc}") from exc


def save_feeder(feeder: FeederModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(feeder_to_dict(feeder), fh, indent=2, sort_keys=True)
        fh.write("\n")
