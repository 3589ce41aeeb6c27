"""Feeder data model, validation, and nodal admittance assembly.

Models a single-phase (balanced equivalent) distribution network: buses
``0..N`` with bus 0 the slack at the substation transformer, pi-model line
segments, and per-unit quantities throughout: the feeder file, the model
and every computation are in pu, and no base power is carried.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np
# scipy.linalg before scipy.sparse, which imports it too. In the other
# order its import leaves BLAS threads spinning for about 70 ms, into
# set-up, and the first threaded product after it (convergence_constants'
# Gram) stalled 2.5-4 ms in 6-9 of 20 fresh processes (2 vCPUs, OpenBLAS 0.3.31)
import scipy.linalg  # noqa: F401
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import SuperLU, splu

__all__ = [
    "RCOND_LIMIT",
    "DENSE_Z_MAX_NODES",
    "FeederError",
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

# right-hand-side columns per sparse solve: wider blocks go to multithreaded
# BLAS, which on a 2-vCPU host took 15-100 ms for 100-600 columns at N = 36
# against under 1 ms in blocks of this width
SOLVE_BLOCK = 32

# feeders of up to this many buses also keep Z = Y^{-1} dense for the AC
# iteration: per vector, a product with Z beat a solve with the factor up to
# N = 192 and lost from N = 256 (random_radial, 2 vCPUs: 2.8 against 9.1 us
# at N = 36, 12.6 against 15.4 us at 192, 19.2 against 17.5 us at 256)
DENSE_Z_MAX_NODES = 192


class FeederError(ValueError):
    """Invalid or degenerate network; ``diagnostics`` lists validation's findings."""

    def __init__(self, message: str, diagnostics: list[str] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


@dataclass(frozen=True, eq=False)
class FeederModel:
    """Static network description.

    Line l joins buses ``terminals[l]`` (0 the slack) with series impedance
    ``z[l]`` (pu, nonzero) and total charging ``y_shunt[l]`` (pu), half at
    each end. ``der_nodes`` are the buses hosting controllable inverters
    (ordered, no duplicates, slack excluded) and ``der_ratings`` their
    apparent power ratings in pu; ``monitored_nodes`` are the buses whose
    voltage magnitudes are metered and regulated.
    """

    n_nodes: int
    terminals: np.ndarray
    z: np.ndarray
    y_shunt: np.ndarray
    der_nodes: tuple[int, ...]
    monitored_nodes: tuple[int, ...]
    der_ratings: tuple[float, ...] = ()
    slack_voltage: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        for name, dtype in (("terminals", int), ("z", complex), ("y_shunt", complex)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        shapes = (self.terminals.shape, self.z.shape, self.y_shunt.shape)
        if self.z.ndim != 1 or shapes[0] != (len(self.z), 2) or shapes[2] != shapes[1]:
            raise ValueError(f"line arrays need shapes (L, 2), (L,), (L,), got {shapes}")
        object.__setattr__(self, "der_nodes", tuple(map(int, self.der_nodes)))
        object.__setattr__(self, "monitored_nodes", tuple(map(int, self.monitored_nodes)))
        ratings = tuple(map(float, self.der_ratings))
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
    slack-to-network column ``ybar`` and ``lu``, the sparse LU factor of the
    reduced network block ``Y`` whose row i is bus i + 1. Every use of ``Y``
    is a solve with that factor, and ``Y`` itself is not kept, except that
    the AC fixed-point iteration takes :attr:`vector_solve`: a product with
    the dense ``z = Y^{-1}`` where it is kept (``build_admittance`` keeps it
    on feeders of up to ``DENSE_Z_MAX_NODES`` buses), else a solve with the
    factor. The two agree to rounding.
    """

    ybar: np.ndarray
    lu: SuperLU
    z: np.ndarray | None = None

    @property
    def vector_solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """The AC iteration's per-vector ``Y^{-1} x``: ``z.dot`` if kept, else ``lu.solve``."""
        return self.lu.solve if self.z is None else self.z.dot

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``Y^{-1} rhs`` for a vector or an N x K array, from the stored factor.

        An array wider than ``SOLVE_BLOCK`` columns is solved that many at a time.
        """
        if rhs.ndim == 1 or rhs.shape[1] <= SOLVE_BLOCK:
            return self.lu.solve(rhs)
        out = np.empty(rhs.shape, dtype=complex)
        for j in range(0, rhs.shape[1], SOLVE_BLOCK):
            out[:, j : j + SOLVE_BLOCK] = self.lu.solve(rhs[:, j : j + SOLVE_BLOCK])
        return out


def validate_feeder(feeder: FeederModel) -> list[str]:
    """Run structural checks and return a list of diagnostics (empty if clean).

    Checks: bus indices in range, no self loops, nonzero series impedances,
    no duplicate line corridors, graph connectivity over all buses including
    the slack, nonempty in-range DER / monitored sets, positive finite DER
    ratings and a positive finite slack voltage magnitude.
    """
    n = feeder.n_nodes
    if n < 1:
        return [f"n_nodes must be >= 1, got {n}"]

    diags: list[str] = []
    t = feeder.terminals
    outside = ((t < 0) | (t > n)).any(axis=1)
    loop = ~outside & (t[:, 0] == t[:, 1])
    zero = ~outside & ~loop & (feeder.z == 0)
    usable = ~(outside | loop | zero)
    # the usable lines' buses renumbered 0..m-1, so no array is sized by n;
    # a corridor's first usable line is kept, every later one is a duplicate
    buses, edges = np.unique(t[usable], return_inverse=True)
    edges, m = edges.reshape(-1, 2), len(buses)
    corridor = edges.min(axis=1) * m + edges.max(axis=1)
    _, first = np.unique(corridor, return_index=True)
    dup = usable.copy()
    dup[np.flatnonzero(usable)[first]] = False
    for i in np.flatnonzero(~usable | dup).tolist():
        a, b = t[i].tolist()
        if outside[i]:
            diags.append(f"line ({a},{b}) has endpoint outside 0..{n}")
        elif loop[i]:
            diags.append(f"line ({a},{b}) is a self loop")
        elif zero[i]:
            diags.append(f"line ({a},{b}) has zero series impedance")
        else:
            diags.append(f"duplicate line corridor ({min(a, b)},{max(a, b)})")

    # islands: strong components of every corridor taken once each way, which
    # skip the undirected search's transpose (a repeated entry hangs scipy's),
    # and one more per bus no usable line touches
    ends = np.concatenate([edges[first], edges[first, ::-1]])
    ends = ends[np.argsort(ends[:, 0])]
    indptr = np.searchsorted(ends[:, 0], np.arange(m + 1))
    graph = sp.csr_matrix((np.ones(len(ends)), ends[:, 1], indptr), shape=(m, m))
    n_comp = connected_components(graph, connection="strong", return_labels=False) + n + 1 - m
    if n_comp != 1:
        diags.append(f"disconnected: {n_comp} components over buses 0..{n}")

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

    Line l contributes ``1/z[l]`` between ``terminals[l]`` plus half of
    ``y_shunt[l]`` at each; the reduced block is assembled directly in CSC
    form from the line arrays, so a radial feeder costs O(N). It is
    factored once with ``splu``, and only the factor is kept, with the dense
    inverse ``z`` beside it on a feeder of up to ``DENSE_Z_MAX_NODES``
    buses (:class:`AdmittanceMatrix`). Raises
    :class:`FeederError`, with the diagnostics, if the feeder fails
    validation, or if the reduced block is numerically singular: its
    reciprocal 1-norm condition number, ``1 / (||Y||_1 ||Y^{-1}||_1)``
    with ``||Y^{-1}||_1`` estimated from solves with the factor, is below
    ``RCOND_LIMIT`` (or the factorization finds an exactly zero pivot).
    """
    diags = validate_feeder(feeder)
    if diags:
        raise FeederError("; ".join(diags), diags)

    n = feeder.n_nodes
    a, b = feeder.terminals.T
    # CPython's complex division, not numpy's: the two differ in the last place
    # for some impedances (feeder36's 0.0112+0.0144j), which every output inherits
    ys = np.asarray([1.0 / z for z in feeder.z.tolist()])
    # self terms of buses 0..N, summed in line order
    diag = np.zeros(n + 1, dtype=complex)
    half = ys + feeder.y_shunt / 2.0
    np.add.at(diag, feeder.terminals.ravel(), np.repeat(half, 2))
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
    adm = AdmittanceMatrix(ybar=ybar, lu=lu)
    if n <= DENSE_Z_MAX_NODES:
        adm = replace(adm, z=adm.solve(np.eye(n, dtype=complex)))
    return adm


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

_TOP_REQUIRED = ("n_nodes", "lines", "der_nodes", "monitored_nodes")
_TOP_KEYS = {*_TOP_REQUIRED, "slack"}
_SLACK_KEYS = {"magnitude_pu", "angle_deg"}


def _object(value: object, allowed: set[str], where: str) -> dict:
    """A JSON object with no key outside ``allowed``; ``where`` names it."""
    if type(value) is not dict:
        raise FeederError(f"{where}: expected an object, got {json.dumps(value)}")
    unknown = set(value) - allowed
    if unknown:
        raise FeederError(f"unknown key(s) {sorted(unknown)} in {where}")
    return value


def _list(value: object, where: str) -> list:
    """A JSON list; ``where`` names it."""
    if type(value) is not list:
        got = "an object" if type(value) is dict else json.dumps(value)
        raise TypeError(f"{where}: expected a list, got {got}")
    return value


def _int(value: object, where: str, i: int = 0) -> int:
    """A JSON integer in the int64 range (a boolean is not one); ``where.format(i)`` names it."""
    if type(value) is not int:
        raise TypeError(f"{where.format(i)}: expected an integer, got {json.dumps(value)}")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{where.format(i)}: {value} is outside the int64 range")
    return value


def _number(value: object, where: str, i: int = 0) -> float:
    """A finite JSON number (a boolean is not one); ``where.format(i)`` names it."""
    with contextlib.suppress(OverflowError):  # an integer beyond the float range
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    raise TypeError(f"{where.format(i)}: expected a finite number, got {json.dumps(value)}")


# the fields of a list's objects in checking order: key, check, and the
# default of an optional key (None for a required one)
_LINE_FIELDS = (
    ("from", _int, None),
    ("to", _int, None),
    ("r_pu", _number, None),
    ("x_pu", _number, None),
    ("b_shunt_pu", _number, 0.0),
)
_DER_FIELDS = (("node", _int, None), ("s_rating_pu", _number, 1.0))


class _Rejected(ValueError):
    """A column failed its check as a whole."""


def _column(values: list, check: Callable) -> np.ndarray:
    # the whole-column form of _int (an int64 array) or _number (a float
    # array); _Rejected if any value would fail the per-value check
    if set(map(type, values)) <= ({int} if check is _int else {int, float}):
        try:
            col = np.array(values, dtype=np.int64 if check is _int else float)
        except OverflowError:  # an integer beyond int64 or the float range
            raise _Rejected from None
        if check is _int or np.isfinite(col).all():
            return col
    raise _Rejected


def _object_columns(rows: list, fields: tuple, where: str) -> list:
    """One checked column per field of the objects ``rows`` (see :func:`_column`).

    Types, keys, ranges and finiteness are checked a whole column at a
    time. If a column fails, the per-row checks run from the first row on
    and raise at the first bad row, with the message naming that row and
    field.
    """
    keys = {key for key, _, _ in fields}
    try:
        if not (set(map(type, rows)) <= {dict} and set().union(*rows) <= keys):
            raise _Rejected
        return [
            _column(
                list(map(itemgetter(key), rows))
                if default is None
                else [row.get(key, default) for row in rows],
                check,
            )
            for key, check, default in fields
        ]
    except (_Rejected, KeyError):
        for i, row in enumerate(rows):
            _object(row, keys, f"{where}[{i}]")
            for key, check, default in fields:
                if default is None and key not in row:
                    raise ValueError(f"missing required key {key!r} in {where}[{i}]")
                check(row.get(key, default), f"{where}[{{}}].{key}", i)
        raise


def feeder_from_dict(data: dict) -> FeederModel:
    """Build a :class:`FeederModel` from the documented mapping.

    Rejects unknown or missing keys, containers of the wrong JSON type, bus
    ids that are not JSON integers in the int64 range and electrical values
    that are not finite JSON numbers. Each list is checked a column at a time; a failure is named by
    its first bad row, as the per-row checks would name it.
    """
    _object(data, _TOP_KEYS, "feeder description")
    try:
        for key in _TOP_REQUIRED:
            if key not in data:
                raise ValueError(f"missing required key {key!r} in feeder description")
        n_nodes = _int(data["n_nodes"], "n_nodes")
        slack = _object(data.get("slack", {}), _SLACK_KEYS, "slack")
        v0_mag = _number(slack.get("magnitude_pu", 1.0), "slack.magnitude_pu")
        if v0_mag <= 0.0:  # rect would read a negative magnitude as a phase flip
            raise ValueError(f"slack.magnitude_pu must be positive, got {v0_mag!r}")
        v0 = cmath.rect(
            v0_mag, math.radians(_number(slack.get("angle_deg", 0.0), "slack.angle_deg"))
        )
        lines = _list(data["lines"], "lines")
        a, b, r, x, b_shunt = _object_columns(lines, _LINE_FIELDS, "lines")
        z = np.empty(len(lines), dtype=complex)
        z.real, z.imag = r, x
        y_shunt = np.zeros(len(lines), dtype=complex)
        y_shunt.imag = b_shunt
        ders = _list(data["der_nodes"], "der_nodes")
        der_nodes, ratings = _object_columns(ders, _DER_FIELDS, "der_nodes")
        monitored = _list(data["monitored_nodes"], "monitored_nodes")
        try:
            monitored = _column(monitored, _int)
        except _Rejected:
            for i, m in enumerate(monitored):
                _int(m, "monitored_nodes[{}]", i)
            raise
        return FeederModel(
            n_nodes=n_nodes,
            terminals=np.column_stack([a, b]),
            z=z,
            y_shunt=y_shunt,
            der_nodes=der_nodes,
            monitored_nodes=monitored,
            der_ratings=ratings.tolist(),
            slack_voltage=v0,
        )
    except (TypeError, ValueError) as exc:
        raise FeederError(f"malformed feeder description: {exc}") from exc


def feeder_to_dict(feeder: FeederModel) -> dict:
    """Inverse of :func:`feeder_from_dict` (exact); unequal DER lists raise FeederError."""
    if len(feeder.der_ratings) != len(feeder.der_nodes):
        raise FeederError("der_ratings length does not match der_nodes")
    return {
        "n_nodes": feeder.n_nodes,
        "slack": {
            "magnitude_pu": abs(feeder.slack_voltage),
            "angle_deg": math.degrees(cmath.phase(feeder.slack_voltage)),
        },
        "lines": [
            {"from": a, "to": b, "r_pu": z.real, "x_pu": z.imag, "b_shunt_pu": y.imag}
            for (a, b), z, y in zip(
                feeder.terminals.tolist(), feeder.z.tolist(), feeder.y_shunt.tolist()
            )
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
            data = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or a number json cannot convert
            raise FeederError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return feeder_from_dict(data)
    except FeederError as exc:
        raise FeederError(f"{path}: {exc}") from exc


def save_feeder(feeder: FeederModel, path: str) -> None:
    data = feeder_to_dict(feeder)  # raises before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
