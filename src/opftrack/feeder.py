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
from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np

__all__ = [
    "RCOND_LIMIT",
    "DENSE_Z_MAX_NODES",
    "FeederError",
    "FeederModel",
    "AdmittanceMatrix",
    "TreeFactor",
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

# columns per tree-factor solve or block: each holds a few N x width
# temporaries, which a 600-column solve at N = 1000 would make ~10 MB each
SOLVE_BLOCK = 32

# feeders of up to this many buses keep Z = Y^{-1} dense, larger ones the
# tree factor. Per vector, z.dot beat the tree solve up to N = 256 and lost
# from 384 (random_radial, 2 vCPUs: 7.2 against 13.8 us at 192, 10.9
# against 15.4 us at 256, 20.0 against 16.9 us at 384), but inverting Y
# took 3.2 ms at 192 and 6.2 ms at 256 against 0.9 ms for the tree factor
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


@dataclass(frozen=True, eq=False)
class TreeFactor:
    """``Y^{-1}`` of a radial or weakly meshed network, from its spanning tree.

    The tree is the breadth-first one from the slack. The chords are the
    lines it leaves out between two non-slack buses, and ``T`` is the
    reduced block ``Y`` without them. Eliminating ``T`` leaves first creates
    no fill-in: ``D_p <- D_p - y_c^2 / D_c`` over the children c of bus p,
    with y_c the line to the parent and multiplier ``y_c / D_c``. With
    ``W`` the product of the multipliers over a bus and its ancestors
    below the slack's children (which take 1),
    ``T^{-1} b = W * PathSum(SubtreeSum(W * b) / (W^2 D))``. In depth-first
    preorder a subtree is one run of places, so both sums are cumulative
    sums over the places: a subtree sum is the difference of two entries of
    one, and a path sum an entry of one over each value added where its
    subtree starts and taken off where it stops. The chords (a, b) enter as
    a Woodbury correction: ``Y^{-1} b = x - H (x[a] - x[b])`` with
    ``x = T^{-1} b``, ``G = T^{-1} U`` with a column ``e_a - e_b`` in ``U``
    per chord, and ``H = G (diag(1 / y) + U^T G)^{-1}``.

    Fields: ``w``, ``W`` by bus; ``order``, the bus at each place, and
    ``place``, the place of each bus; ``roots``, the places of the slack's
    neighbours, and ``branch``, the one above each place; by place,
    ``stop``, the place after its subtree, ``c``, ``1 / (W^2 D)``, and
    ``q``, the path sum of ``c``; ``ends`` (2, k), the buses of the chords;
    ``g`` and ``h`` (k, N), the columns of ``G`` and ``H``.
    """

    w: np.ndarray
    order: np.ndarray
    place: np.ndarray
    roots: np.ndarray
    branch: np.ndarray
    stop: np.ndarray
    c: np.ndarray
    q: np.ndarray
    ends: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``Y^{-1} rhs`` for a vector or an N x K array, ``SOLVE_BLOCK`` columns at a time.

        Each column of an array solve is its vector solve, bit for bit.
        """
        if rhs.ndim == 2 and rhs.shape[1] > SOLVE_BLOCK:
            out = np.empty(rhs.shape, dtype=complex)
            for j in range(0, rhs.shape[1], SOLVE_BLOCK):
                out[:, j : j + SOLVE_BLOCK] = self.solve(rhs[:, j : j + SOLVE_BLOCK])
            return out
        w, c, hs = (self.w, self.c, self.h) if rhs.ndim == 1 else (
            self.w[:, None], self.c[:, None], self.h[:, :, None]
        )
        # the slack's neighbours hold the slack's share of rhs (-ybar V0 in
        # the AC iteration) and of the path sums, which dwarf the rest: summed
        # apart, their rounding stays out of the other buses' sums
        u = (rhs * w)[self.order]
        top = u[self.roots]
        u[self.roots] = 0.0
        sums = np.zeros((len(rhs) + 1,) + rhs.shape[1:], dtype=complex)
        np.cumsum(u, axis=0, out=sums[1:])
        v = sums[self.stop] - sums[:-1]
        v[self.roots] += top
        v *= c
        top = v[self.roots]
        v[self.roots] = 0.0
        sums[:-1] = v
        sums[-1] = 0.0
        np.subtract.at(sums, self.stop, v)
        x = (np.cumsum(sums[:-1], axis=0) + top[self.branch])[self.place] * w
        if len(hs):
            for h, d in zip(hs, x[self.ends[0]] - x[self.ends[1]]):
                x -= h * d
        return x

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of columns ``cols`` of ``Y^{-1}``, ``SOLVE_BLOCK`` columns at a time.

        A unit right-hand side at bus j has subtree sum ``W_j`` at j and at
        its ancestors and 0 elsewhere, so column j of ``T^{-1}`` is ``W_j W``
        times ``q`` of the nearest common ancestor. In preorder that column
        is a run of constants: 0, then ``q`` of each ancestor from its
        place, and the same values back to 0 where the subtrees stop. Each
        chord then takes off ``H[rows] G[j]``.
        """
        n = len(self.order)
        out = np.empty((len(cols), len(rows)), dtype=complex)
        for j in range(0, len(cols), SOLVE_BLOCK):
            part = cols[j : j + SOLVE_BLOCK]
            k = len(part)
            p = self.place[part, None]
            # the places of each column's bus and its ancestors, top down
            col, anc = np.nonzero((np.arange(n) <= p) & (p < self.stop))
            top = np.ones(col.size, dtype=bool)
            top[1:] = col[1:] != col[:-1]
            # a column's runs: 0 from place 0; q of each ancestor from its
            # place; q of the ancestor above it (0 above the topmost) from
            # its stop, where the deeper of two equal stops comes first
            start = np.concatenate([np.zeros(k, dtype=int), anc, self.stop[anc]])
            owner = np.concatenate([np.arange(k), col, col])
            value = np.concatenate(
                [np.zeros(k), self.q[anc], np.where(top, 0.0, np.roll(self.q[anc], 1))]
            )
            tie = np.concatenate([np.full(k, -1), np.zeros(col.size, dtype=int), -anc])
            by = np.lexsort((tie, start, owner))
            start, owner, value = start[by], owner[by], value[by]
            end = np.append(start[1:], n)
            end[np.append(owner[1:] != owner[:-1], True)] = n
            x = np.repeat(value, end - start).reshape(k, n)
            np.multiply(np.take(x, self.place[rows], axis=1), self.w[rows], out=out[j : j + k])
            out[j : j + k] *= self.w[part, None]
            for g, h in zip(self.g, self.h):
                out[j : j + k] -= g[part, None] * h[rows]
        return out.T


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Partitioned bus admittance matrix, inverted or factored once.

    Holds what the solves use of the full ``(N+1) x (N+1)`` matrix: the
    slack-to-network column ``ybar``, and one representation of the
    reduced network block ``Y``, whose row i is bus i + 1. A feeder of up
    to ``DENSE_Z_MAX_NODES`` buses keeps the dense inverse ``z``, and a
    larger one ``tree``, the :class:`TreeFactor`. ``Y`` itself is not kept:
    every use of it is :attr:`solve`, or :meth:`block` for entries of
    ``Y^{-1}``.
    """

    ybar: np.ndarray
    z: np.ndarray | None = None
    tree: TreeFactor | None = None
    _slack: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def slack_term(self, v0: complex) -> np.ndarray:
        """``ybar V0``, read only, formed again only when ``v0`` differs from the last call's."""
        last, term = self._slack
        if last != v0:
            term = self.ybar * v0
            term.flags.writeable = False
            object.__setattr__(self, "_slack", (v0, term))
        return term

    @property
    def solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """``Y^{-1} rhs`` for a vector or an N x K array: ``z.dot``, or the tree factor's solve."""
        return self.z.dot if self.tree is None else self.tree.solve

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of columns ``cols`` of ``Y^{-1}``: entries of ``z``, or :meth:`TreeFactor.block`."""
        return self.z[np.ix_(rows, cols)] if self.tree is None else self.tree.block(rows, cols)


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

    # islands: each renumbered bus points toward the smallest bus of its
    # island. While a corridor joins two roots, the larger root is hooked
    # under the smallest root it meets, which at least halves the roots
    # that still meet another, and every bus then jumps to its root. Plus
    # one island per bus no usable line touches
    u, v = edges[first].T
    root = np.arange(m)
    while not np.array_equal(root[u], root[v]):
        np.minimum.at(root, np.maximum(root[u], root[v]), np.minimum(root[u], root[v]))
        while not np.array_equal(root[root], root):
            root = root[root]
    n_comp = int(np.count_nonzero(root == np.arange(m))) + n + 1 - m
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
    """Assemble the partitioned bus admittance matrix and invert or factor it.

    Line l contributes ``1/z[l]`` between ``terminals[l]`` plus half of
    ``y_shunt[l]`` at each. A feeder of up to ``DENSE_Z_MAX_NODES`` buses
    assembles the reduced block dense and keeps only its inverse ``z``; a
    larger one keeps the :class:`TreeFactor`, built in O(N) for a radial
    feeder (:class:`AdmittanceMatrix`). Raises :class:`FeederError`, with
    the diagnostics, if the feeder fails validation, or if the reduced
    block is numerically singular: its reciprocal 1-norm condition number,
    ``1 / (||Y||_1 ||Y^{-1}||_1)``, is below ``RCOND_LIMIT``. That is exact
    with ``z``; with the tree factor ``||Y^{-1}||_1`` is estimated from its
    solves. An exactly singular ``Y``, a zero pivot of the tree or a
    singular chord correction reads 0, and so does a tree factor whose
    solves leave the float range.
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
    ybar = np.zeros(n, dtype=complex)
    ybar[a[~inner] + b[~inner] - 1] = -ys[~inner]
    # largest absolute column sum
    y_norm = float(np.bincount(cols, np.abs(vals), n).max())
    adm, z_norm = None, math.inf
    if n <= DENSE_Z_MAX_NODES:
        y = np.zeros((n, n), dtype=complex)
        y[rows, cols] = vals
        with contextlib.suppress(np.linalg.LinAlgError):  # exactly singular
            adm = AdmittanceMatrix(ybar, z=np.linalg.inv(y))
            z_norm = float(np.abs(adm.z).sum(axis=0).max())
    else:
        # a solve that leaves the float range reads as singular
        with np.errstate(over="ignore", invalid="ignore"):
            tree = _tree_factor(n, a, b, ys, diag)
            if tree is not None:
                adm = AdmittanceMatrix(ybar, tree=tree)
                z_norm = _inverse_norm1(tree.solve, n)
    rcond = 1.0 / (y_norm * z_norm)
    if not rcond >= RCOND_LIMIT:
        raise FeederError(
            f"degenerate network: reduced admittance rcond {rcond:.3e} < {RCOND_LIMIT:.0e}"
        )
    return adm


def _tree_factor(
    n: int, a: np.ndarray, b: np.ndarray, ys: np.ndarray, diag: np.ndarray
) -> TreeFactor | None:
    # the TreeFactor of validated lines (a, b) of admittance ys, with diag the
    # self terms of buses 0..N; None at a zero pivot or a singular chord
    # correction. Buses keep their numbers here, the slack 0, and each loop
    # runs once per level of the tree
    near = np.concatenate([a, b])
    by_near = np.argsort(near, kind="stable")
    near, far = near[by_near], np.concatenate([b, a])[by_near]
    line = np.tile(np.arange(len(a)), 2)[by_near]
    first = np.searchsorted(near, np.arange(n + 2))
    # breadth first from the slack: a level's buses in the order of the
    # parents they were first reached from, each with that line's admittance
    parent = np.full(n + 1, -1)
    parent[0] = 0
    y = np.zeros(n + 1, dtype=complex)
    in_tree = np.zeros(len(a), dtype=bool)
    levels, level = [], np.zeros(1, dtype=int)
    while True:
        count = first[level + 1] - first[level]
        slot = np.repeat(first[level] - np.cumsum(count) + count, count) + np.arange(count.sum())
        slot = slot[parent[far[slot]] < 0]
        slot = slot[np.sort(np.unique(far[slot], return_index=True)[1])]
        if not slot.size:
            break
        level = far[slot]
        parent[level] = near[slot]
        y[level] = ys[line[slot]]
        in_tree[line[slot]] = True
        levels.append(level)
    chord = ~in_tree & (a > 0) & (b > 0)
    d = diag.copy()
    np.subtract.at(d, np.concatenate([a[chord], b[chord]]), np.tile(ys[chord], 2))
    # leaves first: pivots, multipliers and subtree sizes
    w = np.ones(n + 1, dtype=complex)
    size = np.ones(n + 1, dtype=int)
    for bus in reversed(levels):
        if not d[bus].all():
            return None
        w[bus] = y[bus] / d[bus]
        np.add.at(d, parent[bus], -y[bus] * w[bus])
        np.add.at(size, parent[bus], size[bus])
    # from the slack: W, and each bus's preorder place after its parent and
    # the subtrees of its earlier siblings
    w[levels[0]] = 1.0
    c, q = np.zeros(n + 1, dtype=complex), np.zeros(n + 1, dtype=complex)
    pre = np.zeros(n + 1, dtype=int)
    for bus in levels:
        up = parent[bus]
        w[bus] *= w[up]
        c[bus] = 1.0 / (w[bus] ** 2 * d[bus])
        q[bus] = q[up] + c[bus]
        before = np.cumsum(size[bus]) - size[bus]
        head = np.ones(bus.size, dtype=bool)
        head[1:] = up[1:] != up[:-1]
        pre[bus] = pre[up] + 1 + before - np.maximum.accumulate(np.where(head, before, 0))
    place = pre[1:] - 1
    order = np.argsort(place)
    roots = np.sort(place[levels[0] - 1])
    tree = TreeFactor(
        w=w[1:],
        order=order,
        place=place,
        roots=roots,
        branch=np.searchsorted(roots, np.arange(n), side="right") - 1,
        stop=np.arange(n) + size[1:][order],
        c=c[1:][order],
        q=q[1:][order],
        ends=np.zeros((2, 0), dtype=int),
        g=np.zeros((0, n), dtype=complex),
        h=np.zeros((0, n), dtype=complex),
    )
    k = int(np.count_nonzero(chord))
    if not k:
        return tree
    # Woodbury: H = G M with G = T^{-1} U, U's column (e_a - e_b) per chord,
    # and M the inverse of diag(1 / y) + U^T G
    ends = np.stack([a[chord], b[chord]]) - 1
    u = np.zeros((n, k), dtype=complex)
    u[ends[0], np.arange(k)] = 1.0
    u[ends[1], np.arange(k)] = -1.0
    g = tree.solve(u)
    try:
        m = np.linalg.inv(np.diag(1.0 / ys[chord]) + g[ends[0]] - g[ends[1]])
    except np.linalg.LinAlgError:
        return None
    return replace(tree, ends=ends, g=g.T.copy(), h=(g @ m).T.copy())


def _inverse_norm1(solve: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    # Hager's estimate of ||Y^{-1}||_1 (Higham's complex form): ascend from
    # the uniform vector to the unit vector with the steepest solve; a lower
    # bound that is exact for most matrices, at a few solves each way. Y is
    # complex symmetric, so its conjugate transpose solves as conj(solve(conj(x)))
    x = np.full(n, 1.0 / n, dtype=complex)
    est = 0.0
    for _ in range(5):
        y = solve(x)
        new = float(np.sum(np.abs(y)))
        if not math.isfinite(new):
            return math.inf
        if new <= est:
            break
        est = new
        mag = np.abs(y)
        z = np.conj(solve(np.conj(np.where(mag > 0, y / np.where(mag > 0, mag, 1.0), 1.0))))
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
