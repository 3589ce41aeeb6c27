"""Closed-loop simulation engine, scenario handling, and tracking metrics.

One simulation step: apply the current setpoints and loads to the plant
(an algebraic AC power-flow solve, or the linear model), read the metered
magnitudes plus bounded noise, then advance the controller state. The
controller update is simultaneous: the new setpoints use the previous
duals, matching the analyzed step map.

Tracking reports compare the recorded primal-dual trajectory against
per-step saddle-point oracles and evaluate the asymptotic error bound
``(sqrt(2) alpha e + sigma_z) / (1 - rho(alpha))``.
"""

from __future__ import annotations

import csv
import math
import re
import sys
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
import orjson

from .baseline import DROOP_GAIN, droop_q
from .controller import (
    ControllerParams,
    Inverters,
    SaddleProblem,
    StepMap,
    VoltageCoupling,
    convergence_constants,
    dual_step_feedback,
    pack_state,
    primal_step,
    solve_saddle_oracle,
)
from .feeder import FeederModel, build_admittance
from .powerflow import (
    LinearModel,
    PowerFlowError,
    build_linear_model,
    constraint_offsets,
    predict_voltage_magnitude,
    solve_ac,
)

__all__ = [
    "CompiledFeeder",
    "compile_feeder",
    "Scenario",
    "ScenarioParams",
    "Trajectory",
    "TrackingReport",
    "STRATEGIES",
    "PLANTS",
    "SCENARIO_KINDS",
    "generate_scenario",
    "read_scenario",
    "run_closed_loop",
    "oracle_map",
    "step_problem",
    "eval_cost",
    "check_decimation",
    "measure_tracking",
    "write_trajectory",
    "check_trajectory",
]

STRATEGIES = ("pursuit", "droop", "none")
PLANTS = ("ac", "linear")
SCENARIO_KINDS = ("static", "ramp", "cloud_transient", "vmax_steps")

# row i: the polynomial extrapolation through the last i + 1 AC solutions,
# newest first, evaluated at the next step: v1, 2 v1 - v2, 3 v1 - 3 v2 + v3
# and the cubic 4 v1 - 6 v2 + 4 v3 - v4. Consecutive solutions lie on the
# smooth path the loads and setpoints trace, so it starts the fixed-point
# iteration close to the next one
AC_START = np.array([[1, 0, 0, 0], [2, -1, 0, 0], [3, -3, 1, 0], [4, -6, 4, -1]], dtype=float)

# run_closed_loop forms the per-step rows (loads, step map) of as many
# steps at a time as make about ROW_CELLS load entries: the rows of a whole
# run, and the temporaries that form them, would add to its peak memory
ROW_CELLS = 8192


@dataclass(frozen=True)
class Scenario:
    """Time series driving a run: loads, DER availability, voltage band.

    Loads are positive demands over buses 1..N; ``p_av`` is per DER in the
    feeder's DER order.
    """

    tau: float
    p_load: np.ndarray
    q_load: np.ndarray
    p_av: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p_load", "q_load", "p_av", "v_min", "v_max"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        k = self.p_load.shape[0]
        if k == 0:
            raise ValueError("scenario has no steps")
        if not (
            self.q_load.shape == self.p_load.shape
            and self.p_av.shape[0] == k
            and self.v_min.shape == (k,)
            and self.v_max.shape == (k,)
        ):
            raise ValueError("scenario series must share the same number of steps")
        for name in ("p_load", "q_load", "p_av", "v_min", "v_max"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.p_av < 0):
            raise ValueError("p_av must be nonnegative")
        if np.any(self.v_min >= self.v_max):
            raise ValueError("v_min must be below v_max at every step")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")

    @property
    def n_steps(self) -> int:
        return self.p_load.shape[0]


@dataclass(frozen=True)
class ScenarioParams:
    """Knobs of the synthetic scenario generators.

    ``load_p`` is the per-bus active demand (scalar broadcast or length-N
    array); availability fractions are relative to each DER's rating. Time
    profiles are functions of wall-clock time ``k * tau``, so refining tau
    samples the same underlying trace more densely.
    """

    n_steps: int = 600
    tau: float = 0.33
    v_min: float = 0.95
    v_max: float = 1.05
    load_p: float | np.ndarray = 0.008
    load_q_ratio: float = 0.4
    load_swing: float = 0.1
    pav_floor: float = 0.15
    pav_peak: float = 0.9
    ramp_start: float = 0.2
    ramp_end: float = 0.9
    bell_center: float = 0.5
    bell_width: float = 0.28
    bell_clip: float = 1.0
    bell_fall: float = 1.0
    n_dips: int = 3
    dip_depth: float = 0.4
    vmax_plateaus: tuple[float, float, float] = (1.05, 1.035, 1.02)
    vmax_fractions: tuple[float, float, float] = (7 / 12, 1 / 12, 4 / 12)

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}: scenario has no steps")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        if self.n_steps - 1 > sys.float_info.max / self.tau:  # n_steps may exceed any float
            raise ValueError(f"last time (n_steps - 1) * tau must be finite, tau = {self.tau!r}")
        if self.n_dips < 0:
            raise ValueError(f"n_dips must be >= 0, got {self.n_dips}")
        fr = self.vmax_fractions
        if not (min(fr) >= 0.0 and abs(sum(fr) - 1.0) <= 1e-9):
            raise ValueError(f"vmax_fractions must be nonnegative and sum to 1, got {fr!r}")


def _load_series(base: np.ndarray, par: ScenarioParams, t: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    n = base.size
    horizon = max(t[-1], 1e-9) if len(t) else 1.0
    if par.load_swing > 0:
        phases = rng.uniform(0.0, 2.0 * math.pi, n)
        wave = 1.0 + par.load_swing * np.sin(
            2.0 * math.pi * t[:, None] / horizon + phases[None, :]
        )
        p = base[None, :] * wave
    else:
        p = np.tile(base, (len(t), 1))
    return p, par.load_q_ratio * p


def _irradiance(kind: str, par: ScenarioParams, t: np.ndarray, rng) -> np.ndarray:
    horizon = max(t[-1], 1e-9) if len(t) else 1.0
    if kind in ("static", "vmax_steps"):
        # constant clear-sky availability: under vmax_steps the stepped voltage
        # limit is the only disturbance, so its response can be read off directly
        return np.full(len(t), par.pav_peak)
    if kind == "ramp":
        if len(t) < 2:
            return np.full(len(t), par.ramp_start)
        return par.ramp_start + (par.ramp_end - par.ramp_start) * t / horizon
    # diurnal bell for cloud_transient; bell_clip < 1 gives a flat clear-sky
    # plateau around the apex, bell_fall > 1 slows the afternoon decay
    dt = t - par.bell_center * horizon
    width = par.bell_width * horizon * np.where(dt > 0, par.bell_fall, 1.0)
    g = np.exp(-((dt / width) ** 2))
    frac = par.pav_floor + (par.pav_peak - par.pav_floor) * np.minimum(
        g / par.bell_clip, 1.0
    )
    if par.n_dips > 0:
        factor = np.ones(len(t))
        for _ in range(par.n_dips):
            center = rng.uniform(0.25 * horizon, 0.75 * horizon)
            w = rng.uniform(0.5, 1.5) * (0.02 * horizon)
            depth = rng.uniform(0.3, 1.0) * par.dip_depth
            factor -= depth * np.exp(-(((t - center) / w) ** 2))
        frac = frac * np.clip(factor, 1.0 - par.dip_depth, 1.0)
    return frac


def generate_scenario(
    kind: str,
    feeder: FeederModel,
    seed: int,
    params: ScenarioParams | None = None,
) -> Scenario:
    """Deterministic synthetic scenario of the requested kind.

    Kinds: ``static`` (all series constant), ``ramp`` (linear availability
    ramp), ``cloud_transient`` (diurnal bell with bounded fast irradiance
    dips), ``vmax_steps`` (constant availability, as ``static``, plus a
    piecewise-constant upper voltage limit taking the three plateau values).
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    par = params or ScenarioParams()
    n = feeder.n_nodes
    base = np.asarray(par.load_p, dtype=float)
    if base.shape not in ((), (n,)):
        raise ValueError(f"load_p must be a number or one per bus ({n}), got shape {base.shape}")
    base = np.broadcast_to(base, (n,))
    rng = np.random.default_rng(seed)
    k = par.n_steps
    try:
        t = np.arange(k) * par.tau
    except ValueError as exc:  # numpy: more steps than any array can hold
        raise MemoryError(f"{k} steps: {exc}") from exc
    if kind == "static":
        p_load = np.tile(base, (k, 1))
        q_load = par.load_q_ratio * p_load
    else:
        p_load, q_load = _load_series(base, par, t, rng)
    frac = _irradiance(kind, par, t, rng)
    ratings = np.asarray(feeder.der_ratings)
    p_av = np.minimum(frac[:, None] * ratings[None, :], ratings[None, :])
    v_min = np.full(k, par.v_min)
    if kind == "vmax_steps":
        v_max = np.empty(k)
        f1, f2, _ = par.vmax_fractions
        b1 = int(round(f1 * k))
        b2 = int(round((f1 + f2) * k))
        v_max[:b1] = par.vmax_plateaus[0]
        v_max[b1:b2] = par.vmax_plateaus[1]
        v_max[b2:] = par.vmax_plateaus[2]
    else:
        v_max = np.full(k, par.v_max)
    return Scenario(
        tau=par.tau,
        p_load=p_load,
        q_load=q_load,
        p_av=p_av,
        v_min=v_min,
        v_max=v_max,
    )


# ---------------------------------------------------------------------------
# scenario files: columnar text, one row per step


def _scenario_columns(feeder: FeederModel) -> list[str]:
    buses = range(1, feeder.n_nodes + 1)
    return (
        ["time_s", "v_min", "v_max"]
        + [f"pl_{i}" for i in buses]
        + [f"ql_{i}" for i in buses]
        + [f"pav_{i}" for i in feeder.der_nodes]
    )


def _read_rows(path: str, columns: list[str], what: str) -> np.ndarray:
    """The numeric rows of a columnar file whose header must be ``columns``.

    Raises ``ValueError`` naming the file, and the row (numbered from 1
    after the header) when it is one row's fault.
    """
    m = len(columns)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != columns:
            bad = [j for j, (h, c) in enumerate(zip(header, columns)) if h != c]
            found = (
                f"column {bad[0] + 1} is {header[bad[0]]!r}, expected {columns[bad[0]]!r}"
                if bad else f"{len(header)} columns, expected {m}"
            )
            raise ValueError(f"{path}: {what} columns do not match the feeder ({found})")
        n = 0  # non-empty rows fetched
        wrong_width = None

        def rows():
            # the non-empty rows, up to the first one of the wrong width
            nonlocal n, wrong_width
            for row in reader:
                if row:
                    n += 1
                    if len(row) != m:
                        wrong_width = len(row)
                        return
                    yield row

        # one pass that converts every cell with float(); a bad cell stops it
        # in row n, and a row of the wrong width ends it before row n
        try:
            data = np.fromiter(map(float, chain.from_iterable(rows())), dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}: row {n}: {exc}") from exc
    if wrong_width is not None:
        raise ValueError(f"{path}: row {n} has {wrong_width} columns, expected {m}")
    if n == 0:
        raise ValueError(f"{path}: {what} has no rows")
    return data.reshape(n, m)


_BLOCK_CELLS = 2048
_POS_EXPONENT = re.compile(rb"e(?=\d)")  # 1e16 -> 1e+16
_ONE_DIGIT_EXPONENT = re.compile(rb"e-(?=\d(?!\d))")  # 1e-7 -> 1e-07


def _write_columns(path: str, columns: list[str], parts: list[np.ndarray]) -> None:
    """Write the header ``columns``, then the row index k and the rows of ``parts``.

    Each part is a (K,) or (K, c) float array, its rows side by side after
    k. Every float prints as its exact ``repr``, cells are
    joined by commas and rows end in ``\\r\\n``, the bytes csv writes.
    The parts are stacked about ``_BLOCK_CELLS`` cells at a time (at least
    one row), so no copy of a whole file is made.

    Each block is one ``orjson`` (Ryu) pass: its shortest round-trip
    digits are ``repr``'s and only the notation differs. Exponents get a
    sign and two digits (``1e16`` -> ``1e+16``, ``1e-7`` -> ``1e-07``);
    both write a positive exponent only from 1e16 on, so the text of a
    block with no finite cell that large is not scanned for one.
    NaN, the infinities (``null`` in orjson) and 1e-5 <= |x| < 1e-4
    (``0.0000123`` in orjson, ``1.23e-05`` in ``repr``) go to orjson as
    NaN, and each ``null`` becomes the ``repr`` of its cell.
    """
    width = sum(1 if a.ndim == 1 else a.shape[1] for a in parts)
    step = max(1, _BLOCK_CELLS // width)
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\r\n").encode("utf-8"))
        for lo in range(0, len(parts[0]), step):
            block = np.column_stack([a[lo : lo + step] for a in parts]).astype(float, copy=False)
            mag = np.abs(block)
            finite = np.isfinite(mag)
            odd = ~finite | ((1e-5 <= mag) & (mag < 1e-4))
            text = orjson.dumps(np.where(odd, np.nan, block), option=orjson.OPT_SERIALIZE_NUMPY)
            if np.maximum.reduce(mag, axis=None, initial=0.0, where=finite) >= 1e16:
                text = _POS_EXPONENT.sub(b"e+", text)
            text = _ONE_DIGIT_EXPONENT.sub(b"e-0", text)
            if odd.any():
                cells = text.split(b"null")
                reprs = [repr(x).encode() for x in block[odd].tolist()]
                text = cells[0] + b"".join(r + c for r, c in zip(reprs, cells[1:]))
            rows = [b"%d,%s" % (k, row) for k, row in enumerate(text[2:-2].split(b"],["), lo)]
            fh.write(b"\r\n".join(rows) + b"\r\n")


def read_scenario(path: str, feeder: FeederModel) -> Scenario:
    """Parse a columnar scenario file; the column set must match the feeder.

    Every row must have one numeric cell per column, there must be at
    least two rows, ``time_s`` must be uniformly spaced (tau is that
    spacing) and every value finite. A violation raises ``ValueError``
    naming the file and, where it is one row's fault, the row (numbered
    from 1 after the header).
    """
    n = feeder.n_nodes
    data = _read_rows(path, _scenario_columns(feeder), "scenario")
    if len(data) < 2:
        raise ValueError(f"{path}: scenario has one row, so time_s gives no spacing tau")
    steps = np.diff(data[:, 0])
    tau = float(steps[0])
    if not np.allclose(steps, tau, rtol=1e-9, atol=0.0):
        j = int(np.argmax(np.abs(steps - tau)))
        raise ValueError(
            f"{path}: time_s is not uniformly spaced (row {j + 2} is "
            f"{float(steps[j])!r} s after its predecessor, row 2 is {tau!r} s)"
        )
    g = feeder.n_der
    try:
        return Scenario(
            tau=tau,
            v_min=data[:, 1],
            v_max=data[:, 2],
            p_load=data[:, 3 : 3 + n],
            q_load=data[:, 3 + n : 3 + 2 * n],
            p_av=data[:, 3 + 2 * n : 3 + 2 * n + g],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# closed loop


def _tail_start(n_steps: int) -> int:
    """First step of the last quarter of ``n_steps`` steps: the tail of every report."""
    return int(0.75 * n_steps)


@dataclass(frozen=True)
class Trajectory:
    """A recorded closed-loop run; row k of every array is step k.

    ``u`` (K, n_der, 2) holds the applied (P, Q) setpoints and ``duals``
    (K, 2, M) the duals ``[gamma; mu]`` held while applying them (the
    ``gamma_*`` and ``mu_*`` columns of the file); ``y`` (K, M) is the
    noisy metered magnitudes and ``v_mag`` (K, N) the plant's magnitudes at
    every bus. ``cost`` is the generation cost of ``u``, ``max_violation``
    the largest metered excursion outside the step's voltage band, and
    ``pf_residual`` the AC solve's power mismatch ``max |s (v+ / v - 1)|``
    at its last update, formed as ``max |(s / v) (v+ - v)|``, and
    ``pf_iterations`` its fixed-point iteration count (both 0 on the linear
    plant). The trajectory file does not store
    ``pf_iterations``, so a trajectory read back from one has None there.
    """

    y: np.ndarray
    u: np.ndarray
    duals: np.ndarray
    v_mag: np.ndarray
    cost: np.ndarray
    max_violation: np.ndarray
    pf_residual: np.ndarray
    pf_iterations: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return self.y.shape[0]

    @property
    def tail_start(self) -> int:
        """First step of the run's last quarter, which every tail figure covers."""
        return _tail_start(self.n_steps)


@dataclass(frozen=True)
class CompiledFeeder:
    """A feeder compiled once for every layer of a run.

    Holds the feeder model, its linear model (which carries the factored
    sparse admittance) and the metered x DER coupling; a step's surrogate
    adds to it the offsets ``c`` of the step's loads.
    """

    feeder: FeederModel
    lm: LinearModel
    coupling: VoltageCoupling


def compile_feeder(feeder: FeederModel) -> CompiledFeeder:
    """Validate, assemble and factor the feeder, then linearize it once.

    The coupling is the linear model's metered x DER block, one solve per
    DER. Raises
    :class:`~opftrack.feeder.FeederError` for an invalid or degenerate
    network.
    """
    lm = build_linear_model(build_admittance(feeder), feeder.slack_voltage)
    rb = lm.columns(feeder.der_indices(), feeder.monitored_indices())
    return CompiledFeeder(feeder, lm, VoltageCoupling(rb))


# a stepsize that overflows the step arithmetic shows in the recorded state,
# or as the AC plant's failure, and not as numpy's floating-point warnings
@np.errstate(over="ignore", invalid="ignore")
def run_closed_loop(
    net: CompiledFeeder,
    scenario: Scenario,
    strategy: str,
    inv: Inverters,
    params: ControllerParams,
    *,
    seed: int = 0,
    plant: str = "ac",
    noise_amp: float = 0.0,
) -> Trajectory:
    """Run the measurement-driven loop and record every step.

    Strategies: ``pursuit`` (primal-dual controller with ``params``),
    ``droop`` (local Volt/VAr: each inverter's Q closes ``DROOP_GAIN`` of its
    gap to :func:`~opftrack.baseline.droop_q` at its own bus voltage, clamped
    to the step's headroom), ``none`` (unity power factor). Both ``droop``
    and ``none`` set their next setpoints from step k: step k + 1 applies
    P = ``p_av[k]``, and droop's Q is clamped to ``headroom[k]``, one step
    behind the availability it meets. ``inv`` holds the feeder's DERs;
    ``plant`` selects the AC fixed-point solve or the linear magnitude
    model. Measurements carry
    uniform noise of half-width ``noise_amp`` from a generator seeded with
    ``seed``, so a run is deterministic for fixed inputs. Step 0 applies
    full available power at unity power factor with zero duals; the loop
    keeps no diagnostics of the duals, whose largest value the run's
    summary reports (``dual_max``). The AC
    solve of step 0 starts from the no-load profile, and step k's from one
    product: row ``min(k, 4) - 1`` of ``AC_START`` times the plant's last
    four solutions, newest first (a 4 x N array, zero before step 4), which
    is the cubic extrapolation through them, or a lower order on the first
    steps. ``solve_ac`` falls back to the newest solution if that start is
    out of band, and accepts its iterate by the same residual test wherever
    it starts. On a feeder
    of up to ``DENSE_Z_MAX_NODES`` buses its iterations are products with
    the dense ``Y^{-1}``, and larger feeders take the factor's solve
    (:class:`~opftrack.feeder.AdmittanceMatrix`). A failed solve
    re-raises its :class:`PowerFlowError`, of the same class, with ``step
    k:`` put before the message.

    The controller and the droop headroom see the availability as the
    regions use it (:meth:`Inverters.available`, clipped to the ratings
    with one warning per run); the setpoints P of ``none`` and ``droop``,
    the start and the recorded cost take ``scenario.p_av`` as it is.

    The per-step rows are formed ahead of the steps, a block of steps at a
    time (``ROW_CELLS`` load entries; 227 steps on feeder36): the complex
    load injections, and for ``pursuit`` the
    :class:`~opftrack.controller.StepMap` of those steps. A step is then one
    plant solve on its load row plus the setpoints at the DER buses, and for
    ``pursuit`` one :func:`~opftrack.controller.primal_step` and one
    :func:`~opftrack.controller.dual_step_feedback` on its row of the map.
    The run is one ``np.errstate`` that silences overflow and invalid-value
    warnings: a stepsize that overflows the steps shows in the recorded
    state, or as the AC plant's failure.
    """
    feeder = net.feeder
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if plant not in PLANTS:
        raise ValueError(f"unknown plant {plant!r}")
    if scenario.p_av.shape[1] != feeder.n_der:
        raise ValueError("scenario DER columns do not match the feeder")
    if scenario.p_load.shape[1] != feeder.n_nodes:
        raise ValueError("scenario load columns do not match the feeder")
    if inv.n_der != feeder.n_der:
        raise ValueError(f"{inv.n_der} inverters for the feeder's {feeder.n_der} DERs")
    if not (noise_amp >= 0.0 and math.isfinite(2.0 * noise_amp)):
        raise ValueError(f"noise_amp must be >= 0 with 2 * noise_amp finite, got {noise_amp!r}")

    v0 = feeder.slack_voltage
    mon = feeder.monitored_indices()
    der = feeder.der_indices()
    rng = np.random.default_rng(seed)
    g = feeder.n_der
    p_av = inv.available(scenario.p_av)
    headroom = inv.headroom(p_av) if strategy == "droop" else None

    u = np.column_stack([scenario.p_av[0], np.zeros(g)])
    duals = np.zeros((2, len(mon)))  # [gamma; mu]
    v_last = np.zeros((4, feeder.n_nodes), dtype=complex)  # the last four solutions, newest first
    v_last_parts = v_last.view(float)  # each row's real and imaginary parts, interleaved
    start, fallback = net.lm.vbar, None

    n_steps = scenario.n_steps
    ys = np.empty((n_steps, len(mon)))
    us = np.empty((n_steps, g, 2))
    held = np.empty((n_steps, 2, len(mon)))  # [gamma; mu] of each step
    v_mags = np.empty((n_steps, feeder.n_nodes))
    pf_residual = np.zeros(n_steps)
    pf_iterations = np.zeros(n_steps, dtype=int)
    block = max(1, ROW_CELLS // feeder.n_nodes)
    for k in range(n_steps):
        j = k % block
        if j == 0:  # the rows of the next block of steps
            rows = slice(k, k + block)
            # net injections with every DER off; a step adds its setpoints
            loads = -scenario.p_load[rows] + 1j * -scenario.q_load[rows]
            if strategy == "pursuit":
                steps = StepMap(
                    inv, net.coupling, params, p_av[rows], scenario.v_min[rows],
                    scenario.v_max[rows],
                )
        s = loads[j]
        s[der] += u.view(complex)[:, 0]  # (P, Q) rows read as P + jQ

        if plant == "ac":
            try:
                sol = solve_ac(net.lm.adm, s, v0, init=start, fallback=fallback)
            except PowerFlowError as exc:  # the same error, naming the step
                raise type(exc)(f"step {k}: {exc}") from exc
            v_last[1:] = v_last[:3]
            v_last[0] = fallback = sol.v
            start = (AC_START[min(k, 3)] @ v_last_parts).view(complex)  # the next step's
            v_mag = sol.v_mag
            pf_residual[k] = sol.residual
            pf_iterations[k] = sol.iterations
        else:
            v_mag = predict_voltage_magnitude(net.lm, s)

        y = v_mag[mon]
        if noise_amp > 0.0:
            y = y + rng.uniform(-noise_amp, noise_amp, len(mon))
        ys[k], us[k], held[k], v_mags[k] = y, u, duals, v_mag

        if strategy == "pursuit":
            # simultaneous update: the primal step reads the pre-update duals
            u_next = primal_step(u, duals, steps, j)
            duals = dual_step_feedback(duals, y, steps, j)
            u = u_next
        elif strategy == "droop":
            v_local = v_mag[der]
            if noise_amp > 0.0:
                v_local = v_local + rng.uniform(-noise_amp, noise_amp, g)
            h = headroom[k]
            q = u[:, 1] + DROOP_GAIN * (droop_q(v_local, h) - u[:, 1])
            u = np.column_stack([scenario.p_av[k], np.clip(q, -h, h)])
        else:  # none
            u = np.column_stack([scenario.p_av[k], np.zeros(g)])

    return Trajectory(
        y=ys, u=us, duals=held, v_mag=v_mags,
        cost=eval_cost(us, inv, scenario.p_av),
        max_violation=_max_violation(v_mags[:, mon], scenario),
        pf_residual=pf_residual,
        pf_iterations=pf_iterations,
    )


def _max_violation(mon_mag: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Per step, the largest metered excursion outside the step's voltage band (0 inside)."""
    return np.maximum(0.0, np.maximum(
        np.max(scenario.v_min[:, None] - mon_mag, axis=1),
        np.max(mon_mag - scenario.v_max[:, None], axis=1),
    ))


def oracle_map(
    net: CompiledFeeder, scenario: Scenario, inv: Inverters, params: ControllerParams
) -> tuple[StepMap, np.ndarray]:
    """The oracles' :class:`~opftrack.controller.StepMap` of every step at ``alpha = 1``, and ``c``.

    The map holds the availability as the regions use it (one warning when
    the scenario exceeds a rating); ``c`` (K x M) holds each step's offsets
    from one multi-column solve. Row ``k`` of both is :func:`step_problem`.
    """
    steps = StepMap(
        inv, net.coupling, replace(params, alpha=1.0), inv.available(scenario.p_av),
        scenario.v_min, scenario.v_max,
    )
    return steps, constraint_offsets(net.lm, scenario.p_load, scenario.q_load, net.feeder)


def step_problem(steps: StepMap, c: np.ndarray, k: int) -> SaddleProblem:
    """Step ``k``'s time-frozen saddle instance: row ``k`` of an :func:`oracle_map`."""
    return SaddleProblem(steps, k, c[k])


def eval_cost(u: np.ndarray, inv: Inverters, p_av: np.ndarray) -> np.ndarray:
    """Per-step generation cost of setpoints ``u`` (K, n_der, 2), summed in DER order."""
    return sum(inv.cost(u, p_av).T, np.zeros(len(u)))


@dataclass(frozen=True)
class TrackingReport:
    """Tracking-bound certificate of a recorded pursuit run.

    ``bound_satisfied`` is None when the configured stepsize carries no
    contraction guarantee (``rho_alpha >= 1`` in the run's
    :func:`convergence_constants`). The ``oracle_*`` figures are the total
    and the largest iteration count of the per-step oracle solves and the
    largest of their final residuals.
    """

    sigma_z_measured: float
    e_measured: float
    bound_rhs: float
    tracking_error_tail: float
    bound_satisfied: bool | None
    decimation: int
    oracle_iterations_total: int
    oracle_iterations_max: int
    oracle_residual_max: float
    note: str = ""


def check_decimation(n_steps: int, decimation: int) -> None:
    """Refuse a report decimation that samples no step of the run's last quarter.

    A report of ``n_steps`` steps samples the steps 0, d, 2d, ..., the last
    of them ``((n_steps - 1) // d) d``; its tail figures need that step at
    or after the tail start ``int(0.75 n_steps)`` (:attr:`Trajectory.tail_start`).
    Raises ``ValueError`` naming ``d`` and the tail's steps, or for ``d < 1``.
    """
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    tail = _tail_start(n_steps)
    if (n_steps - 1) // decimation * decimation < tail:
        raise ValueError(
            f"decimation {decimation} samples no step of the tail, steps {tail}..{n_steps - 1} "
            f"of {n_steps}"
        )


# as in the loop, a recorded state that overflows shows in the figures, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def measure_tracking(
    net: CompiledFeeder,
    scenario: Scenario,
    inv: Inverters,
    params: ControllerParams,
    traj: Trajectory,
    decimation: int = 10,
) -> TrackingReport:
    """Compare a recorded pursuit run against per-step saddle oracles.

    Oracles are solved on every ``decimation``-th step, in one pass, each
    on its row of the report's one :func:`oracle_map` (:func:`step_problem`)
    and started from the previous sampled step's optimal setpoints.
    ``sigma_z_measured`` is the largest optimizer drift per step, averaged
    over each pair of consecutive oracles ``decimation`` steps apart; for
    ``decimation > 1`` it is therefore an estimate that bounds the true
    per-step maximum from below. The oracles solve to their default
    tolerance. ``tracking_error_tail`` is likewise sampled only on the
    oracle steps of the last quarter of the run, so ``bound_satisfied`` is
    exact only at ``decimation = 1``; :func:`check_decimation` refuses a
    decimation that samples no tail step. ``e_measured`` is the model-mismatch
    level ``max_k ||y_k - w_k||`` between the measured magnitudes and the
    surrogate's prediction ``w_k = r P_k + b Q_k + c_k`` over all recorded
    steps (the gap between measurement-based and model-based dual
    gradients). Of the run's :func:`convergence_constants` only
    ``rho_alpha`` enters the report.
    """
    check_decimation(scenario.n_steps, decimation)
    if traj.n_steps != scenario.n_steps:
        raise ValueError(
            f"trajectory has {traj.n_steps} steps, scenario has {scenario.n_steps}"
        )
    steps, c = oracle_map(net, scenario, inv, params)
    e_measured = float(np.max(np.linalg.norm(traj.y - net.coupling.predict(traj.u, c), axis=1)))

    sigma_z = tail = res_max = 0.0
    its_total = its_max = 0
    sol = star = None
    for k in range(0, scenario.n_steps, decimation):
        sol = solve_saddle_oracle(step_problem(steps, c, k), u0=None if sol is None else sol.u)
        its_total += sol.iterations
        its_max = max(its_max, sol.iterations)
        res_max = max(res_max, sol.residual)
        last, star = star, pack_state(sol.u, sol.duals)
        if last is not None:
            sigma_z = max(sigma_z, float(np.linalg.norm(star - last)) / decimation)
        if k >= traj.tail_start:
            zk = pack_state(traj.u[k], traj.duals[k])
            tail = max(tail, float(np.linalg.norm(zk - star)))

    rho = convergence_constants(inv, net.coupling, params).rho_alpha
    if rho < 1.0:
        bound_rhs = (math.sqrt(2.0) * params.alpha * e_measured + sigma_z) / (1.0 - rho)
        satisfied: bool | None = tail <= bound_rhs
        note = ""
    else:
        bound_rhs = math.inf
        satisfied = None
        note = "no contraction guarantee: alpha >= alpha_max"
    return TrackingReport(
        sigma_z_measured=sigma_z,
        e_measured=e_measured,
        bound_rhs=bound_rhs,
        tracking_error_tail=tail,
        bound_satisfied=satisfied,
        decimation=decimation,
        oracle_iterations_total=its_total,
        oracle_iterations_max=its_max,
        oracle_residual_max=res_max,
        note=note,
    )


def _trajectory_columns(feeder: FeederModel) -> list[str]:
    mon, der = feeder.monitored_nodes, feeder.der_nodes
    return (
        ["k", "time_s", "cost", "max_violation", "pf_residual"]
        + [f"y_{n}" for n in mon]
        + [f"p_{n}" for n in der]
        + [f"q_{n}" for n in der]
        + [f"gamma_{n}" for n in mon]
        + [f"mu_{n}" for n in mon]
        + [f"vmag_{n}" for n in range(1, feeder.n_nodes + 1)]
    )


def write_trajectory(
    traj: Trajectory, feeder: FeederModel, scenario: Scenario, path: str
) -> None:
    """Write a trajectory as columnar text, one row per step, byte-stable."""
    parts = [
        np.arange(traj.n_steps) * scenario.tau, traj.cost, traj.max_violation,
        traj.pf_residual, traj.y, traj.u[:, :, 0], traj.u[:, :, 1],
        traj.duals[:, 0], traj.duals[:, 1], traj.v_mag,
    ]
    _write_columns(path, _trajectory_columns(feeder), parts)


def _read_trajectory(path: str, feeder: FeederModel) -> tuple[np.ndarray, Trajectory]:
    # the file's time_s column and its trajectory, as check_trajectory documents
    data = _read_rows(path, _trajectory_columns(feeder), "trajectory")
    wrong = np.flatnonzero(data[:, 0] != np.arange(len(data)))
    if wrong.size:
        i = int(wrong[0])
        raise ValueError(
            f"{path}: row {i + 1} has k = {data[i, 0]:g}, expected {i} "
            "(rows must be the steps 0, 1, 2, ... in order)"
        )
    m, g = len(feeder.monitored_nodes), feeder.n_der
    head, y, p, q, duals, v_mag = np.split(data, np.cumsum([5, m, g, g, 2 * m]), axis=1)
    return head[:, 1], Trajectory(
        y=y, u=np.stack([p, q], axis=-1), duals=duals.reshape(-1, 2, m), v_mag=v_mag,
        cost=head[:, 2], max_violation=head[:, 3], pf_residual=head[:, 4],
    )


def check_trajectory(
    path: str, net: CompiledFeeder, scenario: Scenario, inv: Inverters
) -> Trajectory:
    """Read the trajectory file of a run of ``scenario``, its derived columns checked.

    The inverse of :func:`write_trajectory`. The header must be exactly the
    feeder's trajectory columns, every row must have one numeric cell per
    column, and the ``k`` column must read 0, 1, 2, ... in row order; a
    violation raises ``ValueError`` naming the file and, where it is one
    row's fault, the first such row. The file must also have one row per
    scenario step, ``time_s`` must be ``k * tau``, ``cost`` the
    :func:`eval_cost` for ``inv`` of the file's own setpoints and
    ``max_violation`` the excursion of its metered ``vmag`` outside the
    scenario's band. The writer round-trips every float, so each must match
    bit for bit; a mismatch raises ``ValueError`` naming the file, the
    column and the first wrong row.
    """
    time_s, traj = _read_trajectory(path, net.feeder)
    if traj.n_steps != scenario.n_steps:
        raise ValueError(
            f"{path}: trajectory has {traj.n_steps} steps, scenario has {scenario.n_steps}"
        )
    derived = {
        "time_s": (time_s, np.arange(traj.n_steps) * scenario.tau),
        "cost": (traj.cost, eval_cost(traj.u, inv, scenario.p_av)),
        "max_violation": (
            traj.max_violation,
            _max_violation(traj.v_mag[:, net.feeder.monitored_indices()], scenario),
        ),
    }
    for name, (got, want) in derived.items():
        wrong = np.flatnonzero(got != want)
        if wrong.size:
            i = int(wrong[0])
            raise ValueError(
                f"{path}: {name} in row {i + 1} is {float(got[i])!r}, "
                f"expected {float(want[i])!r}"
            )
    return traj
