"""Ready-made feeder instances for demos, benchmarks and tests."""

from __future__ import annotations

import numpy as np

from .feeder import FeederModel

__all__ = ["random_radial", "feeder36"]


def random_radial(
    n: int,
    seed: int,
    z_mag_range: tuple[float, float] = (0.005, 0.05),
    shunt_prob: float = 0.0,
    der_nodes: tuple[int, ...] | None = None,
) -> FeederModel:
    """Random radial feeder: bus i attaches to a uniform random earlier bus.

    Impedance magnitudes are uniform in ``z_mag_range`` with impedance
    angles in [27, 63] degrees; optional small line charging.
    """
    rng = np.random.default_rng(seed)
    parents, z, y_shunt = [], [], []
    for i in range(1, n + 1):
        parents.append(0 if i == 1 else int(rng.integers(0, i)))
        zm = rng.uniform(*z_mag_range)
        ang = rng.uniform(0.47, 1.1)
        z.append(zm * np.cos(ang) + 1j * zm * np.sin(ang))
        charged = shunt_prob > 0 and rng.uniform() < shunt_prob
        y_shunt.append(1j * rng.uniform(0.0, 0.01) if charged else 0j)
    if der_nodes is None:
        der_nodes = (n,)
    return FeederModel(
        n_nodes=n,
        terminals=np.column_stack([parents, np.arange(1, n + 1)]),
        z=z,
        y_shunt=y_shunt,
        der_nodes=der_nodes,
        monitored_nodes=tuple(range(1, n + 1)),
    )


# 36-bus synthetic feeder: a trunk with five laterals, two of them deep.
# Parent of bus i is _PARENT36[i-1]. 18 inverters rated 0.3 / 0.35 / 0.2 pu
# on a 1 MVA base (300 / 350 / 200 kVA).
_PARENT36 = (
    0, 1, 2, 3, 4, 5,          # 1..6  trunk
    2, 7, 8, 9,                # 7..10 lateral at bus 2
    3, 11, 12, 13, 14,         # 11..15 lateral at bus 3
    4, 16, 17, 18, 19,         # 16..20 lateral at bus 4
    5, 21, 22, 23, 24,         # 21..25 lateral at bus 5
    6, 26, 27, 28,             # 26..29 lateral at bus 6
    29, 30, 31,                # 30..32 continuation
    28, 33, 34, 35,            # 33..36 deep branch at bus 28
)

DER36 = (4, 7, 10, 13, 17, 20, 22, 23, 26, 28, 29, 30, 31, 32, 33, 34, 35, 36)


def feeder36() -> FeederModel:
    """36-bus synthetic feeder with 18 inverters on the laterals.

    Trunk segments are stiffer than lateral ones, and the two deep branches
    below bus 28 are deliberately asymmetric (the 33-36 chain is longer
    electrically and carries the two largest inverters) so that the feeder
    has a single dominant overvoltage node. ``data/feeder36.json`` holds the
    same feeder.
    """
    bus = np.arange(1, 37)
    # trunk 1..6, laterals, then the deep branch's stiffer twin 30..32 and
    # its 33..36 chain carrying the big units
    z = np.select(
        [bus < 7, bus < 30, bus < 33],
        [0.0056 + 0.0112j, 0.0112 + 0.0144j, 0.0141 + 0.0141j],
        0.0176 + 0.0176j,
    )
    ratings = [0.2, 0.2, 0.3] + [0.2] * 13 + [0.35, 0.35]  # in DER36 order
    # branch sentinels: tree ends plus trunk junctions. Monitoring long runs
    # of consecutive same-chain nodes gives near-identical sensitivity rows
    # and therefore nearly unobservable (glacial) dual modes; sentinels keep
    # the dual dynamics well conditioned while still seeing the radial
    # voltage maxima.
    monitored = (2, 4, 6, 10, 13, 17, 20, 23, 32, 36)
    return FeederModel(
        n_nodes=36,
        terminals=np.column_stack([_PARENT36, bus]),
        z=z,
        y_shunt=np.zeros(36),
        der_nodes=DER36,
        monitored_nodes=monitored,
        der_ratings=tuple(ratings),
    )
