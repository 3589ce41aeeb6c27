"""Small canonical feeders for the tests: a two-bus line and a uniform chain."""

import numpy as np

from opftrack.feeder import FeederModel


def two_bus(
    z: complex = 0.01 + 0.01j,
    y_shunt: complex = 0j,
    s_rating: float = 1.0,
    v0: complex = 1.0 + 0j,
) -> FeederModel:
    """Slack plus one bus hosting a single metered DER."""
    return FeederModel(
        n_nodes=1,
        terminals=[(0, 1)],
        z=[z],
        y_shunt=[y_shunt],
        der_nodes=(1,),
        monitored_nodes=(1,),
        der_ratings=(s_rating,),
        slack_voltage=v0,
    )


def chain(
    n: int,
    z: complex = 0.01 + 0.01j,
    der_nodes: tuple[int, ...] | None = None,
    monitored_nodes: tuple[int, ...] | None = None,
    der_ratings: tuple[float, ...] = (),
    y_shunt: complex = 0j,
) -> FeederModel:
    """Radial chain 0-1-...-n with identical segments."""
    if der_nodes is None:
        der_nodes = (n,)
    if monitored_nodes is None:
        monitored_nodes = tuple(range(1, n + 1))
    return FeederModel(
        n_nodes=n,
        terminals=np.column_stack([np.arange(n), np.arange(1, n + 1)]),
        z=np.full(n, z),
        y_shunt=np.full(n, y_shunt),
        der_nodes=der_nodes,
        monitored_nodes=monitored_nodes,
        der_ratings=der_ratings,
    )
